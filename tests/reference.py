"""Plain reference forms of library arithmetic that only the tests use.

The library computes these on Python floats or row arrays; the versions here
are the direct NumPy expressions the tests check those paths against.
"""

import math

import numpy as np


def heading_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def closest_point_on_segment(point, seg_start, seg_end) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    a = np.asarray(seg_start, dtype=float)
    b = np.asarray(seg_end, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return a.copy()
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])


def unflatten_arrays(flat: np.ndarray, templates: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    offset = 0
    for t in templates:
        size = int(np.prod(t.shape)) if t.shape else 1
        out.append(np.asarray(flat[offset : offset + size]).reshape(t.shape))
        offset += size
    if offset != flat.size:
        raise ValueError("flat vector size does not match templates")
    return out
