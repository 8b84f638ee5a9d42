"""Axis-aligned interval boxes.

Used for input-perturbation sets, state-dependent action ranges and arena
bounds.  Boxes are immutable; scaling and sampling return fresh objects or
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class IntervalBox:
    """Box ``{x : lower <= x <= upper}`` with componentwise bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if np.any(lower > upper):
            raise ValueError(f"lower bound exceeds upper bound: {lower} > {upper}")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def contains_box(self, other: "IntervalBox", tol: float = 0.0) -> bool:
        return bool(
            np.all(other.lower >= self.lower - tol)
            and np.all(other.upper <= self.upper + tol)
        )

    # -- construction helpers -------------------------------------------

    @classmethod
    def symmetric(cls, half_widths) -> "IntervalBox":
        h = np.atleast_1d(np.asarray(half_widths, dtype=float))
        if np.any(h < 0):
            raise ValueError("half widths must be nonnegative")
        return cls(-h, h)

    @classmethod
    def zero(cls, dim: int) -> "IntervalBox":
        z = np.zeros(dim)
        return cls(z, z)

    def scale(self, factors) -> "IntervalBox":
        """Multiply both bounds axis-wise by nonnegative ``factors``.

        Preserves containment order: ``a.contains_box(b)`` implies
        ``a.scale(f).contains_box(b.scale(f))``.
        """
        f = np.broadcast_to(np.asarray(factors, dtype=float), self.lower.shape)
        if np.any(f < 0):
            raise ValueError("scale factors must be nonnegative")
        return IntervalBox(self.lower * f, self.upper * f)

    # -- sampling and serialization ---------------------------------------

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """One uniform draw from the box, or with ``n`` an ``(n, dim)`` array of
        draws in one call (degenerate axes return the bound).  The rows equal
        ``n`` single draws from the same generator, bit for bit."""
        if n is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def to_dict(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "IntervalBox":
        return cls(np.asarray(data["lower"]), np.asarray(data["upper"]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalBox):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )

    def __repr__(self) -> str:
        axes = " x ".join(
            f"[{lo:g}, {up:g}]" for lo, up in zip(self.lower, self.upper)
        )
        return f"IntervalBox({axes})"
