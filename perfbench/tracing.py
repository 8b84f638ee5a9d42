"""Span tracer that instruments saferl from outside, without editing it.

Each public function or method listed in ``TARGETS`` is replaced, for the
duration of one traced iteration, by a wrapper that records a span
(name, start, end, parent) in flat in-memory arrays.  Module-level functions
are rebound in every ``saferl`` module that holds them, so names imported
into other modules (``controller.mindistance``, ``evasion.satisfies``) are
traced too.  A target that no longer exists is reported as absent.

Self time is computed from the spans afterwards: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name).  Order sets the span-name ids only.
TARGETS = (
    ("saferl.evasion", "mindistance", "evasion.mindistance"),
    ("saferl.evasion", "unicycle_step", "evasion.unicycle_step"),
    ("saferl.evasion", "episode_robustness", "evasion.episode_robustness"),
    ("saferl.evasion", "EvasionEnv.reset", "evasion.reset"),
    ("saferl.evasion", "EvasionEnv.step_raw", "evasion.step_raw"),
    ("saferl.evasion", "EvasionSource.sample_initial", "evasion.sample_initial"),
    ("saferl.evasion", "EvasionSource.rollout", "evasion.rollout"),
    ("saferl.evasion", "EvasionSource.robustness", "evasion.robustness"),
    ("saferl.stl", "satisfies", "stl.satisfies"),
    ("saferl.stl", "PredicateTable.evaluate", "stl.predicate_eval"),
    ("saferl.controller", "SafeController.__call__", "controller.call"),
    ("saferl.mlp", "net_forward", "mlp.net_forward"),
    ("saferl.mlp", "net_backward", "mlp.net_backward"),
    ("saferl.mlp", "Adam.step", "mlp.adam_step"),
    ("saferl.ppo", "ppo_update", "ppo.ppo_update"),
    ("saferl.ppo", "train", "ppo.train"),
    ("saferl.ppo", "evaluate_policy", "ppo.evaluate_policy"),
    ("saferl.verify", "probv", "verify.probv"),
    ("saferl.boxes", "IntervalBox.sample", "boxes.sample"),
    ("saferl.pipeline", "calibrate_reward_scale", "pipeline.calibrate_reward_scale"),
    ("saferl.pipeline", "run_expand", "pipeline.expand"),
    ("saferl.pipeline", "run_verify_safe", "pipeline.verify_safe"),
    ("saferl.pipeline", "run_train", "pipeline.train"),
    ("saferl.pipeline", "run_verify_agent", "pipeline.verify_agent"),
    ("saferl.pipeline", "run_histogram", "pipeline.histogram"),
)

# net_forward and net_backward spans are split by batch size, the first
# dimension of their array argument (position and keyword name).
_BATCHED = {"mlp.net_forward": (1, "x"), "mlp.net_backward": (2, "dout")}
_BATCH_SIZES = (1, 64)


def _batch_size(arr) -> int:
    shape = np.shape(arr)
    return 1 if len(shape) < 2 else shape[0]


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Records spans while installed; ``collect()`` aggregates them.

    Spans of one traced iteration are held in flat arrays: name id, parent
    span id (-1 at the root), start and end in ns from ``perf_counter_ns``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.rollout_steps = 0
        self._clear()

    def _clear(self) -> None:
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        batched = _BATCHED.get(name)
        if batched is None:
            nid = self.name_id(name)
            pick = None
        else:
            by_size = {b: self.name_id(f"{name}.b{b}") for b in _BATCH_SIZES}
            other = self.name_id(f"{name}.bother")

            index, keyword = batched

            def pick(args, kwargs):
                arr = args[index] if len(args) > index else kwargs[keyword]
                return by_size.get(_batch_size(arr), other)

        on_result = self._count_rollout_steps if name == "evasion.rollout" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid if pick is None else pick(args, kwargs))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_rollout_steps(self, trace) -> None:
        self.rollout_steps += int(getattr(trace, "n_steps", 0))

    def install(self) -> None:
        """Rebind every target; module-level functions in every saferl module.

        Spans accumulate across install/uninstall pairs until ``collect``.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "saferl" or mod_name.startswith("saferl."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def collect(self) -> dict:
        """Aggregate and drop the spans recorded since the last ``collect``.

        Returns per-name call counts, inclusive and self ns, and the
        per-sample durations (sample_initial start to robustness end).
        """
        n_names = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        if np.any(end < start):
            raise RuntimeError("unfinished span at collection time")
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=self_ns, minlength=n_names)
        per_name = {
            self.names[i]: {"calls": int(calls[i]), "ns": float(incl[i]), "self_ns": float(self_total[i])}
            for i in range(n_names)
        }
        # Span ids follow start order, so the k-th sample_initial and the
        # k-th robustness span belong to the same verification sample.
        sample_ms: list[float] = []
        if "evasion.sample_initial" in self._ids and "evasion.robustness" in self._ids:
            first = np.flatnonzero(name == self._ids["evasion.sample_initial"])
            last = np.flatnonzero(name == self._ids["evasion.robustness"])
            if len(first) == len(last):
                sample_ms = ((end[last] - start[first]) / 1e6).tolist()
        # ppo.train minus the ppo_update spans inside it: the collection time.
        collect_ns = 0.0
        if "ppo.train" in self._ids:
            collect_ns = per_name["ppo.train"]["ns"] - per_name.get("ppo.ppo_update", {"ns": 0.0})["ns"]
        steps = self.rollout_steps
        self.rollout_steps = 0
        self._clear()
        return {
            "per_name": per_name,
            "sample_ms": sample_ms,
            "train_collect_ns": collect_ns,
            "rollout_steps": steps,
            "absent": list(self.absent),
        }
