import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import contains_box
from saferl.boxes import IntervalBox


def test_validation():
    with pytest.raises(ValueError):
        IntervalBox([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        IntervalBox([0.0], [np.inf])
    with pytest.raises(ValueError):
        IntervalBox([[0.0]], [[1.0]])


def test_basic_queries():
    box = IntervalBox([-0.002, -0.01], [0.002, 0.01])
    assert box.dim == 2
    assert np.allclose(box.widths, [0.004, 0.02])
    assert np.allclose(box.center, [0.0, 0.0])
    assert box.contains([0.0, 0.0])
    assert box.contains([0.002, -0.01])
    assert not box.contains([0.0021, 0.0])


def test_scale_multiplies_both_bounds():
    box = IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3])
    grown = box.scale(1.0 + 1 * np.array([10.0, 1.0]))
    assert grown == IntervalBox([-2.2e-3, -1e-2], [2.2e-3, 1e-2])
    with pytest.raises(ValueError):
        box.scale([-1.0, 1.0])


def test_scale_preserves_containment_order():
    rng = np.random.default_rng(3)
    for _ in range(100):
        center = rng.uniform(-1, 1, size=3)
        inner = IntervalBox(center - rng.uniform(0, 1, 3), center + rng.uniform(0, 1, 3))
        outer = IntervalBox(
            inner.lower - rng.uniform(0, 1, 3), inner.upper + rng.uniform(0, 1, 3)
        )
        factors = rng.uniform(0, 3, size=3)
        assert contains_box(outer, inner)
        assert contains_box(outer.scale(factors), inner.scale(factors), tol=1e-12)


_half = st.floats(0.0, 1e3)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.tuples(_half, _half, st.floats(0.0, 1.0), st.floats(1.0, 1e6)), min_size=1, max_size=4
    ),
)
def test_growth_by_factors_of_at_least_one_contains_the_original(data):
    # the expansion search grows a box around the origin by factors >= 1:
    # the grown box contains the one it grew from, with no tolerance, and
    # so does the grown box of a sub-box grown alike
    below, above, shrink, factors = (np.array(col) for col in zip(*data))
    box = IntervalBox(-below, above)
    inner = IntervalBox(-below * shrink, above * shrink)
    grown = box.scale(factors)
    assert contains_box(grown, box)
    assert contains_box(grown, inner.scale(factors))


def test_sampling_is_inside_and_deterministic():
    box = IntervalBox([-1.0, 2.0], [1.0, 3.0])
    rng = np.random.default_rng(0)
    draws = np.stack([box.sample(rng) for _ in range(200)])
    assert np.all(draws[:, 0] >= -1) and np.all(draws[:, 0] <= 1)
    assert np.all(draws[:, 1] >= 2) and np.all(draws[:, 1] <= 3)
    rng2 = np.random.default_rng(0)
    draws2 = np.stack([box.sample(rng2) for _ in range(200)])
    assert np.array_equal(draws, draws2)


def test_degenerate_box_samples_exactly_zero():
    box = IntervalBox.zero(2)
    rng = np.random.default_rng(1)
    assert np.array_equal(box.sample(rng), np.zeros(2))


def test_dict_roundtrip_and_immutability():
    box = IntervalBox([-1.0], [2.0])
    assert IntervalBox.from_dict(box.to_dict()) == box
    with pytest.raises(ValueError):
        box.lower[0] = 5.0


def test_equal_boxes_hash_alike():
    box = IntervalBox([-0.0, -1.0], [0.0, 2.0])
    same = IntervalBox(np.array([0.0, -1.0]), [-0.0, 2.0])  # signed zeros swapped
    assert box == same and hash(box) == hash(same)
    assert len({box, same, IntervalBox([-0.0, -1.0], [0.0, 2.0])}) == 1
    assert IntervalBox([0.0], [1.0]) not in {box}


def test_task_config_is_a_dict_and_cache_key():
    import functools
    from dataclasses import replace

    from saferl.evasion import TaskConfig

    a, b = TaskConfig(), TaskConfig(arena=IntervalBox([-1.6, -1.0], [1.6, 1.0]))
    assert a == b and hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"}
    calls = []

    @functools.lru_cache(maxsize=4)
    def cached(cfg):
        calls.append(cfg)
        return cfg.k_max

    assert cached(a) == cached(b) == 300
    assert cached(replace(a, k_max=10)) == 10
    assert len(calls) == 2
