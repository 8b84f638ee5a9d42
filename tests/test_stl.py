import math

import numpy as np
import pytest

from oracle_stl import brute_robustness, brute_satisfies, random_formula
from saferl.stl import (
    Always,
    And,
    Eventually,
    Implies,
    Literal,
    Not,
    Or,
    Predicate,
    PredicateTable,
    Signal,
    StlError,
    StlSyntaxError,
    UnknownPredicateError,
    Until,
    desugar,
    format_formula,
    parse_formula,
    robustness,
    satisfies,
)

# column functions: each works on one state row and on an (m, n) block alike,
# so the brute-force oracle can take the same dict
FNS = {
    "over2": lambda s: np.abs(s[..., 0]) - 2.0,
    "p": lambda s: s[..., 0] - 1.0,
    "q": lambda s: 2.0 - np.abs(s[..., 1]),
    "pred_a": lambda s: 1.0,
}
TABLE = PredicateTable(FNS)


def const_signal(value, length=5, dim=1, dt=1.0):
    return Signal(np.full((length, dim), float(value)), dt=dt)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_negated_until():
    f = parse_formula("!( true U[0,2] over2 )")
    assert f == Not(Until(Literal(True), Predicate("over2"), 0.0, 2.0))


def test_parse_untimed_always():
    f = parse_formula("G( pred_a )")
    assert f == Always(Predicate("pred_a"), 0.0, math.inf)


def test_and_rewrites_by_de_morgan():
    f = desugar(parse_formula("a & b"))
    assert f == Not(Or(Not(Predicate("a")), Not(Predicate("b"))))


def test_derived_rewrites():
    assert desugar(parse_formula("a => b")) == Or(Not(Predicate("a")), Predicate("b"))
    assert desugar(parse_formula("F[0,2] a")) == Until(
        Literal(True), Predicate("a"), 0.0, 2.0
    )
    assert desugar(parse_formula("G[1,3] a")) == Not(
        Until(Literal(True), Not(Predicate("a")), 1.0, 3.0)
    )


def test_precedence():
    f = parse_formula("!a & b | c => d")
    assert f == Implies(Or(And(Not(Predicate("a")), Predicate("b")), Predicate("c")), Predicate("d"))


def test_temporal_binds_tighter_than_and():
    f = parse_formula("a U[0,1] b & c")
    assert f == And(Until(Predicate("a"), Predicate("b"), 0.0, 1.0), Predicate("c"))


def test_infinite_upper_bound():
    f = parse_formula("a U[0,inf] b")
    assert f == Until(Predicate("a"), Predicate("b"), 0.0, math.inf)


def test_temporal_letters_usable_as_identifiers():
    f = parse_formula("G & F | U")
    assert f == Or(And(Predicate("G"), Predicate("F")), Predicate("U"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a U[2,1] b", "malformed interval"),
        ("F[-1,2] a", "negative bound"),
        ("a U[inf,2] b", "lower bound must be finite"),
        ("a % b", "unknown operator"),
        ("(a | b", "expected ')'"),
        ("a U[0 2] b", "expected ','"),
        ("", "expected a formula"),
        ("a b", "trailing input"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(StlSyntaxError) as err:
        parse_formula(text)
    assert fragment in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(StlSyntaxError) as err:
        parse_formula("a |\n ?")
    assert err.value.line == 2
    assert err.value.col == 2


def test_roundtrip_random_asts():
    rng = np.random.default_rng(7)
    leaves = [Predicate("p"), Predicate("q"), Literal(True), Literal(False)]
    intervals = [(0.0, 1.0), (0.5, 2.0), (1.25, math.inf), (0.0, math.inf)]
    for _ in range(300):
        f = random_formula(rng, 5, leaves, intervals)
        assert parse_formula(format_formula(f)) == f


# ---------------------------------------------------------------------------
# Semantics: worked examples
# ---------------------------------------------------------------------------


def test_bounded_band_formula_satisfaction():
    f = parse_formula("!( true U[0,2] over2 )")
    assert satisfies(f, const_signal(0.0), 0, TABLE) is True
    assert satisfies(f, const_signal(3.0), 0, TABLE) is False


def test_tautology_holds_everywhere():
    f = parse_formula("G( pred_a )")
    sig = const_signal(0.0, length=6)
    for k in range(6):
        assert satisfies(f, sig, k, TABLE)


def test_bounded_band_formula_robustness():
    f = parse_formula("!( true U[0,2] over2 )")
    assert robustness(f, const_signal(0.0), 0, TABLE) == pytest.approx(2.0)
    assert robustness(f, const_signal(3.0), 0, TABLE) == pytest.approx(-1.0)


def test_negation_flips_robustness_exactly():
    rng = np.random.default_rng(11)
    leaves = [Predicate("p"), Predicate("q"), Literal(True)]
    intervals = [(0.0, 1.0), (0.0, math.inf)]
    for _ in range(50):
        f = random_formula(rng, 3, leaves, intervals)
        sig = Signal(rng.uniform(-3, 3, size=(int(rng.integers(1, 9)), 2)), dt=0.5)
        expected = -brute_robustness(f, sig.states, sig.dt, 0, FNS)
        assert robustness(Not(f), sig, 0, TABLE) == expected


def test_until_window_monotone_in_upper_bound():
    rng = np.random.default_rng(23)
    for _ in range(60):
        sig = Signal(rng.uniform(-3, 3, size=(10, 2)), dt=0.5)
        a = float(rng.choice([0.0, 0.5, 1.0]))
        b1 = a + float(rng.choice([0.0, 0.5, 1.0]))
        b2 = b1 + float(rng.choice([0.5, 1.0, math.inf]))
        f1 = Until(Literal(True), Predicate("p"), a, b1)
        f2 = Until(Literal(True), Predicate("p"), a, b2)
        assert robustness(f2, sig, 0, TABLE) >= robustness(f1, sig, 0, TABLE)


def test_window_truncates_at_signal_end():
    # G over a window reaching past the end only constrains available steps.
    sig = Signal(np.array([[2.0], [2.0], [-1.0]]), dt=1.0)
    g = parse_formula("G[0,10] pos")
    table = PredicateTable({"pos": lambda s: s[..., 0]})
    assert robustness(g, sig, 0, table) == -1.0
    assert satisfies(g, sig, 0, table) is False
    assert robustness(g, sig, 1, table) == -1.0
    assert robustness(parse_formula("G[0,1e12] pos"), sig, 0, table) == -1.0
    # Entirely past the end: vacuous.
    f = parse_formula("F[5,10] pos")
    assert satisfies(f, sig, 0, table) is False
    assert robustness(f, sig, 0, table) == -math.inf
    g2 = parse_formula("G[5,10] pos")
    assert satisfies(g2, sig, 0, table) is True
    assert robustness(g2, sig, 0, table) == math.inf


def test_window_fully_past_end_on_short_signal():
    # regression: the prefix sweep must not index past the signal when the
    # whole window lies beyond the final sample
    sig = Signal(np.array([[3.0], [0.0]]), dt=0.5)
    f = parse_formula("p U[2,4] p")
    assert satisfies(f, sig, 0, TABLE) is False
    assert robustness(f, sig, 0, TABLE) == -math.inf
    g = parse_formula("!(q U[1.5,2] q)")
    assert satisfies(g, sig, 1, TABLE) is True
    assert robustness(g, sig, 1, TABLE) == math.inf


def test_zero_predicate_value_counts_as_satisfied():
    fns = {"z": lambda s: 0.0, "e": lambda s: -1.0}
    table = PredicateTable(fns)
    sig = const_signal(1.0, length=2)
    f = parse_formula("z")
    assert satisfies(f, sig, 0, table) is True
    assert robustness(f, sig, 0, table) == 0.0
    # at a robustness of 0 the formula holds, so its negation must fail, and
    # with "z" as a guard, as the safety contract's "near", "e" is required
    for text in ("!z", "G( z => e )", "G( (z & z) => e )", "F[0,1] !z"):
        f = parse_formula(text)
        expected = brute_satisfies(f, sig.states, sig.dt, 0, fns)
        assert expected is False
        assert satisfies(f, sig, 0, table) is expected


def test_nan_predicate_raises_in_either_operand_order():
    table = PredicateTable({"p": lambda s: math.nan, "q": lambda s: 1.0})
    sig = const_signal(0.0, length=4)
    for text in ("p | q", "q | p", "F[1,2] p", "G( q & p )"):
        f = parse_formula(text)
        for evaluate in (satisfies, robustness):
            with pytest.raises(StlError, match=r"'p'.*step"):
                evaluate(f, sig, 0, table)


def test_window_rounding_at_non_representable_dt():
    # dt = 0.033 is not representable in binary; 0.693 / 0.033 and
    # 0.825 / 0.033 fall just below 21 and 25, 8.085 / 0.033 just above 245.
    # The value of "row" is the step index, so F gives the window's last
    # offset and G its first.
    table = PredicateTable({"row": lambda s: s[..., 0]})
    sig = Signal(np.arange(300.0)[:, None], dt=0.033)
    for a, b, first, last in [
        ("0.066", "0.099", 2, 3),
        ("0.693", "0.825", 21, 25),
        ("8.085", "8.085", 245, 245),
    ]:
        assert robustness(parse_formula(f"F[{a},{b}] row"), sig, 0, table) == last
        assert robustness(parse_formula(f"G[{a},{b}] row"), sig, 0, table) == first


def test_bounded_formula_evaluates_only_the_rows_its_windows_reach():
    seen = []

    def counting(name):
        def fn(s):
            seen.extend((name, int(v)) for v in s[:, 0])
            return 1.0

        return fn

    table = PredicateTable({"p": counting("p"), "q": counting("q")})
    sig = Signal(np.arange(1000.0)[:, None], dt=1.0)
    k = 400
    robustness(parse_formula("G[0,3] p | F[1,5] q"), sig, k, table)
    assert sorted(seen) == [("p", i) for i in range(k, k + 4)] + [
        ("q", i) for i in range(k + 1, k + 6)
    ]


def test_predicate_of_wrong_shape_raises():
    sig = Signal(np.zeros((5, 2)), dt=1.0)
    for fn in (lambda s: s[0], lambda s: s, lambda s: s[:-1, 0]):
        table = PredicateTable({"bad": fn})
        for evaluate in (satisfies, robustness):
            with pytest.raises(StlError, match="'bad'"):
                evaluate(parse_formula("G[0,4] bad"), sig, 0, table)


def test_scalar_predicate_broadcasts_to_every_row():
    seen = []

    def const(s):
        seen.append(s.shape)
        return 0.5

    table = PredicateTable({"c": const, "p": FNS["p"]})
    sig = Signal(np.arange(6.0)[:, None], dt=1.0)
    assert robustness(parse_formula("G[0,4] (c | p)"), sig, 0, table) == 0.5
    assert robustness(parse_formula("G[0,4] (c & p)"), sig, 0, table) == -1.0
    assert satisfies(parse_formula("G[1,5] (c & p)"), sig, 0, table) is True
    assert seen == [(5, 1), (5, 1), (5, 1)]


def test_unresolved_predicate_raises():
    f = parse_formula("nosuch")
    with pytest.raises(UnknownPredicateError):
        satisfies(f, const_signal(0.0), 0, TABLE)
    with pytest.raises(UnknownPredicateError):
        robustness(f, const_signal(0.0), 0, TABLE)


def test_index_out_of_range():
    f = parse_formula("p")
    with pytest.raises(IndexError):
        satisfies(f, const_signal(0.0, length=3), 3, TABLE)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.zeros((0, 2)), dt=1.0)
    with pytest.raises(ValueError):
        Signal(np.zeros((3, 2)), dt=0.0)
    sig = Signal(np.zeros((3, 2)), dt=1.0)
    with pytest.raises(ValueError):
        sig.states[0, 0] = 1.0


def test_interval_validation_on_nodes():
    with pytest.raises(ValueError):
        Until(Literal(True), Literal(True), 2.0, 1.0)
    with pytest.raises(ValueError):
        Eventually(Literal(True), -0.5, 1.0)
    with pytest.raises(ValueError):
        Always(Literal(True), math.inf, math.inf)


# ---------------------------------------------------------------------------
# Cross-checks against the independent evaluators (light version; the
# exhaustive sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------


def test_random_formulas_match_brute_force():
    rng = np.random.default_rng(5)
    leaves = [Predicate("p"), Predicate("q"), Literal(True), Literal(False)]
    intervals = [(0.0, 0.5), (0.0, 1.0), (0.5, 2.0), (0.0, math.inf)]
    fns = FNS
    for _ in range(400):
        f = random_formula(rng, 4, leaves, intervals)
        n = int(rng.integers(1, 11))
        sig = Signal(rng.uniform(-3, 3, size=(n, 2)), dt=float(rng.choice([0.5, 1.0])))
        for k in (0, n // 2):
            rho = robustness(f, sig, k, TABLE)
            sat = satisfies(f, sig, k, TABLE)
            assert sat == brute_satisfies(f, sig.states, sig.dt, k, fns)
            assert rho == brute_robustness(f, sig.states, sig.dt, k, fns)
            assert (rho >= 0) == sat


def test_random_formulas_with_ties_match_brute_force():
    # integer states make "p" and "q" exactly 0 on many rows
    rng = np.random.default_rng(6)
    leaves = [Predicate("p"), Predicate("q"), Literal(True), Literal(False)]
    intervals = [(0.0, 0.5), (0.0, 1.0), (0.5, 2.0), (0.0, math.inf)]
    for _ in range(400):
        f = random_formula(rng, 4, leaves, intervals)
        n = int(rng.integers(1, 11))
        sig = Signal(rng.integers(-3, 4, size=(n, 2)), dt=float(rng.choice([0.5, 1.0])))
        for k in (0, n // 2):
            rho = robustness(f, sig, k, TABLE)
            sat = satisfies(f, sig, k, TABLE)
            assert sat == brute_satisfies(f, sig.states, sig.dt, k, FNS)
            assert rho == brute_robustness(f, sig.states, sig.dt, k, FNS)
            if rho != 0:
                assert sat == (rho > 0)
