"""Signal temporal logic over uniformly sampled signals.

The module provides an abstract syntax tree for temporal formulas, a text
parser, a printer whose output parses back to a structurally equal tree, and
one evaluator, :func:`robustness`.  Boolean satisfaction, :func:`satisfies`,
runs the same evaluator on the signs of the predicate values.

Concrete grammar (UTF-8 text), loosest to tightest binding::

    formula  := or_expr ( '=>' formula )?            right associative
    or_expr  := and_expr ( '|' and_expr )*
    and_expr := temporal ( '&' temporal )*
    temporal := unary ( 'U' interval temporal )?      right associative
    unary    := '!' unary
              | 'F' interval unary
              | 'G' interval unary
              | 'G' '(' formula ')'                   untimed always
              | atom
    atom     := 'true' | 'false' | identifier | '(' formula ')'
    interval := '[' number ',' ( number | 'inf' ) ']'

Interval bounds are nonnegative with the lower bound finite and not above
the upper one.  ``U``, ``F`` and ``G`` act as operators only when directly
followed by ``[`` (or ``(`` for the untimed always); elsewhere they are
ordinary predicate identifiers.

Predicates are named real-valued functions of the state, held in a
:class:`PredicateTable`; the robustness of a predicate is its function value,
and it holds at a state exactly when that value is >= 0.  Predicates are
column functions: each one maps a block of consecutive states, an ``(m, n)``
array, to its ``m`` values in one call, and a 0-d result stands for the same
value on every row.  Any other result shape, and a NaN value, raise
:class:`StlError`.  A function written with ``s[..., i]`` indexing, such as
``lambda s: s[..., 0] - 1.0``, works on one row and on a block alike.  A
robustness > 0 implies satisfaction and < 0 violation; at 0 ``satisfies``
decides, exact at ties.

The evaluator works bottom-up over the desugared tree and keeps one array per
node over the steps it needs: each predicate node is evaluated in one call on
the block of rows that its windows reach.  An Until whose windows all run to
the end of the signal is a running max from the end when its left operand is
the literal true (an untimed ``F`` or ``G``: one reversed
``np.maximum.accumulate``) and an O(K) backward recursion otherwise; any
other Until sweeps its window offsets vectorised over steps (after Donze et
al., *Efficient Robust Monitoring for STL*, CAV 2013).  A formula is
desugared once and the core tree is cached, keyed by the frozen formula.

Timing is discrete: a window ``[a, b]`` anchored at step ``k`` covers the
steps ``k'`` with ``a <= (k' - k) * dt <= b``, clipped to the end of the
signal.  Windows that reach past the final sample are evaluated over the
available prefix only, so missing future steps contribute nothing; a window
with no samples at all makes an Until false (robustness ``-inf``) and an
Always vacuously true (``+inf``).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Formula",
    "Literal",
    "Predicate",
    "Not",
    "Or",
    "And",
    "Implies",
    "Until",
    "Eventually",
    "Always",
    "PredicateTable",
    "Signal",
    "StlError",
    "StlSyntaxError",
    "UnknownPredicateError",
    "parse_formula",
    "format_formula",
    "desugar",
    "satisfies",
    "robustness",
]


class StlError(Exception):
    """Base class for errors raised by this module."""


class StlSyntaxError(StlError):
    """Parse failure, annotated with the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownPredicateError(StlError):
    """A formula references a predicate name the table does not resolve."""


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


def _check_interval(a: float, b: float) -> None:
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval bounds must not be NaN")
    if math.isinf(a):
        raise ValueError("lower interval bound must be finite")
    if a < 0 or b < 0:
        raise ValueError(f"interval bounds must be nonnegative, got [{a}, {b}]")
    if a > b:
        raise ValueError(f"empty interval: [{a}, {b}]")


@dataclass(frozen=True)
class Literal:
    value: bool


@dataclass(frozen=True)
class Predicate:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Until:
    left: "Formula"
    right: "Formula"
    a: float
    b: float

    def __post_init__(self):
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Eventually:
    child: "Formula"
    a: float
    b: float

    def __post_init__(self):
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Always:
    child: "Formula"
    a: float
    b: float

    def __post_init__(self):
        _check_interval(self.a, self.b)


Formula = (
    Literal | Predicate | Not | Or | And | Implies | Until | Eventually | Always
)

_ATOMS = (Literal, Predicate)


def desugar(formula: Formula) -> Formula:
    """Rewrite derived operators into the core fragment.

    ``p & q   -> !(!p | !q)``
    ``p => q  -> !p | q``
    ``F[a,b] p -> true U[a,b] p``
    ``G[a,b] p -> !(true U[a,b] !p)``
    """
    f = formula
    if isinstance(f, _ATOMS):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.child))
    if isinstance(f, Or):
        return Or(desugar(f.left), desugar(f.right))
    if isinstance(f, And):
        return Not(Or(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Implies):
        return Or(Not(desugar(f.left)), desugar(f.right))
    if isinstance(f, Until):
        return Until(desugar(f.left), desugar(f.right), f.a, f.b)
    if isinstance(f, Eventually):
        return Until(Literal(True), desugar(f.child), f.a, f.b)
    if isinstance(f, Always):
        return Not(Until(Literal(True), Not(desugar(f.child)), f.a, f.b))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Predicate table and signals
# ---------------------------------------------------------------------------


class PredicateTable:
    """Mapping from predicate names to column functions.

    A function takes a block of states, an ``(m, n)`` array whose rows are
    consecutive signal samples, and returns the ``m`` predicate values, one
    per row.  A 0-d result is a constant for every row.

    The evaluator calls every predicate node on every row its windows reach,
    whatever the other operands hold, so a NaN anywhere there raises.  The
    functions of one table may share work on a block, such as the
    trigonometry of a common column, when they key it on the block's
    contents, never on an array's address (see
    :func:`saferl.evasion.safety_predicates`).
    """

    def __init__(self, functions: Mapping[str, Callable]):
        self._functions: dict[str, Callable] = dict(functions)

    def evaluate(self, name: str, states: np.ndarray) -> np.ndarray:
        """Values of predicate ``name`` on each row of the block ``states``."""
        try:
            fn = self._functions[name]
        except KeyError:
            raise UnknownPredicateError(f"unresolved predicate {name!r}") from None
        m = states.shape[0]
        values = np.asarray(fn(states), dtype=float)
        if values.ndim == 0:
            return np.full(m, float(values))
        if values.shape != (m,):
            raise StlError(
                f"predicate {name!r} returned shape {values.shape} for {m} rows; "
                f"expected ({m},) or a scalar"
            )
        return values


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled trajectory: row ``k`` is the state at time ``k*dt``."""

    states: np.ndarray
    dt: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("states must be a nonempty (K+1, n) array")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "dt", float(self.dt))

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def last_index(self) -> int:
        return self.states.shape[0] - 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>=>)
  | (?P<punct>[!&|()\[\],])
  | (?P<minus>-)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | arrow | punct | minus | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise StlSyntaxError(f"unknown operator or character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise StlSyntaxError(f"expected {text!r}, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> StlSyntaxError:
        tok = self.peek()
        return StlSyntaxError(message, tok.line, tok.col)

    # grammar rules, loosest binding first

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek().kind == "arrow":
            self.advance()
            return Implies(left, self.formula())
        return left

    def or_expr(self) -> Formula:
        node = self.and_expr()
        while self.peek().text == "|":
            self.advance()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> Formula:
        node = self.temporal()
        while self.peek().text == "&":
            self.advance()
            node = And(node, self.temporal())
        return node

    def temporal(self) -> Formula:
        node = self.unary()
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "U" and self.peek(1).text == "[":
            self.advance()
            a, b = self.interval()
            return Until(node, self.temporal(), a, b)
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.advance()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text == "F" and self.peek(1).text == "[":
            self.advance()
            a, b = self.interval()
            return Eventually(self.unary(), a, b)
        if tok.kind == "ident" and tok.text == "G":
            if self.peek(1).text == "[":
                self.advance()
                a, b = self.interval()
                return Always(self.unary(), a, b)
            if self.peek(1).text == "(":
                self.advance()
                self.expect("(")
                child = self.formula()
                self.expect(")")
                return Always(child, 0.0, math.inf)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            node = self.formula()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return Literal(True)
            if tok.text == "false":
                return Literal(False)
            return Predicate(tok.text)
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise self.fail(f"expected a formula, found {shown!r}")

    def interval(self) -> tuple[float, float]:
        open_tok = self.expect("[")
        a = self.bound(allow_inf=False)
        self.expect(",")
        b = self.bound(allow_inf=True)
        self.expect("]")
        if a > b:
            raise StlSyntaxError(
                f"malformed interval: [{a:g}, {b:g}] is empty", open_tok.line, open_tok.col
            )
        return a, b

    def bound(self, allow_inf: bool) -> float:
        tok = self.peek()
        if tok.kind == "minus":
            raise StlSyntaxError("malformed interval: negative bound", tok.line, tok.col)
        if tok.kind == "ident" and tok.text == "inf":
            if not allow_inf:
                raise StlSyntaxError(
                    "malformed interval: lower bound must be finite", tok.line, tok.col
                )
            self.advance()
            return math.inf
        if tok.kind == "number":
            self.advance()
            return float(tok.text)
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise StlSyntaxError(f"expected interval bound, found {shown!r}", tok.line, tok.col)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    Raises :class:`StlSyntaxError` with position information on malformed
    input, including empty or negative intervals.
    """
    parser = _Parser(text)
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise StlSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _fmt_bound(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _wrap(f: Formula) -> str:
    s = format_formula(f)
    return s if isinstance(f, _ATOMS) else f"({s})"


def format_formula(f: Formula) -> str:
    """Render a formula so that ``parse_formula(format_formula(f)) == f``."""
    if isinstance(f, Literal):
        return "true" if f.value else "false"
    if isinstance(f, Predicate):
        return f.name
    if isinstance(f, Not):
        return f"!{_wrap(f.child)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left)} | {_wrap(f.right)}"
    if isinstance(f, And):
        return f"{_wrap(f.left)} & {_wrap(f.right)}"
    if isinstance(f, Implies):
        return f"{_wrap(f.left)} => {_wrap(f.right)}"
    if isinstance(f, Until):
        return f"{_wrap(f.left)} U[{_fmt_bound(f.a)},{_fmt_bound(f.b)}] {_wrap(f.right)}"
    if isinstance(f, Eventually):
        return f"F[{_fmt_bound(f.a)},{_fmt_bound(f.b)}] {_wrap(f.child)}"
    if isinstance(f, Always):
        if f.a == 0.0 and math.isinf(f.b):
            return f"G( {format_formula(f.child)} )"
        return f"G[{_fmt_bound(f.a)},{_fmt_bound(f.b)}] {_wrap(f.child)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

_WINDOW_EPS = 1e-9


def satisfies(formula: Formula, signal: Signal, k: int, table: PredicateTable) -> bool:
    """Boolean satisfaction of ``formula`` at step ``k``: robustness > 0 with each
    predicate value replaced by its sign (+1 where >= 0, else -1), so no tie."""
    return _evaluate(formula, signal, k, table, boolean=True) > 0.0


def robustness(formula: Formula, signal: Signal, k: int, table: PredicateTable) -> float:
    """Quantitative robustness of ``formula`` at step ``k``.

    Max/min semantics: the value of a predicate is its function value, a
    negation flips the sign, a disjunction takes the max, and
    ``p U[a,b] q`` at ``k`` is the max over window steps ``k'`` of
    ``min(rho(q, k'), min_{k <= k'' < k'} rho(p, k''))``.  Predicates are
    evaluated only on the steps that the windows reach from ``k``; a predicate
    that returns NaN raises :class:`StlError`.
    """
    return _evaluate(formula, signal, k, table, boolean=False)


def _evaluate(
    formula: Formula, signal: Signal, k: int, table: PredicateTable, boolean: bool
) -> float:
    if not 0 <= k <= signal.last_index:
        raise IndexError(f"step index {k} outside signal of length {len(signal)}")
    return float(_rho(_core(formula), signal, table, k, k, boolean)[0])


@functools.lru_cache(maxsize=64)
def _core(formula: Formula) -> Formula:
    """:func:`desugar` of ``formula``, once per distinct formula (formulas
    are frozen dataclasses, equal and hashed by their fields)."""
    return desugar(formula)


def _rho(
    f: Formula, signal: Signal, table: PredicateTable, lo: int, hi: int, boolean: bool
) -> np.ndarray:
    """Robustness of the core formula ``f`` at each step ``lo..hi`` (``hi <= last``);
    with ``boolean`` each predicate value is replaced by its sign, +1 or -1."""
    if isinstance(f, Literal):
        return np.full(hi - lo + 1, math.inf if f.value else -math.inf)
    if isinstance(f, Predicate):
        values = table.evaluate(f.name, signal.states[lo : hi + 1])
        nan = np.flatnonzero(np.isnan(values))
        if nan.size:
            raise StlError(f"predicate {f.name!r} is NaN at step {lo + int(nan[0])}")
        return np.where(values >= 0.0, 1.0, -1.0) if boolean else values
    if isinstance(f, Not):
        return -_rho(f.child, signal, table, lo, hi, boolean)
    if isinstance(f, Or):
        return np.maximum(
            _rho(f.left, signal, table, lo, hi, boolean),
            _rho(f.right, signal, table, lo, hi, boolean),
        )
    return _until(f, signal, table, lo, hi, boolean)


def _until(
    f: Until, signal: Signal, table: PredicateTable, lo: int, hi: int, boolean: bool
) -> np.ndarray:
    """``f.left U[a,b] f.right`` at each step ``lo..hi``.

    Step ``i`` looks at the steps ``i + first .. i + span`` up to the end of
    the signal, with ``first = ceil(a/dt - eps)`` and ``span = floor(b/dt +
    eps)`` so that bounds within ``eps`` of a multiple of ``dt`` count as on
    it.  Steps whose window is empty get ``-inf`` and pull no rows into the
    children; the others pull ``right`` on ``[lo+first, reach]`` and ``left``
    on ``[lo, reach-1]``.

    Three paths, one semantics.  When every window runs to the end of the
    signal and ``left`` is the literal true (every untimed ``F`` and ``G``
    after desugaring), the result is a reversed ``np.maximum.accumulate`` of
    ``right``; max does not round, so it is exact.  With any other ``left``
    such windows take an O(K) backward recursion in Python, and windows that
    stop short of the end sweep their offsets vectorised over steps.
    """
    last = signal.last_index
    first = max(math.ceil(f.a / signal.dt - _WINDOW_EPS), 0)
    span = last if math.isinf(f.b) else math.floor(f.b / signal.dt + _WINDOW_EPS)
    out = np.full(hi - lo + 1, -math.inf)
    top = min(hi, last - first)  # last step with a nonempty window
    if first > span or top < lo:
        return out
    n = top - lo + 1
    reach = min(last, top + span)
    q = _rho(f.right, signal, table, lo + first, reach, boolean)
    to_end = lo + span >= last
    if to_end and isinstance(f.left, Literal) and f.left.value:
        # an untimed F or G: with p = +inf the recursion below is the running
        # max of q from the end.  numpy's maximum returns its second operand,
        # q[j], on a tie, as max(q[j], u[j+1]) does, so the bits agree.
        out[:n] = np.maximum.accumulate(q[::-1])[::-1][:n]
        return out
    p = _rho(f.left, signal, table, lo, reach - 1 if span > 0 else lo - 1, boolean)
    if to_end:
        # every window runs to the end of the signal, so an O(K) backward
        # recursion gives the until from step lo+first+j without offsets:
        # u[j] = max(q[j], min(p[j], u[j+1])).  The sweep below would take
        # O(K^2) here when a nested untimed operator asks for all K steps.
        u = q.tolist()
        left = p[first:].tolist()
        for j in range(len(u) - 2, -1, -1):
            u[j] = max(u[j], min(left[j], u[j + 1]))
        best = np.array(u[:n])
        for off in range(first):
            best = np.minimum(best, p[off : off + n])
    else:
        # sweep the window offsets (fewer than the signal's rows), vectorised
        # over steps; rows past the reached range read -inf and contribute nothing
        qs = np.full(n + span, -math.inf)
        qs[first : first + q.size] = q
        ps = np.full(n + span, -math.inf)
        ps[: p.size] = p
        best = np.full(n, -math.inf)
        prefix = np.full(n, math.inf)
        for off in range(span + 1):
            if off >= first:
                best = np.maximum(best, np.minimum(qs[off : off + n], prefix))
            prefix = np.minimum(prefix, ps[off : off + n])
    out[:n] = best
    return out
