"""Temporal-logic monitoring on sampled signals.

Builds a bounded-band specification, evaluates Boolean satisfaction and
quantitative robustness on a few signals, and shows how windows truncate at
the end of a finite signal.
"""

import numpy as np

from saferl.stl import PredicateTable, Signal, format_formula, parse_formula, robustness, satisfies

# "within the next 2 seconds the magnitude never exceeds 2"
spec = parse_formula("!( true U[0,2] over2 )")
print("specification:", format_formula(spec))

# a predicate maps a block of states (one row per sample) to one value per row
table = PredicateTable({"over2": lambda s: np.abs(s[..., 0]) - 2.0})

flat = Signal(np.zeros((8, 1)), dt=1.0)
spike = Signal(np.array([[0.0], [0.5], [3.0], [0.5], [0.0]]), dt=1.0)

for name, sig in [("flat zero signal", flat), ("signal with a spike at t=2", spike)]:
    sat = satisfies(spec, sig, 0, table)
    rho = robustness(spec, sig, 0, table)
    print(f"{name}: satisfied={sat}, robustness={rho:+.2f}")

# robustness is the margin: the flat signal could drift by 2.0 before the
# specification breaks, the spike already violates it by 1.0

# evaluation at later steps: the spike leaves the 2-second window
print("spike signal at step 3:", satisfies(spec, spike, 3, table))

# windows reaching past the end of the signal constrain only available steps
tail = parse_formula("G[0,100] inside")
table2 = PredicateTable({"inside": lambda s: 1.0 - np.abs(s[..., 0])})
short = Signal(np.array([[0.2], [-0.4], [0.9]]), dt=1.0)
print("always-inside on a short signal:", robustness(tail, short, 0, table2))

# derived operators rewrite into the core fragment
derived = parse_formula("(a & b) => F[0,5] c")
print("printed form round-trips:", format_formula(derived))
assert parse_formula(format_formula(derived)) == derived
