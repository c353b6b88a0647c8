"""Signed evaluations of the Geode series collapse it to geometric series.

Substituting t_k -> w_k * f with the right sign patterns turns the whole
2a-variable Geode series into plain powers: the alternating pattern
(-1, +1, ..., -1, +1) gives sum a^n f^n, and the weighted pattern built from
multipliers c_1..c_a gives sum (2a c_a - c_1 - ... - c_a)^n f^n.
"""

from geodenums import (
    eval_alternating,
    eval_general,
    geode_series,
    substitute_signed,
)
from geodenums.geode import general_weights

print("=" * 72)
print("Alternating substitution G[-f, f, ..., -f, f]")
print("=" * 72)
for a in (1, 2, 3):
    values = eval_alternating(a, 6)
    print(f"a={a} (2a = {2 * a} variables): {list(values.coeffs)}")
    print(f"        expected powers a^n : {[a**n for n in range(7)]}")

print()
print("A closer look at a = 1: each Geode layer sums to 1 with signs")
g2 = geode_series(2, 5).series
for d in range(6):
    layer = [(m, c) for m, c in sorted(g2.terms.items()) if sum(m) == d]
    terms = " + ".join(f"({'-' if m[0] % 2 else ''}{c})" for m, c in layer)
    total = sum((-1) ** m[0] * c for m, c in layer)
    print(f"degree {d}: {terms} = {total}")

print()
print("=" * 72)
print("General weighted substitution")
print("=" * 72)
for a, c in [(1, (3,)), (2, (2, 3)), (2, (1, 4)), (3, (1, 1, 2))]:
    weights = general_weights(c)
    base = 2 * a * c[-1] - sum(c)
    values = eval_general(a, c, 5)
    print(f"a={a}, c={c}: weights {weights}")
    print(f"   coefficients {list(values.coeffs)} vs {base}^n = {[base**n for n in range(6)]}")

print()
print("Any other weight pattern does NOT collapse; e.g. all +1 in 2 variables:")
raw = substitute_signed(geode_series(2, 5).series, (1, 1))
print("   G[f, f] coefficients:", list(raw.coeffs))
print("   (row sums of the Geode layers, not a geometric sequence)")

print()
print("Sanity: the alternating pattern is the all-ones multiplier case:")
print("   eval_alternating(2, 5) =", list(eval_alternating(2, 5).coeffs),
      "== eval_general(2, (1, 1), 5) =", list(eval_general(2, (1, 1), 5).coeffs))
