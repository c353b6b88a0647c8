"""The Geode factorization S - 1 = (t_1 + ... + t_r) * G.

S - 1 is exactly divisible by the sum of the variables; the quotient G is
the Geode series.  This demo extracts the quotient (the series solver,
seeded for G, gives it with no division), prints the Geode layers,
re-multiplies it against S, and checks the closed forms for its
coefficients against the quotient: the two-variable form, which is the
adjacent-slot form at a = 2, the adjacent-slot form and the form for any
two nonzero slots.
"""

from geodenums import (
    geode_closed_shifted,
    geode_closed_two_nonzero,
    geode_recurrence_check,
    geode_series,
    hyper_catalan,
    iter_exponents,
)

print("=" * 72)
print("Dividing S - 1 by t1 + t2")
print("=" * 72)
table = geode_series(2, 5)
g = table.series
for d in range(4):
    layer = [(m, g.terms.get(m, 0)) for m in iter_exponents(2, d)]
    rendered = " + ".join(f"{c}*t1^{m1}*t2^{m2}" for (m1, m2), c in layer)
    print(f"G degree {d}: {rendered}")

print()
print("re-multiplied (t1+t2)*G == S - 1:", table.factorization_holds())

print()
print("=" * 72)
print("Closed form for two variables")
print("=" * 72)
print(f"{'(m1,m2)':>10} {'closed':>8} {'quotient':>9}")
for m in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 3)]:
    print(f"{str(m):>10} {geode_closed_shifted(2, *m):>8} {table.coefficient(m):>9}")

print()
print("=" * 72)
print("Closed form for two adjacent nonzero slots (a-2 leading zeros)")
print("=" * 72)
table4 = geode_series(4, 5)
for a, p, q in [(2, 1, 1), (3, 2, 0), (3, 1, 2), (4, 0, 2)]:
    exps = [0] * 4
    exps[a - 2] = p
    exps[a - 1] = q
    print(f"a={a}, exponents {tuple(exps)}: closed {geode_closed_shifted(a, p, q):>6}, "
          f"quotient {table4.coefficient(exps):>6}")

print()
print("=" * 72)
print("Closed form for any two nonzero slots s < t")
print("=" * 72)
for s_, t_, n, i in [(1, 2, 3, 1), (2, 3, 2, 1), (1, 3, 4, 2), (2, 4, 3, 0)]:
    exps = [0] * 4
    exps[s_ - 1] = n - 1 - i
    exps[t_ - 1] = i
    print(f"slots ({s_},{t_}), exponents {tuple(exps)}: "
          f"closed {geode_closed_two_nonzero(s_, t_, n, i):>6}, "
          f"quotient {table4.coefficient(exps):>6}")

print()
print("=" * 72)
print("The coefficient recurrence sum_k G[m - e_k] = C[m]")
print("=" * 72)
for m in [(1, 1), (2, 1), (3, 2)]:
    parts = [table.coefficient((m[0] - 1, m[1]))] if m[0] else []
    if m[1]:
        parts.append(table.coefficient((m[0], m[1] - 1)))
    print(f"m={m}: {' + '.join(map(str, parts))} = {sum(parts)}"
          f" vs C[m] = {hyper_catalan(m)}  ->",
          "ok" if geode_recurrence_check(table, m) else "BROKEN")
