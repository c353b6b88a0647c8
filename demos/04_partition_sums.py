"""Alternating sums over bounded-part partitions.

Running over all partitions of fixed length with parts at most 2a, three
alternating binomial sums collapse to powers of a.  Two of them carry a free
integer shift x: they are polynomials in x of degree below n, so agreeing at
n or more points certifies them as polynomial identities.  The sums
enumerate no partition: by the multinomial theorem, the multinomial weight of
all partitions of length L and size s is the z^s coefficient of
(z + z^2 + ... + z^(2a))^L.  A constant-term extraction from a Laurent
polynomial reproduces the same values by a second route; the "enumeration"
column of the last table is the first route.
"""

from math import factorial, prod

from geodenums import (
    claim1_sum,
    claim2_ct,
    claim2_sum,
    iter_exponents,
    partition_sum_main,
)

print("=" * 72)
print("Partitions of length 3 with parts <= 2, by multiplicity vector")
print("=" * 72)
for mult in iter_exponents(2, 3):
    partition = []
    for part, count in enumerate(mult, start=1):
        partition.extend([part] * count)
    size = sum(part * count for part, count in enumerate(mult, start=1))
    print(f"mult {mult}: partition {tuple(reversed(partition))}, "
          f"size {size}, length {sum(mult)}, "
          f"multinomial {factorial(3) // prod(factorial(e) for e in mult)}")

print()
print("=" * 72)
print("Main sum -> a^(n-1)")
print("=" * 72)
print(f"{'n':>3} {'a':>3} {'sum':>10} {'a^(n-1)':>10}")
for n in (1, 3, 5, 7):
    for a in (1, 2, 3):
        print(f"{n:>3} {a:>3} {partition_sum_main(n, a):>10} {a ** (n - 1):>10}")

print()
print("=" * 72)
print("Shifted sums at many integer points x")
print("=" * 72)
n, a = 5, 2
xs = list(range(-2, n + 1))
print(f"n={n}, a={a}")
print("x              :", xs)
print("first shifted  :", [claim1_sum(n, a, x) for x in xs], " (always 0)")
print("second shifted :", [claim2_sum(n, a, x) for x in xs], f" (always {a**(n-1)})")
print(f"both are polynomials in x of degree <= {n - 1}; vanishing/constancy at")
print(f"{len(xs)} >= {n} points certifies the identity for the indeterminate x.")

print()
print("=" * 72)
print("Constant-term route (no partition enumeration at all)")
print("=" * 72)
print(f"{'n':>3} {'a':>3} {'x':>3} {'enumeration':>12} {'constant term':>14}")
for n in (2, 4, 6):
    for a in (1, 2):
        for x in (0, n):
            print(f"{n:>3} {a:>3} {x:>3} {claim2_sum(n, a, x):>12} {claim2_ct(n, a, x):>14}")
