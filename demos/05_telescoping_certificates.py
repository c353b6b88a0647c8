"""Telescoping proofs of the alternating binomial sums, checked exactly.

Each vanishing sum sum_k F(n,k) = 0 comes with a companion H such that
F(n,k) = H(n,k+1) - H(n,k); summing over k then collapses to boundary terms.
The checkers verify the companion relation pointwise in exact integers,
so there is nothing numerical anywhere: a single wrong sign fails loudly.
"""

from fractions import Fraction

from geodenums import check_certificate_R, check_wz1, check_wz2, wz

print("=" * 72)
print("The two-variable pair at n = 4")
print("=" * 72)
n = 4
# the two-variable pair is the generalized pair at a = 2; each row is its
# numerators over k and one denominator; H = R * F
nums, den = wz._f2(2, n)
F = [Fraction(num, den) for num in nums]
rnums, rden = wz._r2(2, n)
H = [Fraction(r, rden) * f for r, f in zip(rnums, F)]
H.append(Fraction(0))  # H(n, n+1) = 0 closes the telescope
print(f"{'k':>3} {'F(4,k)':>10} {'H(4,k)':>10} {'H(4,k+1)-H(4,k)':>16}")
for k in range(n + 1):
    print(f"{k:>3} {str(F[k]):>10} {str(H[k]):>10} {str(H[k + 1] - H[k]):>16}")
print("sum of F(4,k):", sum(F))

report = check_wz1(50)
print(f"\ncheck_wz1(50): {report.passed}/{report.total} passed")

report = check_wz2(4, 30)
print(f"check_wz2(a=4, 30): {report.passed}/{report.total} passed")

print()
print("=" * 72)
print("The certificate for the quotient-layer sum")
print("=" * 72)
print("summands F^(n,m) sum to 1 over 0 <= m <= n-1; R(n,m) builds the companion.")
nums, den = wz._cert_summand(3)
summands = [Fraction(num, den) for num in nums]
print(f"n=3: summands {[str(f) for f in summands]}, sum = {sum(summands)}")
rnums, rdens = wz._cert_R(2)  # one denominator per m, for the (n - m) pole
print(f"R(2,1) = {Fraction(rnums[1], rdens[1])}")
print()
print("The companion G^ = R * F^ has a removable pole at m = n:")
print("  R(2,2) would divide by zero, F^(2,2) = 0, but the cancelled product")
print(f"  extends to G^(2,2) = {Fraction(*wz._cert_boundary(2))} (not zero!), and only that")
print("  extension lets the relation telescope at m = n - 1.")

report = check_certificate_R(40)
orientation = next(c for c in report.cases if c.id == "orientation")
print(f"\ncheck_certificate_R(40): {report.passed}/{report.total} passed")
print(f"validated orientation: {orientation.actual}")

print()
print("=" * 72)
print("Negative control: a corrupted companion must fail")
print("=" * 72)
# R(a,n,k) = -k((a-1)n+1+k) / (n(an+1)) at a = 2 with its sign flipped, which
# flips H = R * F
bad = check_wz1(
    3, r=lambda a, n: ([k * ((a - 1) * n + 1 + k) for k in range(n + 1)], n * (a * n + 1))
)
failure = bad.first_failure()
print(f"sign-flipped H: {bad.passed}/{bad.total} passed; "
      f"first failure at {failure.params}: {failure.actual}")

bad = check_certificate_R(3, boundary=lambda n: (0, 1))
print(f"zeroed certificate companion: {bad.passed}/{bad.total} passed")
