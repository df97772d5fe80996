#!/usr/bin/env python3
"""The quadratic exponential sum Sigma(q): identities and one surprise.

Sigma(q) reduces to exact integers via Ramanujan sums.  For odd
squarefree q it equals 2q times a Jacobi symbol -- verified here cell
by cell -- and satisfies 2 Sigma(q1 q2) = Sigma(q1) Sigma(q2).  The
often-claimed vanishing at even q is false, and the grid shows the
actual values: Sigma(2) = -4 for odd p, and Sigma(2m) = -2 Sigma(m).
"""

from twinrep import (
    check_multiplicativity,
    sigma_bruteforce,
    sigma_closed,
    sigma_complex_check,
)

print("odd squarefree grid (q <= 35, p <= 13): closed form vs brute force")
print(f"{'q':>4} {'p':>4} {'kappa':>6} {'brute':>7} {'closed':>7}  match")
for q in (1, 3, 5, 7, 11, 15, 21, 33, 35):
    for p in (2, 3, 5, 13):
        brute, closed = sigma_bruteforce(q, p), sigma_closed(q, p)
        print(f"{q:>4} {p:>4} {4 * p - 1:>6} {brute:>7} {closed:>7}  {brute == closed}")

print()
print("even moduli do not vanish:")
for q, p in ((2, 3), (2, 2), (6, 3), (6, 5), (10, 3)):
    exact = sigma_bruteforce(q, p)
    approx = sigma_complex_check(q, p)
    print(f"  Sigma({q}) at p={p}: integer path {exact:>4}, "
          f"complex double sum {approx:+.6f}")
print("  (Sigma(2m) = (Sigma(2)/2) Sigma(m); only Sigma(4) = 0 survives)")

print()
print("multiplicativity 2 Sigma(q1 q2) = Sigma(q1) Sigma(q2):")
for q1, q2, p in ((3, 5, 3), (3, 7, 5), (5, 9, 11), (7, 15, 2)):
    print(f"  q1={q1}, q2={q2}, p={p}: {check_multiplicativity(q1, q2, p)}")
