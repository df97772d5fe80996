#!/usr/bin/env python3
"""Averaged squared residual of psi_p(x) against its predicted main term.

For each prime p with kappa = 4p - 1 <= y squarefree, psi_p(x) sums
the von Mangoldt function over n^2 + n + p, n <= x.  The averaged
squared distance to S(kappa) * x/2, normalized by y * x^2, decays as
x grows with y = x^2.  The S * x normalization used for the n^2 + k
analogue is shown alongside for comparison.
"""

import time

from twinrep import build_prime_table, variance_sum

table = build_prime_table(300_000)
CUTOFF = 10**4

print(f"{'x':>6} {'y':>9} {'terms':>6} {'ratio (S*x/2)':>14} {'ratio (S*x)':>12} {'secs':>6}")
for x in (100, 200, 400, 800):
    y = x * x
    t0 = time.time()
    half = variance_sum(x, y, CUTOFF, table)
    full = variance_sum(x, y, CUTOFF, table, baier_zhao=True)
    print(f"{x:>6} {y:>9} {half.term_count:>6} {half.ratio:>14.6f} "
          f"{full.ratio:>12.6f} {time.time() - t0:>6.1f}")

print()
print("a few per-kappa residuals at x = 200:")
terms = variance_sum(200, 40_000, CUTOFF, table).terms
print(f"{'p':>6} {'kappa':>6} {'psi_p(x)':>10} {'S trunc':>9} {'main':>9} {'residual':>10}")
for p, kappa, psi_p, s, main, residual, _ in zip(*(col[:8].tolist() for col in terms)):
    print(f"{p:>6} {kappa:>6} {psi_p:>10.3f} {s:>9.5f} {main:>9.3f} {residual:>10.3f}")
print("(p = 2 is the standing outlier: n^2 + n + 2 is even, so psi_2 only")
print(" sees powers of two while the main term stays of size S * x/2)")
