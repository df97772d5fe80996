#!/usr/bin/env python3
"""Prime tables, twin-prime bits, and the squarefree 4p-1 census.

Builds the segmented sieve, counts primes and twin primes at a few
checkpoints, and measures how often kappa = 4p - 1 is squarefree
(the fraction settles near 0.75).
"""

import numpy as np

from twinrep import build_prime_table, prime_count, squarefree_kappa_census, twin_segment

LIMIT = 2_000_000

table = build_prime_table(LIMIT)
# twin bits of the odd m <= LIMIT - 2 (entry i answers m = 2i + 1), where m + 2 is covered
bits = twin_segment(0, LIMIT - 2, table.segment)
twins = np.flatnonzero(bits) * 2 + 1  # the twin primes, ascending

print(f"prime table up to {LIMIT:,}")
print()
print(f"{'x':>10}  {'pi(x)':>8}  {'pi_2(x)':>8}  {'s(x)':>8}  {'s/pi':>7}")
for x in (10**3, 10**4, 10**5, 10**6):
    s, pi = squarefree_kappa_census(table, x)
    pi2 = int(np.searchsorted(twins, x, side="right"))
    print(f"{x:>10,}  {prime_count(table, x):>8}  {pi2:>8}  {s:>8}  {s/pi:>7.4f}")

print()
print("first twin primes:", twins[:12].tolist())
print("is 23 a twin prime?", bool(bits[23 >> 1]), "(21 and 25 are composite)")
print("next twin prime >= 100:", int(twins[np.searchsorted(twins, 100)]))
