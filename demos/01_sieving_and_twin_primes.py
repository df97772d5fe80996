#!/usr/bin/env python3
"""Prime tables, twin-prime index, and the squarefree 4p-1 census.

Builds the segmented sieve, counts primes and twin primes at a few
checkpoints, and measures how often kappa = 4p - 1 is squarefree
(the fraction settles near 0.75).
"""

from twinrep import (
    build_prime_table,
    build_twin_index,
    prime_count,
    squarefree_kappa_census,
    twin_count,
)

LIMIT = 2_000_000

table = build_prime_table(LIMIT)
twins = build_twin_index(table)

print(f"prime table up to {LIMIT:,}")
print(f"twin index coverage {twins.coverage:,}, {len(twins.twins):,} twin primes")
print()
print(f"{'x':>10}  {'pi(x)':>8}  {'pi_2(x)':>8}  {'s(x)':>8}  {'s/pi':>7}")
for x in (10**3, 10**4, 10**5, 10**6):
    s, pi = squarefree_kappa_census(table, x)
    print(f"{x:>10,}  {prime_count(table, x):>8}  {twin_count(twins, x):>8}  {s:>8}  {s/pi:>7.4f}")

print()
print("first twin primes:", [int(t) for t in twins.twins[:12]])
print("is 23 a twin prime?", twins.is_twin(23), "(21 and 25 are composite)")
print("next twin prime >= 100:", twins.next_twin(100))
