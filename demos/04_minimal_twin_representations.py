#!/usr/bin/env python3
"""The minimal twin-prime map q -> (p_q, n_q) and its statistics.

Every prime q >= 5 up to the millionth prime decomposes as
q = p + n(n+1) with p a twin prime; the scan takes the smallest such
p.  The growth table shows why the two claimed growth observations
belong to the *smallest-n* variant instead: under the minimal-p map,
p_q = 3 recurs forever (whenever n(n+1) + 3 is prime), so
min p_q / q^(1/3) sinks toward zero, and eleven small q even escape
the claimed dichotomy "p_q >= q/2 or n_q >= sqrt(q/2)".
"""

from twinrep import (
    Mode,
    build_prime_table,
    find_min_n_twin_representation,
    find_min_twin_representation,
    verify_range,
)
from twinrep.represent import growth_columns

LIMIT = 15_485_863  # the millionth prime

table = build_prime_table(LIMIT)

print("small examples (minimal p):")
for q in (5, 11, 13, 59, 113, 997):
    r = find_min_twin_representation(q, table)
    print(f"  q={q:>4}: p_q={r.p:>4}, n_q={r.n:>3}   "
          f"check: {r.p} + {r.n}*{r.n + 1} = {r.p + r.n * (r.n + 1)}")

report = verify_range(5, LIMIT, Mode.TWIN_MIN, table)
print()
print(f"verified {report.checked:,} primes, failures: {len(report.failures)}")
digest = report.summary
print(f"min p_q/q^(1/3) = {digest.min_ratio:.6f} at q={digest.min_ratio_q:,}")
print(f"max n_q/log(q)  = {digest.max_nlog:.4f} at q={digest.max_nlog_q:,}")
print(f"order lemma violations: {digest.same_n_order_violations}, "
      f"sqrt bound violations: {digest.sqrt_bound_violations}")
print(f"dichotomy exceptions ({digest.dichotomy_violations}): {digest.dichotomy_examples}")

print()
print("bucketed growth (minimal-p map):")
# the first 100,000 q, read from the report's arrays (no Representation objects)
first = slice(0, 100_000)
columns = growth_columns(report.qs[first], report.ps[first], report.ns[first], bucket=300_000)
print(f"{'bucket':>10} {'count':>7} {'max n':>6} {'min p':>6} {'min p/q^(1/3)':>14} {'max n/log q':>12}")
for q_bucket, count, max_n, min_p, ratio, nlog in zip(*(col[:5].tolist() for col in columns)):
    print(f"{q_bucket:>10,} {count:>7} {max_n:>6} {min_p:>6} {ratio:>14.4f} {nlog:>12.4f}")

print()
print("minimal-p vs smallest-n conventions:")
print(f"{'q':>8} {'min-p (p, n)':>16} {'min-n (p, n)':>16}")
for q in (997, 10007, 100003, 1000003):
    a = find_min_twin_representation(q, table)
    b = find_min_n_twin_representation(q, table)
    print(f"{q:>8} {str((a.p, a.n)):>16} {str((b.p, b.n)):>16}")
print("the smallest-n variant keeps p close to q, which is the regime where")
print("p > q^(1/3) and n ~ log q hold; the minimal-p map does not obey them")
