"""Calibration task: fixed work that shares no code with twinrep.

    python3 perfbench/calibrate.py

The benchmark times this process before every untraced pass and scales its
time figures by the run's calibration time, so that phases in which the
shared host runs every process slower (up to 2x on the reference VM) do not
read as changes in twinrep.  The mix mirrors the workloads: interpreter
start-up and the numpy import, a strided numpy sieve, a pure-Python Jacobi
symbol loop, and a numpy sort.  It prints a checksum so the work cannot be
skipped.
"""

import math

import numpy as np


def main() -> int:
    limit = 6_000_000
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    checksum = 0
    for n in np.flatnonzero(flags)[1:60_001].tolist():  # odd primes
        a, result = 12345 % n, 1
        while a:
            while a % 2 == 0:
                a //= 2
                if n % 8 in (3, 5):
                    result = -result
            a, n = n, a
            if a % 4 == 3 and n % 4 == 3:
                result = -result
            a %= n
        checksum += result if n == 1 else 0
    values = np.random.default_rng(0).integers(0, 1 << 40, 2_000_000)
    checksum += int(np.sort(values)[1_000_000] % 1000)
    print(checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
