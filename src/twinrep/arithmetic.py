"""Exact number theory for 64-bit-scale integers.

Everything in this module is a pure function of its arguments and uses
exact integer arithmetic throughout (the only float produced is the
logarithm returned by :func:`von_mangoldt`).  These are the primitives
the rest of the package is built on: quadratic residue symbols, the
classical multiplicative functions, deterministic primality, and
prime-power detection.  All of them are scalar except one array kernel,
:func:`jacobi_many`, which evaluates the Jacobi symbol over whole int64
arrays for the singular-series and exponential-sum reports.
"""

from __future__ import annotations

import math

import numpy as np

# Trial-division screen used before the Miller-Rabin rounds.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# The first twelve primes witness compositeness for every composite below
# 3.3 * 10^24 (Sorenson-Webster), which covers the whole 64-bit range.
# A fixed witness set keeps the verdict deterministic.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, in {-1, 0, +1}.

    Negative and oversized ``a`` are reduced mod ``n`` first, so the
    symbol is well defined for arguments such as 1 - 4p.  Equals the
    Legendre symbol when ``n`` is an odd prime; ``jacobi(a, 1) == 1``
    for every ``a`` (empty product); 0 exactly when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def jacobi_many(a, n) -> np.ndarray:
    """Jacobi symbol (a/n) elementwise over int64 arrays, exact.

    ``a`` and ``n`` broadcast against each other; every ``n`` must be
    odd and >= 1, as for :func:`jacobi`, whose values this returns (as
    int64) lane for lane.  The binary algorithm (Cohen, GTM 138,
    Alg. 1.4.10) runs on all lanes at once: each round strips the twos
    of ``a`` by the exact exponent of its lowest set bit ``a & -a``,
    flips the sign when that exponent is odd and n = 3, 5 mod 8,
    applies reciprocity, and sets ``a, n = n % a, a``.  Lanes that reach
    a = 0 leave the working arrays, so a round costs only the lanes
    still live.  After the first reduction every value lies in [0, n),
    so no step can overflow.
    """
    a, n = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(n, dtype=np.int64))
    bad = (n <= 0) | (n % 2 == 0)
    if bad.any():
        raise ValueError(f"jacobi requires odd n >= 1, got n={n[bad].flat[0]}")
    shape = a.shape
    a = (a % n).ravel()
    n = n.ravel()
    out = np.empty(a.size, dtype=np.int64)
    lanes = np.arange(a.size)
    negative = np.zeros(a.size, dtype=bool)
    while lanes.size:
        done = a == 0
        if done.any():
            out[lanes[done]] = np.where(n[done] == 1, 1 - 2 * negative[done], 0)
            live = ~done
            lanes, a, n, negative = lanes[live], a[live], n[live], negative[live]
        # a & -a is a power of two below 2^63, so float64 holds it and
        # frexp's exponent (it returns 0.5 * 2^e) is exact
        twos = np.frexp(a & -a)[1] - 1
        a >>= twos
        n8 = n & 7
        negative ^= (twos & 1).astype(bool) & ((n8 == 3) | (n8 == 5))
        negative ^= (a & n & 3) == 3
        a, n = n % a, a
    return out.reshape(shape)


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # continue on a 6k+-1 wheel past the small-prime screen
    d = 49
    step = 4
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    if n == 1:
        return 1
    factors = _factorize(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    for p in _factorize(n):
        result -= result // p
    return result


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n; agrees with mobius(n) != 0."""
    if n < 1:
        raise ValueError(f"is_squarefree requires n >= 1, got {n}")
    if n % 4 == 0:
        return False
    return mobius(n) != 0


def is_prime_64(m: int) -> bool:
    """Deterministic primality verdict for 0 <= m < 2**64.

    Trial division by a few small primes followed by Miller-Rabin with
    the fixed witness set; no randomness is involved anywhere.
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m == p:
            return True
        if m % p == 0:
            return False
    d = m - 1
    r = (d & -d).bit_length() - 1  # power of two in m - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def integer_nth_root(n: int, k: int) -> int:
    """Floor k-th root of n >= 0 for k >= 1, exact for any size of n."""
    if n < 0 or k < 1:
        raise ValueError(f"integer_nth_root requires n >= 0 and k >= 1")
    if k == 1 or n == 0:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    # the float seed can be off by one in either direction
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def von_mangoldt(m: int) -> float:
    """log(r) if m = r**k for a prime r and k >= 1, else 0.0.

    Detection is primality plus exact k-th-root probing for every
    exponent with 2**k <= m, which stays cheap for arguments around
    x^2 + x + p ~ 1e18 where factoring would be wasteful.
    """
    if m < 1:
        raise ValueError(f"von_mangoldt requires m >= 1, got {m}")
    if m == 1:
        return 0.0
    if is_prime_64(m):
        return math.log(m)
    for k in range(2, m.bit_length()):
        r = integer_nth_root(m, k)
        if r < 2:
            break
        if r**k == m and is_prime_64(r):
            return math.log(r)
    return 0.0


def ramanujan_sum(q: int, m: int) -> int:
    """Exact Ramanujan sum: the integer value of sum over (a,q)=1 of e(-a m / q).

    Evaluated through the closed form mu(q/g) * phi(q) / phi(q/g) with
    g = gcd(q, m mod q); phi(q/g) divides phi(q), so the result is an
    exact integer with no rounding anywhere.
    """
    if q < 1:
        raise ValueError(f"ramanujan_sum requires q >= 1, got {q}")
    g = math.gcd(q, m % q)
    q_over_g = q // g
    mu = mobius(q_over_g)
    if mu == 0:
        return 0
    return mu * (euler_phi(q) // euler_phi(q_over_g))
