"""Exact evaluation of the quadratic exponential sum Sigma(q).

For a prime p with kappa = 4p - 1, Sigma(q) is the double sum over odd
r <= 4q and residues a coprime to q of e(-a (kappa + r^2) / (4q)).
Substituting r = 2n + 1 collapses it to exact integer arithmetic:

    Sigma(q) = 2 * sum_{n=0}^{q-1} c_q(p + n^2 + n)

with c_q the Ramanujan sum.  That integer path is the canonical
evaluation here; the floating-point double sum is kept only as an
independent cross-check.  For odd squarefree q the value collapses
further to 2*q*(jacobi symbol of -kappa over q).

Caution for even q: the claimed vanishing Sigma(2q) = 0 does not hold.
Direct evaluation gives Sigma(2) = -4 for every odd p (and +4 for
p = 2), and with 2*Sigma(q1*q2) = Sigma(q1)*Sigma(q2) this propagates
to Sigma(2m) = -2*Sigma(m) for odd m.  See tests for the numerics.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arithmetic import _factorize, is_prime_64, is_squarefree, jacobi


def _require_prime(p: int) -> None:
    if not is_prime_64(p):
        raise ValueError(f"p must be prime, got {p}")


def sigma_bruteforce(q: int, p: int) -> int:
    """Sigma(q) as an exact integer; O(q) Ramanujan-sum terms, no floats.

    The one-p case of the grid-row evaluation _bruteforce_row.
    """
    _require_prime(p)
    return int(_bruteforce_row(q, [p])[0])


# bound on the (p, n) cells one gather of a grid row handles
_ROW_CELLS = 1 << 20


def _bruteforce_row(q: int, ps: list[int]) -> np.ndarray:
    """Sigma(q) for every p in ps, each a prime, exact int64.

    The Ramanujan sums c_q(m), m = 0..q-1, are built once for q
    (_ramanujan_row) and read twice over, so each (p, n) cell costs one
    addition and one lookup: c_q(p + n^2 + n) is entry
    (p mod q) + (n^2 + n mod q), below 2q, of the doubled row.
    """
    if q < 1:
        raise ValueError(f"sigma_bruteforce requires q >= 1, got {q}")
    row = _ramanujan_row(q)
    doubled = np.concatenate((row, row))
    n = np.arange(q, dtype=np.int64)
    shifts = (n * n + n) % q
    p_mod_q = np.array([p % q for p in ps], dtype=np.int64)
    sums = np.empty(len(ps), dtype=np.int64)
    step = max(1, _ROW_CELLS // q)
    for i in range(0, len(ps), step):
        sums[i : i + step] = doubled[shifts + p_mod_q[i : i + step, None]].sum(axis=1)
    return 2 * sums


def _ramanujan_row(q: int) -> np.ndarray:
    """c_q(m) for m = 0..q-1, exact int64.

    c_q(m) is the sum of d * mu(q/d) over the d dividing both q and m, so
    the row is built by adding d * mu(q/d) to every d-th entry, for each d
    with q/d squarefree: one per subset of q's prime factors.
    """
    row = np.zeros(q, dtype=np.int64)
    cofactors = [(1, 1)]  # squarefree e | q, with mu(e)
    for r in _factorize(q):
        cofactors += [(e * r, -mu) for e, mu in cofactors]
    for e, mu in cofactors:
        row[:: q // e] += mu * (q // e)
    return row


@lru_cache(maxsize=4096)
def _r_square_profile(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units of q, W) with W[j] = sum over odd r <= 4q of e(-a_j r^2 / 4q).

    Phases are reduced mod 4q in exact integers before exponentiation,
    so each term carries only one rounding.  Cached per q because the
    profile is independent of kappa.
    """
    m4 = 4 * q
    a = np.arange(1, q + 1, dtype=np.int64)
    units = a[np.gcd(a, q) == 1]
    r = np.arange(1, m4 + 1, 2, dtype=np.int64)
    r2 = (r * r) % m4
    phases = (units[:, None] * r2[None, :]) % m4
    w = np.exp((-2j * np.pi / m4) * phases).sum(axis=1)
    return units, w


def sigma_complex_check(q: int, p: int, return_imag: bool = False):
    """Sigma(q) by the direct floating double sum over odd r and units a.

    Returns the real part; with return_imag=True also returns the
    magnitude of the imaginary part as a diagnostic (it should vanish).
    Intended for q up to a couple thousand.
    """
    if q < 1:
        raise ValueError(f"sigma_complex_check requires q >= 1, got {q}")
    _require_prime(p)
    kappa = 4 * p - 1
    m4 = 4 * q
    units, w = _r_square_profile(q)
    kphase = (units * (kappa % m4)) % m4
    total = complex((np.exp((-2j * np.pi / m4) * kphase) * w).sum())
    if return_imag:
        return total.real, abs(total.imag)
    return total.real


def sigma_closed(q: int, p: int) -> int:
    """Closed form for squarefree q: 0 for even q, else 2q * (-kappa / q).

    Only claimed (and only allowed) for squarefree q; the symbol is the
    Jacobi symbol evaluated at (1 - 4p) mod q, which equals -kappa.
    Note the even branch reproduces the claimed form verbatim even
    though brute force contradicts it; see the module docstring.
    """
    if q < 1:
        raise ValueError(f"sigma_closed requires q >= 1, got {q}")
    _require_prime(p)
    if not is_squarefree(q):
        raise ValueError(f"sigma_closed is only defined for squarefree q, got {q}")
    return _closed_row(q, [p])[0]


def _closed_row(q: int, ps: list[int]) -> list[int]:
    """sigma_closed(q, p) for every p in ps; q squarefree, every p prime."""
    if q % 2 == 0:
        return [0] * len(ps)
    return [2 * q * jacobi((1 - 4 * p) % q, q) for p in ps]


def check_multiplicativity(q1: int, q2: int, p: int) -> bool:
    """Whether 2 * Sigma(q1*q2) == Sigma(q1) * Sigma(q2), exactly.

    Requires odd coprime q1, q2; both sides are exact integers.
    """
    if q1 % 2 == 0 or q2 % 2 == 0:
        raise ValueError(f"multiplicativity check needs odd factors, got {q1}, {q2}")
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"multiplicativity check needs coprime factors, got {q1}, {q2}")
    return 2 * sigma_bruteforce(q1 * q2, p) == sigma_bruteforce(q1, p) * sigma_bruteforce(q2, p)
