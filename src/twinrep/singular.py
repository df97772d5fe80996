"""Truncated singular-series evaluation.

S(kappa) is the Euler product over odd primes ell of
1 - (symbol of -kappa over ell) / (ell - 1), the arithmetic constant
attached to the polynomial n^2 + n + p with kappa = 4p - 1.  The
product converges only conditionally, so the truncation point is a
mandatory, reported parameter and factors are always multiplied in
ascending ell.  The Dirichlet form of the same constant, the sum over
odd squarefree q of mu(q)/phi(q) * (symbol of (1-4p) over q), is
provided as a partial tail so the two truncations can be compared;
their gap at a finite cutoff is reported rather than asserted away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import is_prime_64, jacobi_many
from .sieve import PrimeTable, mu_phi_tables

# the tables are read-only here; caching (keyed on the table's identity)
# spares repeated rebuilds when a report sweeps many kappa at one truncation
_mu_phi_cached = lru_cache(maxsize=4)(mu_phi_tables)

__all__ = [
    "SingularValue",
    "singular_series",
    "singular_series_many",
    "singular_series_many_scratch",
    "tail_partial",
    "dirichlet_series_partial",
]


@dataclass(frozen=True)
class SingularValue:
    """Truncated Euler product for one kappa.

    cutoff holds the largest odd prime actually included, and
    last_factor_deviation = |last factor - 1| is the convergence
    diagnostic: it shrinks like 1/cutoff.
    """

    kappa: int
    cutoff: int
    value: float
    last_factor_deviation: float


def _require_kappa(kappa: int) -> None:
    if kappa % 4 != 3 or not is_prime_64((kappa + 1) // 4):
        raise ValueError(f"kappa must be 4p - 1 for a prime p, got {kappa}")


def _neg_kappa(kappa: int, ns: np.ndarray):
    """-kappa as the first argument of jacobi_many over the moduli ns.

    Passed as is while it fits int64; kappa = 4p - 1 passes 2^63 once
    p > 2^61, and is then reduced exactly mod each n first.
    """
    if kappa <= 2**63:
        return -kappa
    return ((-kappa) % ns.astype(object)).astype(np.int64)


def singular_series(kappa: int, cutoff: int, table: PrimeTable) -> SingularValue:
    """Product over odd primes ell <= cutoff, left to right in ascending ell.

    Each factor lies in [1 - 1/(ell-1), 1 + 1/(ell-1)] and factors at
    ell dividing kappa are exactly 1, so the product never vanishes.
    Deterministic: identical inputs give bit-identical outputs.
    """
    _require_kappa(kappa)
    if cutoff < 3:
        raise ValueError(f"singular_series needs cutoff >= 3, got {cutoff}")
    ells = table.primes(cutoff)[1:]  # the first prime is 2
    factors = 1.0 - jacobi_many(_neg_kappa(kappa, ells), ells) / (ells - 1.0)
    # accumulate multiplies strictly left to right, so its last element
    # carries the same bits as a running `value *= factor` loop
    value = np.multiply.accumulate(factors)[-1]
    return SingularValue(
        kappa=kappa,
        cutoff=int(ells[-1]),
        value=float(value),
        last_factor_deviation=abs(float(factors[-1]) - 1.0),
    )


def _mod(u: np.ndarray, ell: int, buf: np.ndarray) -> np.ndarray:
    """u mod ell as intp in buf's first len(u) slots, without integer %: numpy
    divides an array by a scalar with a multiply and a shift (Granlund and
    Montgomery, PLDI 1994), so u - (u // ell) * ell in uint64 beats u % ell."""
    out = buf[: len(u)]
    r = out.view(np.uint64)
    np.floor_divide(u, ell, out=r)
    np.subtract(u, np.multiply(r, ell, out=r), out=r)
    return out


# An odd prime ell takes its factors from jacobi_many, one symbol a kappa,
# when ell >= _JACOBI_RATIO * (number of kappa), and from a factor table
# over kappa mod ell below that.  A table costs about 2.7 ns an integer
# below ell, a symbol about 250 ns a kappa (2 vCPUs), so they break even
# near ell = 90 kappa.  Timed over 18 to 2,000 kappa at cutoffs 1e5 and
# 2e5, ratios 60 to 125 ran alike; 25 and 400 were up to 1.7 times slower.
_JACOBI_RATIO = 100
_JACOBI_LANES = 1 << 13  # (ell, kappa) pairs a jacobi_many call takes at once


def singular_series_many_scratch(n_kappa: int, cutoff: int) -> int:
    """Bytes singular_series_many allocates for at most n_kappa kappa at
    cutoff, beyond the prime table, its primes and its input: as tracemalloc
    reads them, with the bytes counted in parentheses, the factor tables' r^2,
    mark and factor buffers and their ell, 17 bytes an integer below the last
    table ell, itself below _JACOBI_RATIO * n_kappa (20); one chunk of Jacobi
    symbols, 85 bytes a lane (96), once the cutoff leaves any ell to
    jacobi_many; and four 8-byte arrays over the kappa."""
    tables = min(cutoff, _JACOBI_RATIO * n_kappa)
    most = min(n_kappa, cutoff // _JACOBI_RATIO)  # the most kappa that reach jacobi_many
    lanes = max(_JACOBI_LANES, most) if most else 0
    return 20 * tables + 96 * lanes + 32 * n_kappa


def _table_factors(values: np.ndarray, k: np.ndarray, ells: np.ndarray) -> None:
    """Multiply values by each ell's factor, in ascending ell, from one table
    over a = kappa mod ell per ell (see singular_series_many).  _mod fills
    intp buffers, so no index is converted; the gather may clip, since every
    index is below ell."""
    gathered, residues = np.empty(len(k)), np.empty(len(k), np.intp)
    squares = np.arange(1, (int(ells[-1]) - 1) // 2 + 1, dtype=np.uint64) ** 2
    marks, factor = np.empty(len(squares), dtype=np.intp), np.empty(ells[-1])
    for ell in map(int, ells):
        d = ell - 1.0
        mark = _mod(squares[: (ell - 1) // 2], ell, marks)
        np.subtract(ell, mark, out=mark)  # each a at which -kappa is a square
        factor[:ell] = 1.0 - (-1) / d
        factor[mark] = 1.0 - 1 / d
        factor[0] = 1.0
        values *= np.take(factor[:ell], _mod(k, ell, residues), out=gathered, mode="clip")


def singular_series_many(kappas: np.ndarray, cutoff: int, table: PrimeTable) -> np.ndarray:
    """Vectorized truncated product for many kappa >= 1 at once.

    Streams odd primes ell in ascending order.  Below _JACOBI_RATIO times
    the number of kappa, each ell builds a table over a = kappa mod ell:
    1.0 at a = 0, 1.0 - 1/d where -kappa is a nonzero square, at
    a = ell - (r^2 mod ell) for r = 1..(ell-1)/2, and 1.0 - (-1)/d
    elsewhere, with d = ell - 1.0.  From there on, where a table would
    cost more than the kappa it serves, the factors 1.0 - symbol/d come
    from jacobi_many over (ell, kappa) pairs, _JACOBI_LANES at a time.
    Both are the scalar path's floats for the symbols 0, 1 and -1,
    multiplied in its order, so the two agree bit for bit.
    """
    kappas = np.asarray(kappas, dtype=np.int64)
    if cutoff < 3:
        raise ValueError(f"singular_series_many needs cutoff >= 3, got {cutoff}")
    ells = table.primes(cutoff)[1:]  # the first prime is 2
    if len(kappas) and kappas.min() < 1:
        raise ValueError(f"singular_series_many needs kappa >= 1, got {kappas.min()}")
    values = np.ones(len(kappas))  # before the scratch, so freeing that can shrink the heap
    if not len(kappas):
        return values
    split = int(np.searchsorted(ells, _JACOBI_RATIO * len(kappas)))
    if split:
        _table_factors(values, kappas.astype(np.uint64), ells[:split])
    step = max(1, _JACOBI_LANES // len(kappas))
    for start in range(split, len(ells), step):
        chunk = ells[start : start + step, None]
        factors = 1.0 - jacobi_many(-kappas, chunk) / (chunk - 1.0)
        factors[0] *= values  # so row j of the running product is values * f_0 * ... * f_j
        values[:] = np.multiply.accumulate(factors, out=factors)[-1]
    return values


def _series_terms(kappa: int, lo: int, hi: int, mu: np.ndarray, phi: np.ndarray) -> list[float]:
    """Dirichlet terms mu(q)/phi(q) * symbol for odd squarefree q in (lo, hi].

    mu and phi are exact below 2^53, so each float64 quotient is the
    correctly rounded value Python's int / int gives.
    """
    q = np.arange(lo + 1 + lo % 2, hi + 1, 2)
    q = q[mu[q] != 0]
    return (mu[q] / phi[q] * jacobi_many(_neg_kappa(kappa, q), q)).tolist()


def tail_partial(kappa: int, Q1: int, Q2: int, table: PrimeTable) -> float:
    """Partial Dirichlet tail: sum over odd squarefree q with Q1 < q <= Q2.

    Terms are mu(q)/phi(q) times the symbol of (1 - 4p) == -kappa mod q,
    generated in ascending q and combined with exactly-rounded
    compensated summation (math.fsum); conditional convergence makes
    the order part of the definition.
    """
    _require_kappa(kappa)
    if not 3 <= Q1 < Q2:
        raise ValueError(f"tail_partial needs 3 <= Q1 < Q2, got Q1={Q1}, Q2={Q2}")
    mu, phi = _mu_phi_cached(table, Q2)
    return math.fsum(_series_terms(kappa, Q1, Q2, mu, phi))


def dirichlet_series_partial(kappa: int, upto: int, table: PrimeTable) -> float:
    """The Dirichlet form truncated at q <= upto, starting from the q = 1 term."""
    _require_kappa(kappa)
    if upto < 1:
        raise ValueError(f"dirichlet_series_partial needs upto >= 1, got {upto}")
    mu, phi = _mu_phi_cached(table, upto)
    return math.fsum([1.0] + _series_terms(kappa, 1, upto, mu, phi))
