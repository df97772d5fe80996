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
from .sieve import CoverageError, PrimeTable, mu_phi_tables

# the tables are read-only here; caching (keyed on the table's identity)
# spares repeated rebuilds when a report sweeps many kappa at one truncation
_mu_phi_cached = lru_cache(maxsize=4)(mu_phi_tables)

__all__ = [
    "SingularValue",
    "singular_series",
    "singular_series_many",
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
    if cutoff > table.limit:
        raise CoverageError(f"cutoff {cutoff} exceeds table limit {table.limit}")
    primes = table.primes()
    ells = primes[(primes >= 3) & (primes <= cutoff)]
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


def singular_series_many(kappas: np.ndarray, cutoff: int, table: PrimeTable) -> np.ndarray:
    """Vectorized truncated product for many kappa at once.

    Streams one odd prime ell at a time.  The residues r^2 mod ell for
    r = 1..(ell-1)/2 are all the nonzero squares, so a table over the
    residues a mod ell holds the factor 1.0 - 1/d at the squares,
    1.0 at a = 0 and 1.0 - (-1)/d elsewhere, with d = ell - 1.0.  These
    are the floats the scalar path computes for the symbols 1, 0 and
    -1, and every kappa's running product sees them in the same
    ascending-ell order, so the two agree bit for bit.
    """
    kappas = np.asarray(kappas, dtype=np.int64)
    if cutoff < 3:
        raise ValueError(f"singular_series_many needs cutoff >= 3, got {cutoff}")
    if cutoff > table.limit:
        raise CoverageError(f"cutoff {cutoff} exceeds table limit {table.limit}")
    values = np.ones(len(kappas), dtype=np.float64)
    neg_kappas = -kappas
    primes = table.primes()
    for ell in primes[(primes >= 3) & (primes <= cutoff)]:
        ell = int(ell)
        d = ell - 1.0
        r = np.arange(1, (ell - 1) // 2 + 1, dtype=np.int64)
        factor = np.full(ell, 1.0 - (-1) / d)
        factor[r * r % ell] = 1.0 - 1 / d
        factor[0] = 1.0
        values *= factor[neg_kappas % ell]
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
