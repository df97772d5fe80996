"""Desk-scale numerics for the averaged prime-counting statements.

psi_p(x) is the von Mangoldt weighted count over the polynomial values
n^2 + n + p for n <= x.  variance_sum averages the squared residual
psi_p(x) - S(kappa) * x / 2 over primes p with squarefree kappa = 4p - 1
up to y; with y = x^2 this normalized average is expected to decay as
x grows.  The x/2 normalization of the main term is hard-coded; the
n^2 + k analogue's S * x normalization is available behind a flag for
comparison only.

variance_sweep evaluates many (x, y) at once: the kappa sets are nested
in y, so the squarefree kappa, their singular values and one von
Mangoldt table are built for the largest y and each run takes a prefix.

psi sums are exact.  Every nonzero von Mangoldt value is log p >=
log 2 > 1/2 and below 2^6, so it is an integer multiple of 2^-53 below
2^59.  Scaled by 2^53, the gathered values of a block of rows are
summed exactly in two int64 limbs; the joined Python integer divided by
2^53 is correctly rounded, which is exactly what math.fsum returns.
The squared residuals are streamed through a Kahan accumulator in
ascending p, so every result is bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arithmetic import von_mangoldt
from .sieve import CoverageError, PrimeTable, build_prime_table, squarefree_mask
from .singular import singular_series_many

__all__ = [
    "KahanSum",
    "VarianceTerms",
    "VarianceReport",
    "von_mangoldt_table",
    "psi",
    "variance_sum",
    "variance_sweep",
    "exception_count",
]


class KahanSum:
    """Compensated streaming accumulator; deterministic for a fixed order."""

    __slots__ = ("value", "_c")

    def __init__(self) -> None:
        self.value = 0.0
        self._c = 0.0

    def add(self, v: float) -> None:
        y = v - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t


def von_mangoldt_table(limit: int) -> np.ndarray:
    """Array L with L[m] = von Mangoldt of m for 0 <= m <= limit.

    Prime logs are taken with math.log so table entries are identical
    to the scalar function's values.
    """
    if limit < 1:
        raise ValueError(f"von_mangoldt_table requires limit >= 1, got {limit}")
    table = np.zeros(limit + 1, dtype=np.float64)
    for p in build_prime_table(max(limit, 2)).primes():  # at limit = 1, p = 2 sets nothing
        p = int(p)
        logp = math.log(p)
        pk = p
        while pk <= limit:
            table[pk] = logp
            pk *= p
    return table


_INT63_MAX = (1 << 63) - 1

# psi blocks: gathered values scaled to integers, split into a low limb of
# _LIMB_BITS bits and the high rest (< 2^33), so a row of x < 2^30 cells
# sums in int64 without overflow.  A table long enough to gather x^2 + x
# has far fewer than 2^60 entries, so x < 2^30 always holds.
_PSI_SCALE = 2**53
_LIMB_BITS = 26
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_BLOCK_CELLS = 1 << 13  # 64 KB temporaries; 1 << 15 raised the variance CLI peak RSS 0.6 MB


def _psi_rows(lam: np.ndarray, ps: np.ndarray, x: int) -> np.ndarray:
    """psi_p(x) for each p in ps from a von Mangoldt table, equal to math.fsum.

    Values outside {0} and [1/2, 64) are not integer multiples of 2^-53
    below 2^59, so the integer sum would not be exact: they are rejected.
    """
    n = np.arange(1, x + 1, dtype=np.int64)
    nsq = n * n + n
    rows = max(1, _BLOCK_CELLS // x)
    out = np.empty(len(ps), dtype=np.float64)
    for start in range(0, len(ps), rows):
        block = lam[ps[start : start + rows, None] + nsq]
        if not np.all(((block >= 0.5) & (block < 64.0)) | (block == 0.0)):
            raise ValueError("psi needs von Mangoldt values: 0 or in [1/2, 64)")
        units = (block * float(_PSI_SCALE)).astype(np.int64)
        high = (units >> _LIMB_BITS).sum(axis=1).tolist()
        low = (units & _LIMB_MASK).sum(axis=1).tolist()
        out[start : start + rows] = [((h << _LIMB_BITS) + l) / _PSI_SCALE
                                     for h, l in zip(high, low)]
    return out


def psi(p: int, x: int, lam: np.ndarray | None = None) -> float:
    """Sum of von Mangoldt over n^2 + n + p for 1 <= n <= x.

    The scalar path generates terms in ascending n and combines them
    with math.fsum (exactly rounded).  Passing a precomputed
    von_mangoldt_table as ``lam`` gathers the terms and sums them
    exactly in integers (see the module docstring); both paths produce
    identical floats.
    """
    if x < 0:
        raise ValueError(f"psi requires x >= 0, got {x}")
    if p < 2:
        raise ValueError(f"psi requires a prime p >= 2, got {p}")
    if x * x + x + p > _INT63_MAX:
        raise OverflowError(f"x^2 + x + p overflows 64-bit range for x={x}, p={p}")
    if x == 0:
        return 0.0
    if lam is not None:
        if x * x + x + p >= len(lam):
            raise CoverageError(f"von Mangoldt table too short for x={x}, p={p}")
        return float(_psi_rows(lam, np.array([p], dtype=np.int64), x)[0])
    return math.fsum(von_mangoldt(n * n + n + p) for n in range(1, x + 1))


class VarianceTerms(NamedTuple):
    """Each kappa's contribution to the averaged residual, as columns in
    ascending p: p and kappa = 4p - 1 are int64, the rest float64."""

    p: np.ndarray
    kappa: np.ndarray
    psi: np.ndarray
    s_trunc: np.ndarray
    main_term: np.ndarray
    residual: np.ndarray
    residual_sq: np.ndarray


@dataclass
class VarianceReport:
    """Left-hand side of the averaged bound at one (x, y), normalized.

    term_count is the number of primes p with 4p - 1 <= y squarefree;
    ratio = lhs / (y * x^2) is the quantity expected to decay in x.
    terms holds each such kappa's term, as columns.
    """

    x: int
    y: int
    cutoff: int
    term_count: int
    lhs: float
    ratio: float
    terms: VarianceTerms


def variance_sum(
    x: int,
    y: int,
    cutoff: int,
    table: PrimeTable,
    baier_zhao: bool = False,
) -> VarianceReport:
    """Sum of (psi_p(x) - S(kappa) x/2)^2 over kappa = 4p - 1 <= y squarefree.

    The region requires y <= x^2.  Terms accumulate in ascending p with
    Kahan compensation.  With baier_zhao=True the main term is S * x
    instead of S * x / 2 (comparison normalization only).
    """
    return variance_sweep([(x, y)], cutoff, table, baier_zhao)[0]


def variance_sweep(
    runs: Iterable[tuple[int, int]],
    cutoff: int,
    table: PrimeTable,
    baier_zhao: bool = False,
) -> list[VarianceReport]:
    """variance_sum at every (x, y) of runs, one report per run in the given order.

    Every (x, y) is validated before any work.  The squarefree kappa up to
    the largest y, their singular values and one von Mangoldt table are
    computed once; each run takes the prefix kappa <= y, and its p, kappa
    and s_trunc columns are views of them.  Each report is bit-identical to
    its own variance_sum call.
    """
    runs = list(runs)
    for x, y in runs:
        if x < 1:
            raise ValueError(f"variance_sum requires x >= 1, got {x}")
        if y < 1:
            raise ValueError(f"variance_sum requires y >= 1, got {y}")
        if y > x * x:
            raise ValueError(f"region violation: y={y} exceeds x^2={x * x}; need y <= x^2")
    if cutoff < 3:
        raise ValueError(f"variance_sum requires cutoff >= 3, got {cutoff}")
    if not runs:
        return []
    p_top = (max(y for _, y in runs) + 1) // 4
    needed = max(cutoff, p_top, math.isqrt(4 * p_top) if p_top else 0)
    if needed > table.limit:
        raise CoverageError(f"variance_sum needs table limit >= {needed}, have {table.limit}")

    ps = table.primes(p_top)  # 4p - 1 <= y exactly when p <= (y + 1) // 4
    ps = ps[squarefree_mask(4 * ps - 1, table)]
    kappas = 4 * ps - 1
    svals = singular_series_many(kappas, cutoff, table) if len(ps) else np.zeros(0)
    counts = np.searchsorted(kappas, [y for _, y in runs], side="right").tolist()
    tops = [x * x + x + int(ps[k - 1]) for (x, _), k in zip(runs, counts) if k]
    lam = von_mangoldt_table(max(tops)) if tops else None

    reports = []
    for (x, y), k in zip(runs, counts):
        psis = _psi_rows(lam, ps[:k], x) if k else np.zeros(0)
        main = svals[:k] * (float(x) if baier_zhao else x / 2.0)
        residual = psis - main
        terms = VarianceTerms(ps[:k], kappas[:k], psis, svals[:k], main, residual,
                              residual * residual)
        acc = KahanSum()
        for sq in terms.residual_sq.tolist():
            acc.add(sq)
        lhs = acc.value
        reports.append(VarianceReport(
            x=x, y=y, cutoff=cutoff, term_count=k,
            lhs=lhs, ratio=lhs / (float(y) * x * x), terms=terms,
        ))
    return reports


def exception_count(y: int, x: int, table: PrimeTable) -> list[int]:
    """The primes p <= y/4 with squarefree 4p - 1 but no prime value, ascending;
    N(y) is their number.

    The n-range is {n >= 1 : 2n + 1 <= x}.  An empty range (x < 3)
    makes the nonexistence vacuous, so every censused p counts.
    """
    if y < 1:
        raise ValueError(f"exception_count requires y >= 1, got {y}")
    if x < 1:
        raise ValueError(f"exception_count requires x >= 1, got {x}")
    p_top = y // 4
    n_top = (x - 1) // 2
    needed = max(p_top, n_top * n_top + n_top + p_top)
    if needed > table.limit:
        raise CoverageError(f"exception_count needs table limit >= {needed}, have {table.limit}")
    ps = table.primes(p_top)
    ps = ps[squarefree_mask(4 * ps - 1, table)]
    exceptions = []
    for p in ps.tolist():
        for n in range(1, n_top + 1):
            if table.is_prime(n * n + n + p):
                break
        else:
            exceptions.append(p)
    return exceptions
