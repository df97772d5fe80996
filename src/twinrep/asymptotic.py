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

psi sums are exact.  Every nonzero von Mangoldt value of an odd integer
is log r >= log 3 > 1 and below 2^6, so it is an integer multiple of
2^-52 below 2^6: von_mangoldt_table holds it as int64 units of 2^-53
below 2^59, over the odd integers only, since n^2 + n + p is odd for
every odd p (p = 2, whose values are all even, counts its powers of two
instead).  The sweep sums psi for every run in one pass over n: column n
gathers the units of n^2 + n + p for all p at once and adds them into two
int64 limbs, the bits above 2^26 and those below.  Joined as
high * 2^-27 + low * 2^-53, both terms are exact floats, so their one
rounded addition is the exact sum correctly rounded, which is what
math.fsum returns.  The squared residuals are streamed through a Kahan
accumulator in ascending p, so every result is bit-reproducible.
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


_LOG_CHUNK = 1 << 12  # primes whose math.log a Python list holds at once


def von_mangoldt_table(limit: int) -> np.ndarray:
    """Von Mangoldt over the odd integers to limit, as exact int64 units:
    U[i] = von_mangoldt(2i + 1) * 2^53 for 0 <= i < (limit + 1) // 2.

    Prime logs are taken with math.log, so U[i] / 2^53 is the scalar
    function's float.  Every nonzero entry is log r of an odd prime r, in
    [log 3, 64): an integer multiple of 2^-52, so its units are exact
    integers below 2^59.
    """
    if limit < 1:
        raise ValueError(f"von_mangoldt_table requires limit >= 1, got {limit}")
    units = np.zeros((limit + 1) // 2, dtype=np.int64)
    primes = build_prime_table(max(limit, 2)).primes()[1:]  # the odd primes
    for start in range(0, len(primes), _LOG_CHUNK):
        chunk = primes[start : start + _LOG_CHUNK]
        logs = np.fromiter(map(math.log, chunk.tolist()), np.float64, len(chunk))
        units[chunk >> 1] = logs * float(_PSI_SCALE)
    small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for r, unit in zip(primes[:small].tolist(), units[primes[:small] >> 1].tolist()):
        rk = r * r
        while rk <= limit:
            units[rk >> 1] = unit
            rk *= r
    return units


_INT63_MAX = (1 << 63) - 1

# A unit (< 2^59) splits into a high limb of the bits above _LIMB_BITS and a
# low limb below them.  Summed over x cells, the low limbs stay below
# 2^26 x < 2^53 for any x whose table fits in memory, so they convert to
# float64 exactly; the high limbs are checked against 2^53 at each join.
_PSI_SCALE = 2**53
_LIMB_BITS = 26
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_UNIT_BOUND = 2**59


def _psi_two(x: int) -> float:
    """psi_2(x): n^2 + n + 2 is even, so only its powers of two count, each
    math.log(2), as von_mangoldt gives them; math.fsum adds them."""
    n = np.arange(1, x + 1, dtype=np.int64)
    m = n * n + n + 2
    return math.fsum([math.log(2)] * int(np.count_nonzero(m & (m - 1) == 0)))


def _check_units(cells: np.ndarray) -> None:
    """Refuse anything but von Mangoldt units: int64 in [0, 2^59)."""
    if cells.dtype != np.int64 or (len(cells) and (
            cells.min() < 0 or cells.max() >= _UNIT_BOUND)):
        raise ValueError("psi needs von Mangoldt units: int64 in [0, 2^59)")


def _psi_columns(units: np.ndarray, ps: np.ndarray,
                 runs: list[tuple[int, int]]) -> list[np.ndarray]:
    """psi_p(x) for the first k primes p of ps (ascending), at each (x, k)
    of runs, in the given order, each equal to math.fsum of its terms.

    Column n gathers units[(p >> 1) + n(n+1)/2], the unit of n^2 + n + p,
    over the odd p of the runs with x >= n, at ascending addresses, and
    adds its limbs into two int64 accumulators; each run reads them after
    its column x.  A joined sum high 2^-27 + low 2^-53 is one correctly
    rounded addition of two exact floats, so it is the exact sum rounded
    once.  p = 2, whose values are even, takes _psi_two.

    The caller guarantees units: int64 in [0, 2^59) (_check_units), and
    long enough that (x^2 + x + p) // 2 < len(units) for every run's odd
    p.  Neither is checked here, and the gather clips, so a short table
    gives wrong sums rather than an error.
    """
    even = int(len(ps) > 0 and ps[0] == 2)
    order = sorted(range(len(runs)), key=lambda r: runs[r][0])
    widths = [max(k - even, 0) for _, k in (runs[r] for r in order)]
    for i in range(len(widths) - 2, -1, -1):  # the odd p of every run reaching column n
        widths[i] = max(widths[i], widths[i + 1])
    half = ps[even : even + (widths[0] if widths else 0)] >> 1
    high, low = np.zeros(len(half), np.int64), np.zeros(len(half), np.int64)
    cells, limb = np.empty(len(half), np.int64), np.empty(len(half), np.int64)
    out: list[np.ndarray] = [np.zeros(0)] * len(runs)
    n = t = 0  # t = n(n+1)/2
    for r, w in zip(order, widths):
        x, k = runs[r]
        while n < x:
            n += 1
            t += n
            c = np.take(units[t:], half[:w], out=cells[:w], mode="clip")
            np.add(high[:w], np.right_shift(c, _LIMB_BITS, out=limb[:w]), out=high[:w])
            np.add(low[:w], np.bitwise_and(c, _LIMB_MASK, out=c), out=low[:w])
        odd = max(k - even, 0)
        if odd and high[:odd].max() >= 2**53:
            raise OverflowError(f"psi limb sum passes 2^53 at x={x}")
        out[r] = psis = np.empty(k)
        np.add(high[:odd] * 2.0 ** (_LIMB_BITS - 53), low[:odd] * 2.0**-53, out=psis[k - odd :])
        if k > odd:
            psis[0] = _psi_two(x)
    return out


def psi(p: int, x: int) -> float:
    """Sum of von Mangoldt over n^2 + n + p for 1 <= n <= x.

    The scalar reference: terms in ascending n, combined with math.fsum
    (exactly rounded).  variance_sweep's integer columns equal it.
    """
    if x < 0:
        raise ValueError(f"psi requires x >= 0, got {x}")
    if p < 2:
        raise ValueError(f"psi requires a prime p >= 2, got {p}")
    if x * x + x + p > _INT63_MAX:
        raise OverflowError(f"x^2 + x + p overflows 64-bit range for x={x}, p={p}")
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
    svals = singular_series_many(kappas, cutoff, table)
    counts = np.searchsorted(kappas, [y for _, y in runs], side="right").tolist()
    # p = 2 (kappa = 7) leads every nonempty run, and the table holds the odd p's values
    tops = [x * x + x + int(ps[k - 1]) for (x, _), k in zip(runs, counts) if k > 1]
    units = von_mangoldt_table(max(tops)) if tops else np.zeros(0, np.int64)
    _check_units(units)  # once, on the whole table: the kernel reads it unchecked
    columns = _psi_columns(units, ps, [(x, k) for (x, _), k in zip(runs, counts)])

    reports = []
    for (x, y), k, psis in zip(runs, counts, columns):
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
