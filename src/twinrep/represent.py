"""Representation search q = p + n^2 + n and range verification.

The central map sends a prime q >= 5 to its minimal twin-prime
representation: p = q - n*(n+1) strictly increases as n decreases, so
scanning n downward from n_max(q) and stopping at the first twin hit
yields the smallest twin prime p_q representing q (and p_q determines
n_q uniquely).  The same descending scan with a plain primality test
gives the any-prime and odd-integer (Sun) variants.

verify_range processes a block of q values with vectorized mask
lookups; its per-shard summaries merge associatively in range order,
so sharded runs reproduce single-pass output exactly.

A smallest-n variant of the twin scan is also provided: claimed
growth observations about p_q and n_q (p_q exceeding the cube root of
q, n_q growing roughly like log q) match that variant, not the
minimal-p map, for which the package's own runs produce explicit
counterexamples (q = 59 has p_q = 3).  See tests for the numbers.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .sieve import CoverageError, PrimeTable, TwinIndex, sieve_segment, twin_segment

__all__ = [
    "Mode",
    "Representation",
    "VerificationReport",
    "ShardSummary",
    "GrowthRow",
    "n_max",
    "find_min_twin_representation",
    "find_min_n_twin_representation",
    "find_any_prime_representation",
    "verify_range",
    "merge_summaries",
    "summary_stats",
    "stats_lemma_checks",
    "growth_series",
    "growth_rows_from_arrays",
]


class Mode(str, enum.Enum):
    """Which representation condition a scan enforces."""

    TWIN_MIN = "twin"  # minimal twin prime p, prime q
    ANY_PRIME = "prime"  # minimal prime p, prime q
    SUN_ODD = "sun"  # minimal prime p, odd q > 3
    TWIN_MIN_N = "twin-min-n"  # diagnostic: smallest n (largest twin p)


@dataclass(frozen=True)
class Representation:
    """A verified triple q = p + n^2 + n."""

    q: int
    p: int
    n: int
    mode: Mode

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"representation needs n >= 1, got n={self.n}")
        if self.p < 2:
            raise ValueError(f"representation needs p >= 2, got p={self.p}")
        if self.q != self.p + self.n * self.n + self.n:
            raise ValueError(f"{self.q} != {self.p} + {self.n}^2 + {self.n}")


def n_max(q: int) -> int:
    """Largest n with n*(n+1) <= q - 3 (3 being the smallest admissible p).

    Exact: n(n+1) <= m iff (2n+1)^2 <= 4m+1.
    """
    if q < 5:
        raise ValueError(f"n_max requires q >= 5, got {q}")
    return (math.isqrt(4 * (q - 3) + 1) - 1) // 2


def _n_max_vector(qs: np.ndarray) -> np.ndarray:
    v = 4 * (qs - 3) + 1
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= v, r + 1, r)
    r = np.where(r * r > v, r - 1, r)
    return (r - 1) >> 1


def find_min_twin_representation(q: int, twins: TwinIndex) -> Representation | None:
    """Minimal twin-prime representation of q, or None when no n works.

    Scans n from n_max(q) down to 1; the first n whose p = q - n*(n+1)
    is a twin prime gives the minimal p.  Insufficient index coverage
    is a hard error, never a silent None.
    """
    if q < 5:
        return None
    if q - 2 > twins.coverage:
        raise CoverageError(
            f"q={q} needs twin membership up to {q - 2}, coverage is {twins.coverage}"
        )
    if q % 2 == 0:
        return None  # p = q - n(n+1) would be even, and no twin prime is even
    for n in range(n_max(q), 0, -1):
        p = q - n * (n + 1)
        if twins.odd_mask[p >> 1]:
            return Representation(q=q, p=p, n=n, mode=Mode.TWIN_MIN)
    return None


def find_min_n_twin_representation(q: int, twins: TwinIndex) -> Representation | None:
    """Smallest-n twin representation: scans n upward, so p is maximal.

    This is the convention under which the claimed growth bounds on
    p_q and n_q hold; it is a diagnostic companion to the minimal-p
    map, not one of the verification modes.
    """
    if q < 5:
        return None
    if q - 2 > twins.coverage:
        raise CoverageError(
            f"q={q} needs twin membership up to {q - 2}, coverage is {twins.coverage}"
        )
    if q % 2 == 0:
        return None
    for n in range(1, n_max(q) + 1):
        p = q - n * (n + 1)
        if twins.odd_mask[p >> 1]:
            return Representation(q=q, p=p, n=n, mode=Mode.TWIN_MIN_N)
    return None


def find_any_prime_representation(q: int, table: PrimeTable) -> Representation | None:
    """Minimal prime representation of q under the same descending scan."""
    if q < 5:
        return None
    if q > table.limit:
        raise CoverageError(f"q={q} exceeds table limit {table.limit}")
    for n in range(n_max(q), 0, -1):
        p = q - n * (n + 1)
        if table.is_prime(p):
            return Representation(q=q, p=p, n=n, mode=Mode.ANY_PRIME)
    return None


# Lanes per scanned block: the kernel's working set is about 60 bytes a lane.
_BLOCK_SIZE = 1 << 19

# Width of a sieved p-window, in odd numbers (a window of bools is 1 MB).
# Window 0 is the prefix every q starts its descent in.
_WINDOW_WIDTH = 1 << 20


class _Windows:
    """p-membership windows of width odd numbers, built by segment(lo, hi) on
    first use and kept, so a process builds each window once however many
    shards it scans."""

    def __init__(self, segment, width: int):
        self.width = width
        self._segment = segment
        self._built: dict[int, np.ndarray] = {}

    def window(self, k: int) -> np.ndarray:
        bits = self._built.get(k)
        if bits is None:
            lo = 2 * k * self.width
            bits = self._built[k] = self._segment(lo, lo + 2 * self.width - 1)
        return bits


def _prime_bits(table: PrimeTable | None):
    """The prime-bit source: a table's segment, or with no table a sieve."""
    return sieve_segment if table is None else table.segment


@functools.lru_cache(maxsize=4)
def _windows(table: PrimeTable | None, twin: bool, width: int) -> _Windows:
    """The process's windows for one source, membership kind and width."""
    prime_bits = _prime_bits(table)
    segment = functools.partial(twin_segment, prime_bits=prime_bits) if twin else prime_bits
    return _Windows(segment, width)


def _scan_block(qs: np.ndarray, windows):
    """Vectorized representation scan over a block of odd q >= 5.

    windows.window(k)[i] answers membership (twin or prime) of the odd
    p = 2 * (k * windows.width + i) + 1, for every odd p up to max(qs) - 2.
    Each lane carries h = p >> 1 from step to step (n -> n - 1 adds n to h)
    and runs in the window that holds its h; a lane whose h leaves that
    window waits, with its n, for the next window it needs.  The windows
    are visited in ascending order and each lane still tries n from n_max
    down to 1, so the result does not depend on the width.  Returns
    (p, n, found) arrays; unfound entries are zero.
    """
    count = len(qs)
    p_out = np.zeros(count, dtype=np.int64)
    n_out = np.zeros(count, dtype=np.int64)
    found = np.zeros(count, dtype=bool)
    if count == 0:
        return p_out, n_out, found
    # lane arrays are built and compacted one at a time, in place where numpy
    # allows, so few block-sized temporaries are alive at once
    n = _n_max_vector(qs)
    idx = np.flatnonzero(n >= 1)
    n = n[idx]
    h = qs[idx]
    h -= n * (n + 1)
    h >>= 1
    h_last = (int(qs.max()) - 3) >> 1  # p = q - 2 at n = 1
    width = windows.width
    while idx.size:
        k = int(h.min()) // width
        start, end = k * width, (k + 1) * width
        bits = windows.window(k)
        waiting = []
        inside = h < end
        if not inside.all():
            waiting.append((idx[~inside], h[~inside], n[~inside]))
            idx, h, n = idx[inside], h[inside], n[inside]
        bounded = end <= h_last  # can a lane step past this window?
        while idx.size:
            hit = bits[h - start] if start else bits[h]
            if np.count_nonzero(hit):
                at = idx[hit]
                p_out[at] = 2 * h[hit] + 1
                n_out[at] = n[hit]
                found[at] = True
            go = np.greater(n > 1, hit)  # n > 1 and no hit
            h += n
            n -= 1
            if bounded:
                out = h >= end
                out &= go
                if np.count_nonzero(out):
                    waiting.append((idx[out], h[out], n[out]))
                    go ^= out
            keep = go.nonzero()[0]
            idx = idx[keep]
            h = h[keep]
            n = n[keep]
        if waiting:
            idx, h, n = (np.concatenate(parts) for parts in zip(*waiting))
    return p_out, n_out, found


@dataclass
class ShardSummary:
    """Order-dependent mergeable digest of one contiguous q-range.

    Merging left to right over adjacent shards reproduces the digest of
    the combined range exactly, which is what makes sharded and
    checkpoint-resumed runs equal a single pass.

    same_n_order_violations counts represented q with p + n(n+1) != q.
    Where that identity holds, p = q - n(n+1) increases with q at fixed
    n, so the order lemma needs no separate walk; and same_n_first /
    same_n_last, the first and last p of each n in ascending q, are the
    least and greatest p of that n.
    """

    lo: int
    hi: int
    checked: int = 0
    represented: int = 0
    failures: list = field(default_factory=list)
    min_ratio: float | None = None  # min p / cbrt(q)
    min_ratio_q: int | None = None
    max_nlog: float | None = None  # max n / log(q)
    max_nlog_q: int | None = None
    dichotomy_violations: int = 0
    dichotomy_examples: list = field(default_factory=list)
    sqrt_bound_violations: int = 0
    same_n_order_violations: int = 0
    same_n_first: dict = field(default_factory=dict)  # n -> first p in shard
    same_n_last: dict = field(default_factory=dict)  # n -> last p in shard

    _EXAMPLE_CAP = 32
    _N_DICTS = ("same_n_first", "same_n_last")

    def absorb_block(self, qs, ps, ns, found) -> None:
        """Fold one scanned block (qs ascending, following prior blocks)."""
        block = ShardSummary(lo=self.lo, hi=self.hi, checked=int(len(qs)))
        block.failures = qs[~found].tolist()
        qf, pf, nf = qs[found], ps[found], ns[found]
        block.represented = int(len(qf))
        if len(qf):
            ratio = pf / np.cbrt(qf.astype(np.float64))
            i = int(np.argmin(ratio))  # first index, so the smallest q on ties
            block.min_ratio, block.min_ratio_q = float(ratio[i]), int(qf[i])
            nlog = nf / np.log(qf.astype(np.float64))
            j = int(np.argmax(nlog))
            block.max_nlog, block.max_nlog_q = float(nlog[j]), int(qf[j])
            dich = (2 * pf < qf) & (2 * nf * nf < qf)
            block.dichotomy_violations = int(np.count_nonzero(dich))
            block.dichotomy_examples = qf[dich][: self._EXAMPLE_CAP].tolist()
            block.sqrt_bound_violations = int(np.count_nonzero(nf * nf > qf))
            block.same_n_order_violations = int(np.count_nonzero(pf + nf * (nf + 1) != qf))
            present = np.flatnonzero(np.bincount(nf))
            least = np.full(int(nf.max()) + 1, np.iinfo(np.int64).max)
            np.minimum.at(least, nf, pf)
            greatest = np.zeros_like(least)
            np.maximum.at(greatest, nf, pf)
            block.same_n_first = dict(zip(present.tolist(), least[present].tolist()))
            block.same_n_last = dict(zip(present.tolist(), greatest[present].tolist()))
        self._fold(block)

    def merge(self, nxt: "ShardSummary") -> None:
        """Append the digest of the range immediately after this one."""
        if nxt.lo < self.hi:
            raise ValueError(f"shard order violated: {self.lo}:{self.hi} then {nxt.lo}:{nxt.hi}")
        self.hi = nxt.hi
        self._fold(nxt)

    def _fold(self, nxt: "ShardSummary") -> None:
        """Add the counts and extrema of the q that follow this digest's."""
        self.checked += nxt.checked
        self.represented += nxt.represented
        self.failures.extend(nxt.failures)
        if nxt.min_ratio is not None:
            if self.min_ratio is None or (nxt.min_ratio, nxt.min_ratio_q) < (self.min_ratio, self.min_ratio_q):
                self.min_ratio, self.min_ratio_q = nxt.min_ratio, nxt.min_ratio_q
        if nxt.max_nlog is not None:
            if self.max_nlog is None or (-nxt.max_nlog, nxt.max_nlog_q) < (-self.max_nlog, self.max_nlog_q):
                self.max_nlog, self.max_nlog_q = nxt.max_nlog, nxt.max_nlog_q
        self.dichotomy_violations += nxt.dichotomy_violations
        room = self._EXAMPLE_CAP - len(self.dichotomy_examples)
        self.dichotomy_examples.extend(nxt.dichotomy_examples[: max(room, 0)])
        self.sqrt_bound_violations += nxt.sqrt_bound_violations
        self.same_n_order_violations += nxt.same_n_order_violations
        self.same_n_first = nxt.same_n_first | self.same_n_first  # earlier p wins
        self.same_n_last.update(nxt.same_n_last)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        for key in self._N_DICTS:
            out[key] = {str(k): v for k, v in out[key].items()}
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShardSummary":
        names = {f.name for f in fields(cls)}
        if d.keys() != names:  # no field may silently take its default
            raise ValueError(f"shard summary fields differ: {sorted(d.keys() ^ names)}")
        # fresh lists: merge_summaries folds into its first part
        values = dict(d, failures=list(d["failures"]),
                      dichotomy_examples=list(d["dichotomy_examples"]))
        for key in cls._N_DICTS:
            values[key] = {int(k): v for k, v in d[key].items()}
        return cls(**values)


def merge_summaries(parts: list[ShardSummary]) -> ShardSummary:
    """Fold shard digests in ascending range order."""
    if not parts:
        raise ValueError("merge_summaries needs at least one shard")
    total = parts[0]
    for part in parts[1:]:
        total.merge(part)
    return total


def summary_stats(summary: ShardSummary) -> dict:
    """The stats block reported for a verified range."""
    return {
        "min_p_over_cbrt_q": summary.min_ratio,
        "min_p_over_cbrt_q_at": summary.min_ratio_q,
        "max_n_over_log_q": summary.max_nlog,
        "max_n_over_log_q_at": summary.max_nlog_q,
        "dichotomy_violations": summary.dichotomy_violations,
        "dichotomy_examples": list(summary.dichotomy_examples),
        "same_n_order_violations": summary.same_n_order_violations,
        "sqrt_bound_violations": summary.sqrt_bound_violations,
    }


@dataclass
class VerificationReport:
    """Outcome of a range run: counts, explicit failures, and statistics.

    failures empty means the representation property held for every
    admissible q in [lo, hi]; checked == represented + len(failures).
    """

    lo: int
    hi: int
    mode: Mode
    checked: int
    failures: list
    stats: dict
    summary: ShardSummary
    qs: np.ndarray
    ps: np.ndarray
    ns: np.ndarray

    def representations(self) -> list[Representation]:
        return [
            Representation(q=int(q), p=int(p), n=int(n), mode=self.mode)
            for q, p, n in zip(self.qs, self.ps, self.ns)
        ]


def _domain(lo: int, hi: int, mode: Mode, prime_bits) -> np.ndarray:
    """Admissible q values (>= 5) in [lo, hi] for the given mode.

    Reads only the range's own prime bits from prime_bits, a sieve of
    [lo, hi] alone or a table's segment, so a shard costs O(hi - lo).
    """
    first = max(lo, 5) >> 1  # index of the least odd m >= max(lo, 5)
    if mode == Mode.SUN_ODD:
        return np.arange(2 * first + 1, hi + 1, 2, dtype=np.int64)
    return (np.flatnonzero(prime_bits(2 * first + 1, hi)) + first) * 2 + 1


def verify_range(
    lo: int,
    hi: int,
    mode: Mode,
    table: PrimeTable | None = None,
    include_small: bool = False,
    block_size: int = _BLOCK_SIZE,
) -> VerificationReport:
    """Verify representability for every admissible q in [lo, hi].

    Iterates primes (or odd integers in Sun mode) in ascending order,
    accumulating failures and statistics; the result is independent of
    block_size and of how a caller shards the range.  q in {2, 3} have
    no admissible n and are skipped unless include_small, in which case
    they count as failures.

    Prime bits come from table or, when it is None, from a sieve of
    [lo, hi] alone.  p membership comes from fixed-width windows of the
    same source, which each process builds once and keeps, so memory is
    O(hi - lo) plus the windows below the largest p the scan reaches.
    Both sources give the same report.
    """
    mode = Mode(mode)
    if mode == Mode.TWIN_MIN_N:
        raise ValueError("verify_range modes are twin, prime, sun")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if table is not None and hi > table.limit:
        raise CoverageError(f"range end {hi} exceeds table limit {table.limit}")
    windows = _windows(table, mode == Mode.TWIN_MIN, _WINDOW_WIDTH)
    summary = ShardSummary(lo=lo, hi=hi)
    if include_small:
        smalls = [q for q in (2, 3) if lo <= q <= hi and (mode != Mode.SUN_ODD or q % 2 == 1)]
        summary.checked += len(smalls)
        summary.failures.extend(smalls)

    qs_all = _domain(lo, hi, mode, _prime_bits(table))
    q_chunks, p_chunks, n_chunks = [], [], []
    for start in range(0, len(qs_all), block_size):
        qs = qs_all[start : start + block_size]
        ps, ns, found = _scan_block(qs, windows)
        summary.absorb_block(qs, ps, ns, found)
        q_chunks.append(qs[found])
        p_chunks.append(ps[found])
        n_chunks.append(ns[found])
    empty = np.zeros(0, dtype=np.int64)
    return VerificationReport(
        lo=lo,
        hi=hi,
        mode=mode,
        checked=summary.checked,
        failures=list(summary.failures),
        stats=summary_stats(summary),
        summary=summary,
        qs=np.concatenate(q_chunks) if q_chunks else empty,
        ps=np.concatenate(p_chunks) if p_chunks else empty,
        ns=np.concatenate(n_chunks) if n_chunks else empty,
    )


def stats_lemma_checks(reps) -> dict:
    """Violation counts for three properties of the map.

    (i) equal n with q' < q forces p' < p (checked through a per-n
    running maximum); (ii) n <= isqrt(q); (iii) exceptions to the n^2
    form of the dichotomy, "2p >= q or 2n^2 >= q".  (i) and (ii) always
    hold; the n^2 form has exceptions (eleven below the millionth
    prime, the first q = 11 with (p, n) = (5, 2)).  The n(n+1) form,
    2p > q or 2n(n+1) > q, is the one that always holds, since
    p + n(n+1) = q is odd.  Input must be minimal-twin representations
    sorted by q.
    """
    last_p_by_n: dict[int, int] = {}
    same_n_order = sqrt_bound = dichotomy = 0
    prev_q = None
    for rep in reps:
        if rep.mode != Mode.TWIN_MIN:
            raise ValueError(f"stats_lemma_checks expects TWIN_MIN reps, got {rep.mode}")
        if prev_q is not None and rep.q <= prev_q:
            raise ValueError("representations must be sorted by ascending q")
        prev_q = rep.q
        prev = last_p_by_n.get(rep.n)
        if prev is not None and prev >= rep.p:
            same_n_order += 1
        last_p_by_n[rep.n] = rep.p
        if rep.n * rep.n > rep.q:
            sqrt_bound += 1
        if 2 * rep.p < rep.q and 2 * rep.n * rep.n < rep.q:
            dichotomy += 1
    return {
        "same_n_order_violations": same_n_order,
        "sqrt_bound_violations": sqrt_bound,
        "dichotomy_violations": dichotomy,
    }


@dataclass(frozen=True)
class GrowthRow:
    """Aggregates over one q bucket; pure reporting, no claims."""

    q_bucket: int
    count: int
    max_n: int
    min_p: int
    min_p_over_cbrt_q: float
    max_n_over_log_q: float


def growth_series(reps, bucket: int) -> list[GrowthRow]:
    """Bucketed extrema of the map for plotting or CSV export."""
    if not reps:
        raise ValueError("growth_series needs at least one representation")
    qs = np.fromiter((r.q for r in reps), dtype=np.int64, count=len(reps))
    ps = np.fromiter((r.p for r in reps), dtype=np.int64, count=len(reps))
    ns = np.fromiter((r.n for r in reps), dtype=np.int64, count=len(reps))
    return growth_rows_from_arrays(qs, ps, ns, bucket)


def growth_rows_from_arrays(qs, ps, ns, bucket: int) -> list[GrowthRow]:
    """growth_series on raw arrays; shared by large verification runs."""
    if bucket < 1:
        raise ValueError(f"bucket must be positive, got {bucket}")
    if len(qs) == 0:
        raise ValueError("growth needs at least one representation")
    qs = np.asarray(qs, dtype=np.int64)
    ps = np.asarray(ps, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    keys = (qs // bucket) * bucket
    ratio = ps / np.cbrt(qs.astype(np.float64))
    nlog = ns / np.log(qs.astype(np.float64))
    rows = []
    for key in np.unique(keys):
        sel = keys == key
        rows.append(
            GrowthRow(
                q_bucket=int(key),
                count=int(np.count_nonzero(sel)),
                max_n=int(ns[sel].max()),
                min_p=int(ps[sel].min()),
                min_p_over_cbrt_q=float(ratio[sel].min()),
                max_n_over_log_q=float(nlog[sel].max()),
            )
        )
    return rows
