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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .sieve import CoverageError, PrimeTable, sieve_segment, twin_segment

__all__ = [
    "Mode",
    "Representation",
    "VerificationReport",
    "ShardSummary",
    "MAX_Q",
    "n_max",
    "find_min_twin_representation",
    "find_min_n_twin_representation",
    "find_any_prime_representation",
    "verify_range",
    "growth_columns",
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


# The highest q verify_range accepts: 4(q - 3) + 1, whose square root gives
# n_max, must fit int64, and 4 * 2^61 - 11 < 2^63.
MAX_Q = 1 << 61


def n_max(q: int) -> int:
    """Largest n with n*(n+1) <= q - 3 (3 being the smallest admissible p).

    Exact: n(n+1) <= m iff (2n+1)^2 <= 4m+1.
    """
    if q < 5:
        raise ValueError(f"n_max requires q >= 5, got {q}")
    return (math.isqrt(4 * (q - 3) + 1) - 1) // 2


def _n_max_vector(qs: np.ndarray) -> np.ndarray:
    """n_max(q) for every q of qs, each 5 <= q <= MAX_Q.

    n_max = (r - 1) // 2 with r = isqrt(v), v = 4(q - 3) + 1.  While every
    v is below 2^52, r is the float64 root of v truncated: at v = (r+1)^2 - 1
    the root lies below r + 1 by 1 / (2(r + 1)) or more, over half a unit in
    its last place, so it cannot round up to r + 1.  Above 2^52 that root is
    off by at most one either way and is corrected by divisions, which
    cannot overflow where (r + 1)^2 would near MAX_Q.
    """
    v = 4 * (qs - 3) + 1
    r = np.sqrt(v, dtype=np.float64).astype(np.int64)
    if len(qs) and int(qs.max()) >= (1 << 50) + 3:  # some v >= 2^52
        r += r + 1 <= v // (r + 1)
        r -= r > v // r
    r -= 1
    r >>= 1
    return r


def _first_representation(q: int, table: PrimeTable, mode: Mode) -> Representation | None:
    """The scalar scan behind the three finders.

    Tries n from n_max(q) down to 1, or up from 1 in the smallest-n mode,
    and returns the first n whose p = q - n*(n+1) is prime and, in the twin
    modes, has p - 2 or p + 2 prime too; None when no n works.  Every p + 2
    is at most q, so a q above table.limit is a CoverageError, never a
    silent None.
    """
    if q < 5:
        return None
    if q > table.limit:
        raise CoverageError(f"q={q} exceeds table limit {table.limit}")
    top = n_max(q)
    ns = range(1, top + 1) if mode == Mode.TWIN_MIN_N else range(top, 0, -1)
    prime = table.is_prime
    for n in ns:
        p = q - n * (n + 1)
        if prime(p) and (mode == Mode.ANY_PRIME or prime(p - 2) or prime(p + 2)):
            return Representation(q=q, p=p, n=n, mode=mode)
    return None


def find_min_twin_representation(q: int, table: PrimeTable) -> Representation | None:
    """Minimal twin-prime representation of q, or None when no n works.

    p = q - n*(n+1) grows as n falls, so the first twin p of the descending
    scan is the minimal one.  q must be at most table.limit.
    """
    return _first_representation(q, table, Mode.TWIN_MIN)


def find_min_n_twin_representation(q: int, table: PrimeTable) -> Representation | None:
    """Smallest-n twin representation: scans n upward, so p is maximal.

    This is the convention under which the claimed growth bounds on
    p_q and n_q hold; it is a diagnostic companion to the minimal-p
    map, not one of the verification modes.  q must be at most table.limit.
    """
    return _first_representation(q, table, Mode.TWIN_MIN_N)


def find_any_prime_representation(q: int, table: PrimeTable) -> Representation | None:
    """Minimal prime representation of q under the same descending scan.

    q must be at most table.limit.
    """
    return _first_representation(q, table, Mode.ANY_PRIME)


# Lanes per scanned block: the kernel's working set is about 60 bytes a lane,
# 8 MB at 2^17.  A sun shard of 500k q scans alike within noise in blocks of
# 2^15 to 2^17 lanes, and slower in blocks of 2^18 and 2^19, at a higher peak.
# 2^17 is the least that keeps a twin or prime shard of 2^20 numbers (at
# most about 82k q) one block.
_BLOCK_SIZE = 1 << 17

# Odd numbers in one sieved piece of the p-bitmap (a piece of bools is 1 MB).
_PIECE = 1 << 20


class _PBits:
    """Membership (twin or prime) of the odd p: bits[h] answers p = 2h + 1
    for every h < end, and end == len(bits).

    With a segment(lo, hi, out=...) rule, grow sieves pieces of _PIECE odd
    numbers in ascending order onto the end of bits, in place, and keeps
    them, so a process sieves each piece once however many shards it scans.
    Without one, bits is a whole table's and is never grown.
    """

    def __init__(self, segment=None, bits=None):
        self._segment = segment
        self.bits = np.zeros(0, dtype=bool) if bits is None else bits
        self.end = len(self.bits)

    def grow(self, h: int) -> None:
        """Fill whole pieces until bits[h] is answered."""
        while self.end <= h:
            stop = self.end + _PIECE
            # resize is a realloc, which moves a large array's pages without
            # copying them, so a view of bits alive would be left on freed
            # memory.  numpy's own check would also count a profiler's hold
            # on the bound resize method; this one counts only bits's holders
            # beyond the attribute and getrefcount's argument.
            if sys.getrefcount(self.bits) > 2:
                raise ValueError("cannot grow the p-bitmap while a view of it is alive")
            self.bits.resize(stop, refcheck=False)
            lo = 2 * self.end + 1
            self._segment(lo, lo + 2 * _PIECE - 2, out=self.bits[self.end : stop])
            self.end = stop


def _prime_bits(table: PrimeTable | None):
    """The prime-bit source: a table's segment, or with no table a sieve."""
    return sieve_segment if table is None else table.segment


@functools.lru_cache(maxsize=4)
def _pbits(table: PrimeTable | None, twin: bool) -> _PBits:
    """The process's p-bitmap for one source and membership kind."""
    if table is not None and not twin:
        return _PBits(bits=table.odd_bits)
    if twin:
        return _PBits(functools.partial(twin_segment, prime_bits=_prime_bits(table)))
    return _PBits(sieve_segment)


def _scan_block(qs: np.ndarray, pbits: _PBits, p_out: np.ndarray, n_out: np.ndarray):
    """Vectorized representation scan over a block of odd q >= 5.

    pbits answers membership (twin or prime) of every odd p up to
    max(qs) - 2 once grown that far.  Each lane carries h = p >> 1 from
    step to step (n -> n - 1 adds n to h) and tries n from n_max down to 1,
    all lanes in step.  Writes p and n of each found q into p_out and n_out,
    int64 arrays as long as qs (views of a shard's arrays, say), and leaves
    the other entries as they were; returns the found mask.

    While many lanes are live the scan takes one step a call (_wide_steps);
    the last few thousand finish in rounds of several steps (_tail_rounds).
    Either way the bitmap grows only to the largest h a live lane looks up,
    so it ends where a scan of one step a call would leave it.  A hit writes
    only its step count, into n_out; n and p follow from it at the end.
    """
    found = np.zeros(len(qs), dtype=bool)
    n_max = _n_max_vector(qs)
    idx, h, n, step = _wide_steps(qs, n_max, pbits, found, n_out)
    _tail_rounds(idx, h, n, step, pbits, found, n_out)
    np.subtract(n_max, n_out, out=n_out, where=found)
    np.subtract(qs, n_out * (n_out + 1), out=p_out, where=found)
    return found


# Live lanes at which _scan_block leaves one-step calls for K-step rounds, and
# the cells (lanes times steps) a round looks up.  Timing the scan over 5:1.6e7
# and 1.8e8:2e8, 1,024 to 4,096 lanes and 2^13 to 2^15 cells differ by less
# than the host's noise; fewer lanes pay a dozen numpy calls a step, more pay
# for cells past a hit.
_TAIL_LANES = 2048
_ROUND_CELLS = 1 << 14


def _wide_steps(qs, n_max, pbits, found, steps):
    """One step a numpy call for every lane of qs, until at most _TAIL_LANES
    are live; returns the live lanes (idx, h, n) and the step count.

    A lane that hits sets found and steps at its q and keeps walking, dead:
    found drops its later hits.  The lanes are compacted only when fewer
    than half are live, when the least n reaches 0, or before the bitmap
    grows, which then grows to the live lanes' h alone.  bound and top are
    scalar bounds on every lane's h and n: bound adds top each step and is
    reset to the true maximum when it reaches the bitmap's end.
    """
    # the lanes are built and compacted one array at a time, in place where
    # numpy allows, and only this frame holds them, so few block-sized
    # temporaries are alive at once
    idx = np.flatnonzero(n_max >= 1)
    n = n_max[idx]
    h = qs[idx]
    h -= n * (n + 1)
    h >>= 1
    live, step = idx.size, 0
    if live > _TAIL_LANES:
        bound, top, least = int(h.max()), int(n.max()), int(n.min())
        pbits.grow(bound)
    while live > _TAIL_LANES:
        at = idx[np.flatnonzero(pbits.bits[h])]
        if at.size:
            if live < idx.size:  # dead lanes walk too: keep the first hits
                at = at[~found[at]]
            steps[at] = step
            found[at] = True
            live -= at.size
        h += n
        n -= 1
        step += 1
        bound += top
        top -= 1
        least -= 1
        if bound >= pbits.end:  # the true bound may still be below it
            bound, top = int(h.max()), int(n.max())
        if least < 1 or 2 * live < idx.size or bound >= pbits.end or live <= _TAIL_LANES:
            keep = np.flatnonzero(np.greater(n >= 1, found[idx]))  # n >= 1 and no hit
            idx = idx[keep]
            h = h[keep]
            n = n[keep]
            live = idx.size  # the lanes that failed at n = 1 went too
            if live:
                bound, top, least = int(h.max()), int(n.max()), int(n.min())
                pbits.grow(bound)
    return idx, h, n, step


def _tail_rounds(idx, h, n, step, pbits, found, steps):
    """Finish the lanes (idx, h, n), none hit, at the given step count, K
    steps a round.

    A round looks up H[i, j] = h + n*j - j*(j - 1)/2, lane i's h after j
    more steps, for every j < K in one gather; a lane's first hit is the
    argmax of its row, and a hit at j >= n, past its n = 1, is none.  K is
    halved until every H a lane may use lies below the bitmap's end: with
    h <= bound and n <= top, H[i, j] is at most bound + j*top - j*(j - 1)/2,
    which rises with j up to top.  The bitmap grows, to the lanes' largest
    h, only when not even one step fits.
    """
    while idx.size:
        bound, top = int(h.max()), int(n.max())
        pbits.grow(bound)
        k = min(max(_ROUND_CELLS // idx.size, 1), top)
        while bound + (k - 1) * top - (k - 1) * (k - 2) // 2 >= pbits.end:
            k //= 2
        j = np.arange(k)
        # the cells past a lane's n = 1 may leave the bitmap: clip them
        cells = np.take(pbits.bits, h[:, None] + n[:, None] * j - j * (j - 1) // 2, mode="clip")
        first = cells.argmax(axis=1)
        hit = cells[np.arange(idx.size), first]
        hit &= first < n
        at = np.flatnonzero(hit)
        q_at = idx[at]
        steps[q_at] = first[at] + step
        found[q_at] = True
        keep = np.flatnonzero(np.greater(n > k, hit))  # another round and no hit
        idx, h, n = idx[keep], h[keep], n[keep]
        h += n * k - k * (k - 1) // 2
        n -= k
        step += k


def _growth_ratios(qs: np.ndarray, ps: np.ndarray, ns: np.ndarray):
    """(p / cbrt(q), n / log(q)) of each representation, as float64 arrays.

    Digests, records and growth columns all take their ratios from here, so
    each ratio has the same bits wherever it is printed.  q is converted
    once for each ratio, so no float copy of it outlives its quotient."""
    return ps / np.cbrt(qs.astype(np.float64)), ns / np.log(qs.astype(np.float64))


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


# The JSON a ShardSummary field's annotation admits: a bool is no int, a
# list holds ints, and a dict maps the decimal string of each n to its p.
_JSON_TYPES = {
    "int": lambda v: type(v) is int,
    "int | None": lambda v: v is None or type(v) is int,
    "float | None": lambda v: v is None or type(v) is float,
    "list": lambda v: type(v) is list and _ints(v),
    "dict": lambda v: type(v) is dict and _ints(v.values())
    and all(type(k) is str and k.isascii() and k.isdecimal() for k in v),
}


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
        qf, pf, nf = qs, ps, ns
        if not found.all():
            block.failures = qs[~found].tolist()
            qf, pf, nf = qs[found], ps[found], ns[found]
        block.represented = int(len(qf))
        if len(qf):
            # The ratios are taken over candidates only.  With m the ratio of
            # the least p, p / cbrt(q) <= m needs p <= m cbrt(max q); with M
            # that of the largest n, n / log(q) >= M needs n >= M log(min q)
            # (qs ascends).  The margin keeps every tie, so the first index,
            # the least q, still wins.
            i, j = int(np.argmin(pf)), int(np.argmax(nf))
            least = pf[i] / np.cbrt(qf[i]) * np.cbrt(qf[-1]) * (1 + 1e-9)
            most = nf[j] / np.log(qf[j]) * np.log(qf[0]) * (1 - 1e-9)
            a, b = pf <= least, nf >= most
            qa, qb = qf[a], qf[b]
            ratio = _growth_ratios(qa, pf[a], nf[a])[0]
            nlog = _growth_ratios(qb, pf[b], nf[b])[1]
            i, j = np.argmin(ratio), np.argmax(nlog)
            block.min_ratio, block.min_ratio_q = float(ratio[i]), int(qa[i])
            block.max_nlog, block.max_nlog_q = float(nlog[j]), int(qb[j])
            dich = (2 * pf < qf) & (2 * nf * nf < qf)
            block.dichotomy_violations = int(np.count_nonzero(dich))
            block.dichotomy_examples = qf[dich][: self._EXAMPLE_CAP].tolist()
            block.sqrt_bound_violations = int(np.count_nonzero(nf * nf > qf))
            block.same_n_order_violations = int(np.count_nonzero(pf + nf * (nf + 1) != qf))
            # the per-n tables span the block's own n, from its least: a least
            # p puts n just below n_max, which is about 1.5e9 near 2^61
            base = int(nf.min())
            offset = nf - base
            counts = np.bincount(offset)
            present = np.flatnonzero(counts)
            least = np.full(len(counts), np.iinfo(np.int64).max)
            np.minimum.at(least, offset, pf)
            greatest = np.zeros_like(least)
            np.maximum.at(greatest, offset, pf)
            keys = (present + base).tolist()
            block.same_n_first = dict(zip(keys, least[present].tolist()))
            block.same_n_last = dict(zip(keys, greatest[present].tolist()))
        self._fold(block)

    def merge(self, nxt: "ShardSummary") -> None:
        """Append the digest of the range immediately after this one."""
        if nxt.lo != self.hi + 1:
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
        for n, p in nxt.same_n_first.items():
            self.same_n_first.setdefault(n, p)  # earlier p wins
        self.same_n_last.update(nxt.same_n_last)

    def to_json_dict(self) -> dict:
        """The fields by name, for json.dumps: shallow, so its lists are the
        summary's own; only the n-keyed dicts are new, with str keys."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in self._N_DICTS:
            out[key] = {str(k): v for k, v in out[key].items()}
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShardSummary":
        names = {f.name for f in fields(cls)}
        if d.keys() != names:  # no field may silently take its default
            raise ValueError(f"shard summary fields differ: {sorted(d.keys() ^ names)}")
        for f in fields(cls):
            if not _JSON_TYPES[f.type](d[f.name]):
                raise ValueError(f"shard summary field {f.name} is not {f.type}")
        # copies, so a merge into the summary leaves d as it was
        values = {k: v.copy() if isinstance(v, list) else v for k, v in d.items()}
        for key in cls._N_DICTS:
            values[key] = {int(k): v for k, v in d[key].items()}
        return cls(**values)


@dataclass
class VerificationReport:
    """Outcome of a range run: counts, explicit failures, the range's digest
    (summary, whose fields are the reported statistics), and each
    represented q with its p and n.

    failures empty means the representation property held for every
    admissible q in [summary.lo, summary.hi]; checked ==
    summary.represented + len(failures).
    """

    checked: int
    failures: list
    summary: ShardSummary
    qs: np.ndarray
    ps: np.ndarray
    ns: np.ndarray


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
) -> VerificationReport:
    """Verify representability for every admissible q in [lo, hi].

    Iterates primes (or odd integers in Sun mode) in ascending order,
    accumulating failures and statistics, _BLOCK_SIZE q at a time; the
    result is independent of the block size and of how a caller shards
    the range.  q in {2, 3} have no admissible n and are skipped unless
    include_small, in which case they count as failures.

    Prime bits come from table or, when it is None, from a sieve of
    [lo, hi] alone.  p membership comes from one bitmap per process, grown
    from the same source as far as the largest p the scan reaches and
    kept, so memory is O(hi - lo) plus that bitmap; in prime and sun mode
    a table is its own bitmap.  Both sources give the same report.
    """
    mode = Mode(mode)
    if mode == Mode.TWIN_MIN_N:
        raise ValueError("verify_range modes are twin, prime, sun")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range [{lo}, {hi}]")
    if hi > MAX_Q:
        raise ValueError(f"range end {hi} exceeds the highest supported q, 2^61")
    if table is not None and hi > table.limit:
        raise CoverageError(f"range end {hi} exceeds table limit {table.limit}")
    pbits = _pbits(table, mode == Mode.TWIN_MIN)
    summary = ShardSummary(lo=lo, hi=hi)
    if include_small:
        smalls = [q for q in (2, 3) if lo <= q <= hi and (mode != Mode.SUN_ODD or q % 2 == 1)]
        summary.checked += len(smalls)
        summary.failures.extend(smalls)

    qs = _domain(lo, hi, mode, _prime_bits(table))
    ps = np.zeros(len(qs), dtype=np.int64)
    ns = np.zeros(len(qs), dtype=np.int64)
    for start in range(0, len(qs), _BLOCK_SIZE):
        block = slice(start, start + _BLOCK_SIZE)
        found = _scan_block(qs[block], pbits, ps[block], ns[block])
        summary.absorb_block(qs[block], ps[block], ns[block], found)
    if summary.represented < len(qs):  # keep the represented q alone
        keep = ps != 0
        qs, ps, ns = qs[keep], ps[keep], ns[keep]
    return VerificationReport(checked=summary.checked, failures=list(summary.failures),
                              summary=summary, qs=qs, ps=ps, ns=ns)


def growth_columns(qs, ps, ns, bucket: int) -> list[np.ndarray]:
    """Bucketed extrema of the map, for plotting or CSV export: the columns
    q_bucket, count, max_n, min_p (int64), min_p_over_cbrt_q and
    max_n_over_log_q (float64), one row for each bucket holding a q.

    qs ascends, so each bucket is one run of the arrays and its extrema
    come from one reduceat over the runs' starts.
    """
    if bucket < 1:
        raise ValueError(f"bucket must be positive, got {bucket}")
    qs = np.asarray(qs, dtype=np.int64)
    ps = np.asarray(ps, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    if len(qs) == 0:
        raise ValueError("growth needs at least one representation")
    if qs.ndim != 1 or np.any(qs[1:] < qs[:-1]):
        raise ValueError("growth needs ascending 1-D q")
    keys = qs // bucket * bucket
    starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    ratio, nlog = _growth_ratios(qs, ps, ns)
    return [
        keys[starts],
        np.diff(starts, append=len(keys)),
        np.maximum.reduceat(ns, starts),
        np.minimum.reduceat(ps, starts),
        np.minimum.reduceat(ratio, starts),
        np.maximum.reduceat(nlog, starts),
    ]
