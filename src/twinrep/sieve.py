"""Bulk prime generation and indexed queries.

A :class:`PrimeTable` is the ground truth for every primality condition
in the package: a segmented odds-only sieve whose bit for m is set iff m
is prime, for all 2 <= m <= limit.  Queries past the limit raise
:class:`CoverageError` rather than guessing.  From the same bits come
twin bits over a segment (a prime p is a twin when p-2 or p+2 is also
prime, so both members of a pair qualify), the squarefree-4p-1 census and
the mu and phi tables.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoverageError",
    "ResourceLimitError",
    "PrimeTable",
    "build_prime_table",
    "sieve_segment",
    "twin_segment",
    "prime_count",
    "squarefree_kappa_census",
    "squarefree_mask",
    "mu_phi_tables",
    "save_prime_table",
    "load_prime_table",
]

# Numbers per segment of a prime-table build, written in the cache header.
SEGMENT_SIZE = 1 << 20

_CACHE_MAGIC = b"TPT1"
_CACHE_HEADER = struct.Struct("<4sHHQQQI")  # magic, version, pad, limit, segment, nbits, crc


class CoverageError(ValueError):
    """A query reached past what a table can answer exactly."""


class ResourceLimitError(RuntimeError):
    """A sieve build exceeded the available memory budget."""


@dataclass(eq=False)
class PrimeTable:
    """Primality bits for [2, limit]; odd_bits[i] answers for m = 2*i + 1.

    The bits never change after construction; primes() caches the primes
    it builds.  Equality and hashing are by identity, so caches can key on
    the table itself.
    """

    limit: int
    odd_bits: np.ndarray  # bool, length (limit + 1) // 2
    _primes: np.ndarray | None = field(default=None, repr=False)  # every prime <= _primes_upto
    _primes_upto: int = field(default=1, repr=False)

    def is_prime(self, m: int) -> bool:
        """Exact verdict for 0 <= m <= limit; raises CoverageError above."""
        if m > self.limit:
            raise CoverageError(f"primality of {m} is outside table limit {self.limit}")
        if m < 2:
            return False
        if m % 2 == 0:
            return m == 2
        return bool(self.odd_bits[m >> 1])

    def segment(self, lo: int, hi: int) -> np.ndarray:
        """Prime bits of the odd m in [lo, hi], indexed like sieve_segment(lo, hi).

        A view of odd_bits, cut short at the limit: entries past it are absent.
        """
        if lo < 0:
            raise ValueError(f"segment needs lo >= 0, got {lo}")
        return self.odd_bits[lo >> 1 : (hi + 1) >> 1]

    def primes(self, upto: int | None = None) -> np.ndarray:
        """The primes <= upto (default limit) as an ascending int64 array.

        A prefix of one cached array, which grows only as far as a caller
        has asked; CoverageError above the limit, empty below 2.
        """
        upto = self.limit if upto is None else upto
        if upto > self.limit:
            raise CoverageError(f"primes up to {upto} are outside table limit {self.limit}")
        if upto < 2:
            return np.zeros(0, dtype=np.int64)
        if upto > self._primes_upto:
            odds = np.flatnonzero(self.odd_bits[: (upto + 1) // 2]).astype(np.int64) * 2 + 1
            self._primes = np.concatenate(([2], odds))
            self._primes_upto = upto
        return self._primes[: np.searchsorted(self._primes, upto, side="right")]


def _cross_off(out: np.ndarray, first: int, base: list[int]) -> None:
    """Prime bits for the odd m = 2 * (first + i) + 1, written into out[i].

    base must hold the odd primes up to isqrt of the last m, ascending; it
    may hold more.  This is the one Eratosthenes loop of the package: whole
    tables, the q-range of a shard and the pieces of a scan's p-bitmap all
    run it.
    """
    out[:] = True
    if first == 0 and len(out):
        out[0] = False  # m = 1
    lo = 2 * first + 1
    last = 2 * (first + len(out)) - 1
    for p in base:
        square = p * p
        if square > last:
            break
        start = max(square, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        # a segment shorter than p may hold no multiple: the slice is then empty
        out[(start >> 1) - first :: p] = False


def _base_primes(limit: int) -> list[int]:
    """The odd primes <= isqrt(limit): enough to sieve every m <= limit."""
    root = math.isqrt(max(limit, 0))
    if root < 3:
        return []
    return (np.flatnonzero(sieve_segment(3, root)) * 2 + 3).tolist()  # entry 0 is m = 3


def sieve_segment(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Prime bits of the odd m in [lo, hi]; entry i answers m = 2 * ((lo >> 1) + i) + 1.

    Equal to build_prime_table(hi).odd_bits[lo >> 1 : (hi + 1) >> 1], from a
    segment of (hi - lo) / 2 bits and the base primes up to isqrt(hi).  With
    out, the bits are written into its first entries and that view returned.
    """
    if lo < 0:
        raise ValueError(f"sieve_segment needs lo >= 0, got {lo}")
    first = lo >> 1
    size = max(((hi + 1) >> 1) - first, 0)
    out = np.empty(size, dtype=bool) if out is None else out[:size]
    _cross_off(out, first, _base_primes(hi))
    return out


def twin_segment(lo: int, hi: int, prime_bits=sieve_segment,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Twin bits of the odd m in [lo, hi], indexed like sieve_segment(lo, hi).

    m is a twin when m is prime and m - 2 or m + 2 is prime.  prime_bits is
    sieve_segment or a PrimeTable's segment.  The bits are read one odd
    number wider at each end, so the rule is exact on every m returned.
    From a table the result is cut short at its limit and exact for
    m <= limit - 2, where m + 2 is still covered.  With out, the bits are
    written into its first entries and that view returned.
    """
    if lo < 0:
        raise ValueError(f"twin_segment needs lo >= 0, got {lo}")
    first, stop = lo >> 1, (hi + 1) >> 1
    if stop <= first:
        return np.zeros(0, dtype=bool)
    below = 1 if first else 0  # m = -1 needs no entry: it reads as not prime
    bits = prime_bits(2 * (first - below) + 1, 2 * stop + 1)
    size = max(min(stop - first, len(bits) - below), 0)
    out = np.empty(size, dtype=bool) if out is None else out[:size]
    right = min(size, len(bits) - below - 1)  # entries whose m + 2 has a bit
    out[:right] = bits[below + 1 : below + 1 + right]  # m + 2 prime
    out[right:] = False
    out[1 - below :] |= bits[: size - 1 + below]  # or m - 2 prime
    out &= bits[below : below + size]
    return out


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve [2, limit] segment by segment.

    A segment of SEGMENT_SIZE numbers bounds the working set of the build;
    the bits are the same for every segment width.
    """
    if limit < 2:
        raise ValueError(f"build_prime_table requires limit >= 2, got {limit}")
    size = (limit + 1) // 2
    try:
        bits = np.empty(size, dtype=bool)
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise ResourceLimitError(f"cannot allocate sieve bits for limit={limit}") from exc
    base = _base_primes(limit)
    step = SEGMENT_SIZE // 2  # odd numbers per segment
    for first in range(0, size, step):
        _cross_off(bits[first : first + step], first, base)
    return PrimeTable(limit=limit, odd_bits=bits)


def prime_count(table: PrimeTable, x: int) -> int:
    """pi(x) for x <= table.limit."""
    if x > table.limit:
        raise CoverageError(f"prime_count({x}) exceeds table limit {table.limit}")
    if x < 2:
        return 0
    count = 1  # the prime 2
    if x >= 3:
        count += int(np.count_nonzero(table.odd_bits[: ((x - 1) >> 1) + 1]))
    return count


def build_twin_index(table: PrimeTable) -> np.ndarray:
    """Twin bits of the odd m <= table.limit - 2, as twin_segment gives them.

    Kept only because perfbench/setup_probe.py imports it to time a twin
    workload's set-up; the library itself reads twin_segment, and this goes
    when the probe's set-up plans are revised.
    """
    return twin_segment(0, table.limit - 2, table.segment)


# Numbers per segment of squarefree_mask's sieve, whose marks are one bool a
# number.  The census to 10^7 took 20 ms with 2^20, 24 to 28 ms with 2^18,
# 2^19, 2^21 or 2^22 and 38 ms with 2^16: smaller segments pay more Python
# steps, larger ones leave the cache.
_SQUAREFREE_SEGMENT = 1 << 20


def squarefree_mask(values: np.ndarray, table: PrimeTable) -> np.ndarray:
    """Boolean mask of the squarefree entries of values, 1-D and ascending
    (equal neighbours allowed); ValueError for any other shape or order.

    A segmented sieve over the values' range: from each value not yet read,
    one segment of _SQUAREFREE_SEGMENT numbers has the multiples of every
    p*p crossed off (p prime <= isqrt(values[-1])), and the values in it
    are read back, so a stretch holding no value is never sieved.  A square
    below the segment size is crossed off by a strided slice; a larger one
    has at most one multiple in a segment, so all of those are found by one
    vector of offsets.  Needs table primes up to isqrt(values[-1]).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1 or np.any(values[1:] < values[:-1]):
        raise ValueError("squarefree_mask needs ascending 1-D values")
    if values.size == 0:
        return np.ones(0, dtype=bool)
    if int(values[0]) < 1:
        raise ValueError("squarefree_mask requires positive values")
    squares = table.primes(math.isqrt(int(values[-1]))) ** 2
    size = _SQUAREFREE_SEGMENT
    split = int(np.searchsorted(squares, size))
    small, large = squares[:split].tolist(), squares[split:]
    out = np.empty(len(values), dtype=bool)
    marks = np.empty(min(size, int(values[-1] - values[0]) + 1), dtype=bool)
    start = 0
    while start < len(values):
        lo = int(values[start])
        stop = int(np.searchsorted(values, lo + size))
        hi = int(values[stop - 1])  # the segment's marks answer lo..hi
        seg = marks[: hi - lo + 1]
        seg[:] = True
        for square in small:
            if square > hi:
                break
            seg[-lo % square :: square] = False
        offsets = -lo % large[: np.searchsorted(large, hi, side="right")]
        seg[offsets[offsets < len(seg)]] = False
        out[start:stop] = seg[values[start:stop] - lo]
        start = stop
    return out


def squarefree_kappa_census(table: PrimeTable, y: int) -> tuple[int, int]:
    """(s(y), pi(y)): primes p <= y with 4p - 1 squarefree, and all primes <= y."""
    if math.isqrt(4 * y) > table.limit:
        raise CoverageError(f"census needs primes up to isqrt({4 * y})")
    ps = table.primes(y)
    kappas = ps * 4
    kappas -= 1
    count = int(np.count_nonzero(squarefree_mask(kappas, table)))
    return (count, int(len(ps)))


# One vector pass of mu_phi_tables lists at most upto // _MU_PHI_SHARE
# multiples of the primes above isqrt(upto).  Its three int64 arrays over
# them then take 3 bytes an integer, next to the 9 of mu and phi.
_MU_PHI_SHARE = 8


def mu_phi_tables(table: PrimeTable, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays mu[0..upto] (int8) and phi[0..upto] (int64), exact.

    Each prime p <= isqrt(upto) takes in-place slice passes: mu flips sign
    on the multiples of p and is zeroed on those of p*p, and phi[k] is
    divided by p once before it is multiplied by p - 1, so all arithmetic
    stays integral.  A prime above isqrt(upto) divides each k <= upto at
    most once and no k has two of them, so those primes take no pass each:
    all their multiples k, with the prime of each, are listed in a few
    vector passes, and mu[k] and phi[k] updated the same way.
    """
    if upto < 1:
        raise ValueError(f"mu_phi_tables requires upto >= 1, got {upto}")
    primes = table.primes(upto)  # before mu and phi: a coverage gap allocates nothing
    mu = np.ones(upto + 1, dtype=np.int8)
    mu[0] = 0
    phi = np.arange(upto + 1, dtype=np.int64)
    split = int(np.searchsorted(primes, math.isqrt(upto), side="right"))
    for p in primes[:split].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        multiples = phi[p::p]
        multiples //= p
        multiples *= p - 1
    large = primes[split:]
    counts = upto // large  # multiples of each
    ends = np.cumsum(counts)
    cap = max(upto // _MU_PHI_SHARE, 1)
    first = 0
    while first < len(large):  # a pass over large[first:last], cap multiples or one prime
        done = int(ends[first - 1]) if first else 0
        last = max(int(np.searchsorted(ends, done + cap, side="right")), first + 1)
        ells, reps = large[first:last], counts[first:last]
        ell = np.repeat(ells, reps)  # the prime of each multiple
        # k = ell, 2 ell, ... reps * ell for each ell, as a running sum
        k = ell.copy()
        k[np.cumsum(reps[:-1])] -= reps[:-1] * ells[:-1]
        np.cumsum(k, out=k)
        mu[k] = -mu[k]
        value = phi[k]
        value //= ell
        ell -= 1
        value *= ell
        phi[k] = value
        first = last
    return mu, phi


def save_prime_table(table: PrimeTable, path: str) -> None:
    """Write the little-endian binary cache: header + CRC + packed bits."""
    packed = np.packbits(table.odd_bits)
    payload = packed.tobytes()
    header = _CACHE_HEADER.pack(
        _CACHE_MAGIC,
        1,
        0,
        table.limit,
        SEGMENT_SIZE,
        len(table.odd_bits),
        zlib.crc32(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_prime_table(path: str) -> PrimeTable:
    """Reload a cached table; header and checksum are validated strictly."""
    with open(path, "rb") as fh:
        raw = fh.read(_CACHE_HEADER.size)
        if len(raw) != _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated prime-table header")
        # the segment field records how the table was built, not its bits
        magic, version, _pad, limit, _segment, nbits, crc = _CACHE_HEADER.unpack(raw)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"{path}: not a prime-table cache (bad magic {magic!r})")
        if version != 1:
            raise ValueError(f"{path}: unsupported cache version {version}")
        payload = fh.read()
    if zlib.crc32(payload) != crc:
        raise ValueError(f"{path}: checksum mismatch, cache is corrupt")
    if nbits != (limit + 1) // 2:
        raise ValueError(f"{path}: inconsistent header (limit vs bit count)")
    need = (nbits + 7) // 8
    if len(payload) != need:
        # unpackbits(count=nbits) would pad a short payload with composites
        raise ValueError(f"{path}: payload has {len(payload)} bytes, {nbits} bits need {need}")
    # unpackbits writes 0 and 1, valid bools as they are: a view, not a second copy
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits).view(bool)
    return PrimeTable(limit=int(limit), odd_bits=bits)
