"""Bulk prime generation and indexed queries.

A :class:`PrimeTable` is the ground truth for every primality condition
in the package: a segmented odds-only sieve whose bit for m is set iff m
is prime, for all 2 <= m <= limit.  Queries past the limit raise
:class:`CoverageError` rather than guessing.  On top of it sit the
twin-prime index (a prime p is a twin when p-2 or p+2 is also prime,
so both members of a pair qualify) and the squarefree-4p-1 census.
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
    "TwinIndex",
    "build_prime_table",
    "sieve_segment",
    "twin_segment",
    "prime_count",
    "build_twin_index",
    "twin_count",
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
    """A query reached past what a table or index can answer exactly."""


class ResourceLimitError(RuntimeError):
    """A sieve build exceeded the available memory budget."""


@dataclass(eq=False)
class PrimeTable:
    """Primality bits for [2, limit]; odd_bits[i] answers for m = 2*i + 1.

    Immutable after construction and safe for concurrent reads.  Equality
    and hashing are by identity, so caches can key on the table itself.
    """

    limit: int
    odd_bits: np.ndarray  # bool, length (limit + 1) // 2
    _primes: np.ndarray | None = field(default=None, repr=False)

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

    def primes(self) -> np.ndarray:
        """All primes <= limit as an ascending int64 array (cached)."""
        if self._primes is None:
            odds = np.flatnonzero(self.odd_bits).astype(np.int64) * 2 + 1
            self._primes = np.concatenate(([2], odds)) if self.limit >= 2 else odds
        return self._primes


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


def _twin_mask(bits: np.ndarray, out: np.ndarray, below: int) -> np.ndarray:
    """Twin bits, written into out[i] for the odd m whose prime bit is
    bits[below + i]: m is prime and m - 2 or m + 2 is prime, reading the m
    past either end of bits as not prime."""
    size = len(out)
    right = min(size, len(bits) - below - 1)  # entries whose m + 2 has a bit
    out[:right] = bits[below + 1 : below + 1 + right]  # m + 2 prime
    out[right:] = False
    out[1 - below :] |= bits[: size - 1 + below]  # or m - 2 prime
    out &= bits[below : below + size]
    return out


def twin_segment(lo: int, hi: int, prime_bits=sieve_segment,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Twin bits of the odd m in [lo, hi], indexed like sieve_segment(lo, hi).

    prime_bits is sieve_segment or a PrimeTable's segment.  The bits are read
    one odd number wider at each end, so the rule of build_twin_index is
    exact on every m it returns.  From a table the result is cut short at
    its limit and exact for m <= limit - 2, where m + 2 is still covered.
    With out, the bits are written into its first entries and that view
    returned.
    """
    if lo < 0:
        raise ValueError(f"twin_segment needs lo >= 0, got {lo}")
    first, stop = lo >> 1, (hi + 1) >> 1
    if stop <= first:
        return np.zeros(0, dtype=bool)
    below = 1 if first else 0  # m = -1 needs no entry: it reads as not prime
    bits = prime_bits(2 * (first - below) + 1, 2 * stop + 1)
    size = max(min(stop - first, len(bits) - below), 0)
    return _twin_mask(bits, np.empty(size, dtype=bool) if out is None else out[:size], below)


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


@dataclass
class TwinIndex:
    """Sorted index of twin primes with decidable membership up to coverage.

    coverage = table.limit - 2 because membership of p needs p + 2.
    """

    coverage: int
    twins: np.ndarray  # ascending int64
    odd_mask: np.ndarray  # bool over odds; odd_mask[p >> 1] <-> p is twin

    def is_twin(self, p: int) -> bool:
        if p > self.coverage:
            raise CoverageError(f"twin membership of {p} exceeds coverage {self.coverage}")
        if p < 3 or p % 2 == 0:
            return False
        return bool(self.odd_mask[p >> 1])

    def next_twin(self, m: int) -> int | None:
        """Smallest twin prime >= m, or None if none exists within coverage."""
        if m > self.coverage:
            raise CoverageError(f"successor query at {m} exceeds coverage {self.coverage}")
        i = int(np.searchsorted(self.twins, m, side="left"))
        return int(self.twins[i]) if i < len(self.twins) else None


def build_twin_index(table: PrimeTable) -> TwinIndex:
    """Index every prime p <= limit - 2 with p - 2 or p + 2 prime."""
    if table.limit < 5:
        raise ValueError(f"twin index needs table.limit >= 5, got {table.limit}")
    coverage = table.limit - 2
    mask = _twin_mask(table.odd_bits, np.empty_like(table.odd_bits), 0)
    mask[(coverage >> 1) + 1 :] = False  # p + 2 undecidable past coverage
    twins = np.flatnonzero(mask).astype(np.int64) * 2 + 1
    return TwinIndex(coverage=coverage, twins=twins, odd_mask=mask)


def twin_count(index: TwinIndex, x: int) -> int:
    """pi_2(x): twin primes <= x, under the either-neighbour definition."""
    if x > index.coverage:
        raise CoverageError(f"twin_count({x}) exceeds coverage {index.coverage}")
    return int(np.searchsorted(index.twins, x, side="right"))


def squarefree_mask(values: np.ndarray, table: PrimeTable) -> np.ndarray:
    """Boolean mask of squarefree entries, by trial division over p*p.

    Needs table primes up to isqrt(max(values)).
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.ones(values.shape, dtype=bool)
    if values.size == 0:
        return out
    if int(values.min()) < 1:
        raise ValueError("squarefree_mask requires positive values")
    root = math.isqrt(int(values.max()))
    if root > table.limit:
        raise CoverageError(
            f"squarefree test needs primes up to {root}, table limit is {table.limit}"
        )
    primes = table.primes()
    for p in primes[primes <= root]:
        out &= values % (int(p) * int(p)) != 0
    return out


def squarefree_kappa_census(table: PrimeTable, y: int) -> tuple[int, int]:
    """(s(y), pi(y)): primes p <= y with 4p - 1 squarefree, and all primes <= y."""
    if y > table.limit:
        raise CoverageError(f"census at {y} exceeds table limit {table.limit}")
    if math.isqrt(4 * y) > table.limit:
        raise CoverageError(f"census needs primes up to isqrt({4 * y})")
    if y < 2:
        return (0, 0)
    primes = table.primes()
    ps = primes[primes <= y]
    kappas = 4 * ps - 1
    count = int(np.count_nonzero(squarefree_mask(kappas, table)))
    return (count, int(len(ps)))


def mu_phi_tables(table: PrimeTable, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays mu[0..upto] (int8) and phi[0..upto] (int64), exact.

    Built by ascending per-prime passes over the table's primes <= upto:
    phi[k] is divided by each prime factor exactly once before
    multiplying by p - 1, so all arithmetic stays integral; mu flips sign
    per prime factor and is zeroed on p*p.
    """
    if upto < 1:
        raise ValueError(f"mu_phi_tables requires upto >= 1, got {upto}")
    if upto > table.limit:
        raise CoverageError(f"mu_phi_tables({upto}) exceeds table limit {table.limit}")
    mu = np.ones(upto + 1, dtype=np.int8)
    mu[0] = 0
    phi = np.arange(upto + 1, dtype=np.int64)
    primes = table.primes()
    for p in primes[primes <= upto].tolist():
        mu[p::p] *= -1
        if p * p <= upto:
            mu[p * p :: p * p] = 0
        phi[p::p] = phi[p::p] // p * (p - 1)
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
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits).astype(bool)
    return PrimeTable(limit=int(limit), odd_bits=bits)
