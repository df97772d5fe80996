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

from .arithmetic import integer_sqrt

__all__ = [
    "CoverageError",
    "ResourceLimitError",
    "PrimeTable",
    "TwinIndex",
    "build_prime_table",
    "prime_count",
    "build_twin_index",
    "twin_count",
    "squarefree_kappa_census",
    "squarefree_mask",
    "mu_phi_tables",
    "save_prime_table",
    "load_prime_table",
]

DEFAULT_SEGMENT_SIZE = 1 << 20

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
    segment_size: int
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

    def primes(self) -> np.ndarray:
        """All primes <= limit as an ascending int64 array (cached)."""
        if self._primes is None:
            odds = np.flatnonzero(self.odd_bits).astype(np.int64) * 2 + 1
            self._primes = np.concatenate(([2], odds)) if self.limit >= 2 else odds
        return self._primes


def build_prime_table(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeTable:
    """Sieve [2, limit] segment by segment.

    The resulting bits are identical for every segment_size; the
    parameter only bounds the working-set size of the build.
    """
    if limit < 2:
        raise ValueError(f"build_prime_table requires limit >= 2, got {limit}")
    if segment_size < 16:
        raise ValueError(f"segment_size must be >= 16, got {segment_size}")
    size = (limit + 1) // 2
    try:
        bits = np.zeros(size, dtype=bool)
        bits[1:] = True  # odd m >= 3 assumed prime until a factor is found
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise ResourceLimitError(f"cannot allocate sieve bits for limit={limit}") from exc

    root = math.isqrt(limit)
    # Python ints keep the per-segment offset arithmetic fast; the list holds
    # only the primes up to sqrt(limit)
    base = []
    if root >= 3:
        base = (np.flatnonzero(build_prime_table(root).odd_bits) * 2 + 1).tolist()
    for lo in range(3, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)  # values [lo, hi)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= hi:
                continue
            bits[start >> 1 : (hi + 1) >> 1 : p] = False
    return PrimeTable(limit=limit, odd_bits=bits, segment_size=segment_size)


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
    bits = table.odd_bits
    mask = np.zeros_like(bits)
    mask[1:] = bits[:-1]  # 2i - 1 prime
    mask[:-1] |= bits[1:]  # or 2i + 3 prime
    mask &= bits
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
    root = integer_sqrt(int(values.max()))
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
    if integer_sqrt(4 * y) > table.limit:
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
        table.segment_size,
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
        magic, version, _pad, limit, segment_size, nbits, crc = _CACHE_HEADER.unpack(raw)
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
    return PrimeTable(limit=int(limit), odd_bits=bits, segment_size=int(segment_size))
