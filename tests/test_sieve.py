import math
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinrep import sieve
from twinrep.arithmetic import euler_phi, is_prime_64, is_squarefree, mobius
from twinrep.sieve import (
    _CACHE_HEADER,
    CoverageError,
    build_prime_table,
    load_prime_table,
    mu_phi_tables,
    prime_count,
    save_prime_table,
    sieve_segment,
    squarefree_kappa_census,
    squarefree_mask,
    twin_segment,
)


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        d = 2
        while d * d <= m:
            if m % d == 0:
                break
            d += 1
        else:
            out.append(m)
    return out


class TestPrimeTable:
    def test_small(self):
        t = build_prime_table(10)
        assert list(t.primes()) == [2, 3, 5, 7]

    def test_counts(self, table_1e6):
        assert prime_count(table_1e6, 1) == 0
        assert prime_count(table_1e6, 2) == 1
        assert prime_count(table_1e6, 100) == 25
        assert prime_count(table_1e6, 1000) == 168
        assert prime_count(table_1e6, 10**6) == 78498

    def test_against_trial_division(self):
        t = build_prime_table(5000)
        expected = set(trial_division_primes(5000))
        for m in range(0, 5001):
            assert t.is_prime(m) == (m in expected), m

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            build_prime_table(1)

    def test_primes_upto_is_a_prefix_in_any_call_order(self):
        small = [p for p in range(1001) if is_prime_64(p)]
        uptos = {0, 1, -5, 2, 3, 1000} | {p + d for p in small for d in (-1, 0, 1)}
        results = []
        for order in (sorted(uptos), sorted(uptos, reverse=True)):
            table = build_prime_table(1000)
            assert table._primes is None  # nothing is built before the first call
            got = {upto: table.primes(upto) for upto in order}
            for upto, primes in got.items():
                assert primes.dtype == np.int64
                assert primes.tolist() == [p for p in range(upto + 1) if is_prime_64(p)], upto
            with pytest.raises(CoverageError):
                table.primes(table.limit + 1)
            assert np.array_equal(table.primes(), got[1000])
            results.append(got)
        ascending, descending = results
        assert all(np.array_equal(ascending[u], descending[u]) for u in uptos)

    def test_query_past_limit_is_error(self, table_1e5):
        with pytest.raises(CoverageError):
            table_1e5.is_prime(100_001)
        with pytest.raises(CoverageError):
            prime_count(table_1e5, 100_001)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 40_000), width=st.integers(0, 3000))
@example(a=0, width=0)
@example(a=1, width=7)  # a < 9: no base primes below sqrt(b)
@example(a=8, width=0)
@example(a=29, width=0)  # b = a, a prime
@example(a=10_001, width=40)  # shorter than the base primes 41..107
@example(a=39_999, width=1)
def test_segment_bits_match_whole_table(a, width):
    b = a + width
    table = build_prime_table(max(b + 2, 5))
    want = table.odd_bits[a >> 1 : (b + 1) >> 1]
    assert np.array_equal(sieve_segment(a, b), want)
    assert np.array_equal(table.segment(a, b), want)
    if b >= 2:  # the table to b ends exactly where the segment does
        assert np.array_equal(sieve_segment(a, b), build_prime_table(b).odd_bits[a >> 1 :])
        # and a table's segment is cut short at its limit
        assert np.array_equal(build_prime_table(b).segment(a, b + 40), sieve_segment(a, b))
    # the twin rule read directly from the table, which covers m + 2 <= b + 2
    twins = np.array([table.is_prime(m) and (table.is_prime(m - 2) or table.is_prime(m + 2))
                      for m in range(a | 1, b + 1, 2)], dtype=bool)
    assert np.array_equal(twin_segment(a, b), twins)
    assert np.array_equal(twin_segment(a, b, table.segment), twins)
    # with out, the same bits are written into its first entries
    for rule, bits in ((sieve_segment, want), (twin_segment, twins)):
        out = np.ones(len(want) + 3, dtype=bool)
        got = rule(a, b, out=out)
        assert np.array_equal(got, bits) and np.array_equal(out[: len(bits)], bits)
        assert out[len(bits) :].all()


def test_segment_of_nothing_is_empty():
    assert len(sieve_segment(10, 9)) == 0 and len(twin_segment(10, 9)) == 0
    with pytest.raises(ValueError):
        sieve_segment(-1, 10)


class TestTwinSegment:
    def test_enumeration_to_20(self):
        assert (np.flatnonzero(twin_segment(0, 20)) * 2 + 1).tolist() == [3, 5, 7, 11, 13, 17, 19]

    def test_membership(self, table_1e5):
        bits = twin_segment(0, 30, table_1e5.segment)
        assert bits[3 >> 1]  # 5 is prime
        assert not bits[23 >> 1]  # 21 and 25 composite
        assert not bits[9 >> 1]  # 9 is composite

    def test_direct_definition(self, table_1e5):
        bits = twin_segment(0, 2000, table_1e5.segment)
        for p in range(2, 2000):
            expected = (
                table_1e5.is_prime(p)
                and (table_1e5.is_prime(p + 2) or (p > 2 and table_1e5.is_prime(p - 2)))
            )
            assert (p % 2 == 1 and bits[p >> 1]) == expected, p

    def test_pairing_symmetry(self, table_1e5):
        bits = twin_segment(0, table_1e5.limit - 2, table_1e5.segment)
        for p in (int(q) for q in table_1e5.primes() if 3 <= q <= table_1e5.limit - 4):
            if table_1e5.is_prime(p + 2):
                assert bits[p >> 1] and bits[(p + 2) >> 1]

    def test_counts(self):
        # pi_2(x), the twin primes <= x, counted over the odd m <= x
        assert np.count_nonzero(twin_segment(0, 4)) == 1  # only 3
        assert np.count_nonzero(twin_segment(0, 20)) == 7
        assert np.count_nonzero(twin_segment(0, 2)) == 0


class TestCensus:
    def test_examples(self, table_1e5):
        assert squarefree_kappa_census(table_1e5, 2) == (1, 1)
        assert squarefree_kappa_census(table_1e5, 3) == (2, 2)
        # kappa(7) = 27 = 3^3 drops out
        assert squarefree_kappa_census(table_1e5, 7) == (3, 4)

    def test_against_scalar_squarefree(self, table_1e5):
        primes = [int(p) for p in table_1e5.primes() if p <= 500]
        expected = sum(1 for p in primes if is_squarefree(4 * p - 1))
        assert squarefree_kappa_census(table_1e5, 500) == (expected, len(primes))

    def test_monotone_and_bounded(self, table_1e5):
        prev = 0
        for y in (2, 10, 100, 1000, 10_000):
            count, total = squarefree_kappa_census(table_1e5, y)
            assert prev <= count <= total
            prev = count

    def test_squarefree_mask(self, table_1e5):
        values = np.arange(1, 2000, dtype=np.int64)
        mask = squarefree_mask(values, table_1e5)
        for v, flag in zip(values, mask):
            assert flag == is_squarefree(int(v)), v


# values the squarefree sieve must read right: 1, each p^2 and its
# neighbours, and the numbers on both sides of every multiple of the
# segment size below 2000
_SQUARES = [p * p for p in (2, 3, 5, 7, 11, 13, 31, 43)]
_SIEVE_EDGES = sorted({1, *_SQUARES, *(s - 1 for s in _SQUARES), *(s + 1 for s in _SQUARES)})


class TestSquarefreeSieve:
    """squarefree_mask against the scalar is_squarefree, with segments of a
    few numbers, so that one call sieves many of them."""

    @staticmethod
    def check(values, table, segment):
        values = np.asarray(values, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_SQUAREFREE_SEGMENT", segment)
            mask = squarefree_mask(values, table)
        assert mask.shape == values.shape and mask.dtype == bool
        assert mask.tolist() == [is_squarefree(int(v)) for v in values]

    @pytest.mark.parametrize("segment", [1, 2, 3, 7, 64, 1 << 20])
    def test_edges(self, table_1e5, segment):
        around = [k * segment + d for k in range(1, 2000 // segment + 1) for d in (-1, 0, 1)]
        self.check(_SIEVE_EDGES, table_1e5, segment)
        self.check(sorted(v for v in around if v >= 1), table_1e5, segment)
        # segments that start at a value, ending on each side of the next
        self.check([5, 5 + segment - 1, 5 + segment, 5 + segment + 1], table_1e5, segment)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(1, 5000), st.sampled_from(_SIEVE_EDGES),
                                     st.integers(1, 10**10)), min_size=1, max_size=60),
           segment=st.sampled_from([1, 5, 16, 100, 4096]), shape=st.sampled_from(["sorted", "as-is", "2-D"]))
    def test_any_values_any_segment(self, table_1e5, values, segment, shape):
        # ascending 1-D input is sieved; a descending pair or a second axis is rejected
        arr = np.array(sorted(values) if shape == "sorted" else values, dtype=np.int64)
        if shape == "2-D":
            arr = arr.reshape(1, -1)
        if arr.ndim == 1 and not np.any(arr[1:] < arr[:-1]):
            self.check(arr, table_1e5, segment)
        else:
            with pytest.raises(ValueError):
                squarefree_mask(arr, table_1e5)

    def test_duplicates_pass_and_unsorted_or_2d_is_rejected(self, table_1e5):
        values = np.array([1, 1, 4, 7, 49, 49, 50, 50], dtype=np.int64)
        assert squarefree_mask(values, table_1e5).tolist() == [True, True, False, True,
                                                               False, False, False, False]
        with pytest.raises(ValueError):
            squarefree_mask(np.array([50, 49, 1, 50], dtype=np.int64), table_1e5)
        with pytest.raises(ValueError):
            squarefree_mask(values.reshape(2, -1), table_1e5)

    def test_bad_values(self, table_1e5):
        assert squarefree_mask(np.zeros(0, dtype=np.int64), table_1e5).shape == (0,)
        with pytest.raises(ValueError):
            squarefree_mask(np.array([5, 0, 7]), table_1e5)
        with pytest.raises(CoverageError):  # isqrt(10^10 + 10^6) is past the table
            squarefree_mask(np.array([7, 10**10 + 10**6]), build_prime_table(1000))


class TestMuPhiTables:
    def test_against_scalars(self, table_1e5):
        mu, phi = mu_phi_tables(table_1e5, 2000)
        for n in range(1, 2001):
            assert mu[n] == mobius(n)
            assert phi[n] == euler_phi(n)

    @pytest.mark.parametrize("share", [1, 8, 10**9])
    def test_small_and_square_edges(self, table_1e5, share):
        # the split at isqrt(upto) moves past p at upto = p^2; share 10^9
        # gives one prime above it a pass, share 1 all of them one pass
        edges = [1, 2, 3, 4] + [p * p + d for p in (2, 3, 5, 7, 11, 31) for d in (-1, 0, 1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_MU_PHI_SHARE", share)
            for upto in edges:
                mu, phi = mu_phi_tables(table_1e5, upto)
                assert (mu.dtype, phi.dtype, len(mu), len(phi)) == (np.int8, np.int64, upto + 1, upto + 1)
                assert (mu[0], phi[0]) == (0, 0)
                assert mu[1:].tolist() == [mobius(n) for n in range(1, upto + 1)], upto
                assert phi[1:].tolist() == [euler_phi(n) for n in range(1, upto + 1)], upto

    def test_past_table_limit_is_coverage_error(self):
        table = build_prime_table(1000)
        mu, phi = mu_phi_tables(table, 1000)
        assert (mu[997], phi[997]) == (-1, 996)
        with pytest.raises(CoverageError):
            mu_phi_tables(table, 1001)


class TestBinaryCache:
    def test_roundtrip(self, tmp_path, table_1e5):
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        loaded = load_prime_table(path)
        assert loaded.limit == table_1e5.limit
        assert np.array_equal(loaded.odd_bits, table_1e5.odd_bits)
        assert loaded._primes is None  # built on the first primes() call only

    def test_header_segment_field_is_ignored(self, tmp_path, table_1e5):
        # a cache written with another segment width holds the same bits
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        raw = pathlib.Path(path).read_bytes()
        fields = list(_CACHE_HEADER.unpack(raw[: _CACHE_HEADER.size]))
        assert fields[4] == 1 << 20
        fields[4] = 16
        pathlib.Path(path).write_bytes(_CACHE_HEADER.pack(*fields) + raw[_CACHE_HEADER.size :])
        loaded = load_prime_table(path)
        assert loaded.limit == table_1e5.limit
        assert np.array_equal(loaded.odd_bits, table_1e5.odd_bits)

    def test_rejects_bad_magic(self, tmp_path, table_1e5):
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        raw = bytearray(pathlib.Path(path).read_bytes())
        raw[0] ^= 0xFF
        pathlib.Path(path).write_bytes(raw)
        with pytest.raises(ValueError, match="magic"):
            load_prime_table(path)

    def test_rejects_corrupt_payload(self, tmp_path, table_1e5):
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        raw = bytearray(pathlib.Path(path).read_bytes())
        raw[-1] ^= 0x55
        pathlib.Path(path).write_bytes(raw)
        with pytest.raises(ValueError, match="checksum"):
            load_prime_table(path)

    def test_rejects_truncated(self, tmp_path, table_1e5):
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        raw = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(raw[:10])
        with pytest.raises(ValueError):
            load_prime_table(path)

    @pytest.mark.parametrize("resize", [lambda b: b[: len(b) // 2], lambda b: b + b"\xff" * 8])
    def test_rejects_payload_length_with_matching_crc(self, tmp_path, table_1e5, resize):
        # the CRC matches, so only the length tells; unpackbits would pad a short payload
        path = str(tmp_path / "table.bin")
        save_prime_table(table_1e5, path)
        raw = pathlib.Path(path).read_bytes()
        fields = _CACHE_HEADER.unpack(raw[: _CACHE_HEADER.size])
        payload = resize(raw[_CACHE_HEADER.size :])
        header = _CACHE_HEADER.pack(*fields[:-1], zlib.crc32(payload))
        pathlib.Path(path).write_bytes(header + payload)
        with pytest.raises(ValueError, match="payload has"):
            load_prime_table(path)
