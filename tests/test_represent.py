import contextlib
import copy
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep import represent
from twinrep.represent import (
    Mode,
    Representation,
    ShardSummary,
    _growth_ratios,
    _PBits,
    _scan_block,
    find_any_prime_representation,
    find_min_n_twin_representation,
    find_min_twin_representation,
    growth_columns,
    n_max,
    verify_range,
)
from twinrep.sieve import CoverageError, build_prime_table, sieve_segment, twin_segment


def merged(parts):
    """The digest of the parts' ranges: ShardSummary.merge of each part, in
    order, into an empty digest, as the CLI folds shards."""
    total = ShardSummary(lo=parts[0].lo, hi=parts[0].lo - 1)
    for part in parts:
        total.merge(part)
    return total


def mask_segment(mask):
    """A segment(lo, hi, out) rule that reads one whole membership mask."""
    def segment(lo, hi, out):
        part = mask[lo >> 1 : (hi + 1) >> 1]
        out[: len(part)] = part
        return out[: len(part)]
    return segment


def scan(qs, pbits):
    """_scan_block into fresh zeroed arrays: (p, n, found)."""
    ps, ns = np.zeros(len(qs), dtype=np.int64), np.zeros(len(qs), dtype=np.int64)
    return ps, ns, _scan_block(qs, pbits, ps, ns)


# _TAIL_LANES under which _scan_block takes one-step calls alone, both paths
# as in use, and K-step rounds alone
KERNEL_PATHS = (0, represent._TAIL_LANES, represent._BLOCK_SIZE)


@contextlib.contextmanager
def patched(**constants):
    """represent's module constants set to the given values, within the context
    (hypothesis rejects function-scoped fixtures such as monkeypatch)."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(represent, name, value)
        yield


def sieved_segment(twin):
    return twin_segment if twin else sieve_segment


def lemma_counts(qs, ps, ns):
    """Scalar oracle for the vectorised lemma counts of ShardSummary.

    (i) equal n with q' < q forces p' < p (checked through a per-n
    running maximum); (ii) n <= isqrt(q); (iii) exceptions to the n^2
    form of the dichotomy, "2p >= q or 2n^2 >= q".  (i) and (ii) always
    hold; the n^2 form has exceptions (eleven below the millionth
    prime, the first q = 11 with (p, n) = (5, 2)).  The n(n+1) form,
    2p > q or 2n(n+1) > q, is the one that always holds, since
    p + n(n+1) = q is odd.  Input is minimal-twin (q, p, n) in ascending q.
    """
    last_p_by_n: dict[int, int] = {}
    same_n_order = sqrt_bound = dichotomy = 0
    for q, p, n in zip(map(int, qs), map(int, ps), map(int, ns)):
        prev = last_p_by_n.get(n)
        if prev is not None and prev >= p:
            same_n_order += 1
        last_p_by_n[n] = p
        if n * n > q:
            sqrt_bound += 1
        if 2 * p < q and 2 * n * n < q:
            dichotomy += 1
    return {
        "same_n_order_violations": same_n_order,
        "sqrt_bound_violations": sqrt_bound,
        "dichotomy_violations": dichotomy,
    }


def exhaustive_min_twin(q, table):
    """Oracle: scan every n ascending, collect all twin hits, take min p.
    A twin p is prime with p - 2 or p + 2 prime, each read from the table."""
    hits = []
    for n in range(1, n_max(q) + 1):
        p = q - n * (n + 1)
        if table.is_prime(p) and (table.is_prime(p - 2) or table.is_prime(p + 2)):
            hits.append((p, n))
    return min(hits) if hits else None


class TestNMax:
    def test_examples(self):
        assert n_max(5) == 1  # 1*2 = 2 <= 2
        assert n_max(13) == 2  # 2*3 = 6 <= 10 < 12

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            n_max(4)

    def test_definition_and_sqrt_bound(self):
        for q in range(5, 100_000, 97):
            n = n_max(q)
            assert n * (n + 1) <= q - 3 < (n + 1) * (n + 2)
            assert n <= math.isqrt(q)


# the largest q whose 4(q - 3) + 1 is below 2^52, where _n_max_vector takes
# one float64 square root
_FAST_TOP = (1 << 50) + 2


def edge_qs(ks):
    """The q on both sides of every step of n_max for k in ks: n_max(q) = k
    from q = k(k + 1) + 3, where 4(q - 3) + 1 = (2k + 1)^2, and k - 1 at the
    q before, whose 4(q - 3) + 1 is (2k + 1)^2 - 4, the largest below."""
    return [q for k in ks for q in (k * (k + 1) + 2, k * (k + 1) + 3)
            if 5 <= q <= represent.MAX_Q]


class TestNMaxVector:
    """The kernel's n_max against the exact scalar one."""

    @staticmethod
    def check(qs):
        got = represent._n_max_vector(np.array(qs, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [n_max(q) for q in qs]

    @pytest.mark.parametrize("k0", [1, 1000, (1 << 25) - 600, (1 << 25) + 5, 1518500249 - 600])
    def test_every_step_in_a_window(self, k0):
        qs = edge_qs(range(k0, k0 + 600))
        self.check(qs)
        # alone, the q of the window up to 2^50 + 2 take the one-root path
        self.check([q for q in qs if q <= _FAST_TOP])
        self.check([q for q in qs if q > _FAST_TOP])

    def test_both_sides_of_the_paths_and_the_height_limit(self):
        top = represent.MAX_Q
        self.check([_FAST_TOP - 1, _FAST_TOP])
        self.check([_FAST_TOP, _FAST_TOP + 1])
        self.check([5, 7, top - 2, top - 1, top])
        self.check([])
        with pytest.raises(ValueError, match="2\\^61"):
            verify_range(top - 1, top + 1, Mode.SUN_ODD)
        with pytest.raises(ValueError, match="2\\^61"):
            verify_range(top + 1, top + 1, Mode.TWIN_MIN)

    @settings(max_examples=200, deadline=None)
    @given(qs=st.lists(st.one_of(st.integers(5, 10**6), st.integers(5, _FAST_TOP),
                                 st.integers(5, represent.MAX_Q)), max_size=20))
    def test_any_qs(self, qs):
        self.check(qs)


class TestRepresentation:
    def test_round_trip_enforced(self):
        Representation(q=13, p=7, n=2, mode=Mode.TWIN_MIN)
        with pytest.raises(ValueError):
            Representation(q=14, p=7, n=2, mode=Mode.TWIN_MIN)
        with pytest.raises(ValueError):
            Representation(q=13, p=11, n=0, mode=Mode.TWIN_MIN)

    def test_p_determines_n(self):
        # injectivity of n(n+1): same q and p force the same n
        r = Representation(q=13, p=7, n=2, mode=Mode.TWIN_MIN)
        assert r.q - r.p == r.n * (r.n + 1)


class TestMinimalTwin:
    def test_known_values(self, table_1e6):
        assert (find_min_twin_representation(5, table_1e6).p,
                find_min_twin_representation(5, table_1e6).n) == (3, 1)
        r13 = find_min_twin_representation(13, table_1e6)
        assert (r13.p, r13.n) == (7, 2)  # candidates 11 and 7, minimal is 7
        r11 = find_min_twin_representation(11, table_1e6)
        assert (r11.p, r11.n) == (5, 2)  # n=1 gives 9, composite

    def test_small_q(self, table_1e6):
        assert find_min_twin_representation(3, table_1e6) is None
        assert find_min_twin_representation(2, table_1e6) is None

    def test_minimal_p_family(self, table_1e6):
        # q = n^2 + n + 3 prime has p_q = 3, the smallest possible twin
        for n in (7, 10, 22):
            q = n * n + n + 3
            r = find_min_twin_representation(q, table_1e6)
            assert (r.p, r.n) == (3, n), q

    def test_against_exhaustive_scan(self, table_1e6):
        rng = random.Random(99)
        primes = table_1e6.primes()
        qs = [int(q) for q in rng.sample(list(primes[(primes >= 5) & (primes <= 10**6)]), 1000)]
        for q in qs:
            got = find_min_twin_representation(q, table_1e6)
            expected = exhaustive_min_twin(q, table_1e6)
            assert expected is not None
            assert (got.p, got.n) == expected, q

    def test_coverage_error(self, table_1e5):
        # p + 2 <= q, so every q up to the limit is answered and none above it
        for find in (find_min_twin_representation, find_min_n_twin_representation,
                     find_any_prime_representation):
            assert find(99_991, table_1e5) is not None  # the largest prime <= 1e5
            with pytest.raises(CoverageError):
                find(table_1e5.limit + 1, table_1e5)

    def test_min_n_variant(self, table_1e6):
        # q = 997: minimal-p map gives (5, 31); smallest-n map gives (617, 19)
        r = find_min_twin_representation(997, table_1e6)
        assert (r.p, r.n) == (5, 31)
        r = find_min_n_twin_representation(997, table_1e6)
        assert (r.p, r.n) == (617, 19)
        assert r.mode == Mode.TWIN_MIN_N


class TestAnyPrime:
    def test_examples(self, table_1e6):
        assert find_any_prime_representation(5, table_1e6).p == 3
        assert find_any_prime_representation(3, table_1e6) is None
        # q = 9 (odd-integer mode): minimal prime is 3 via n = 2
        r9 = find_any_prime_representation(9, table_1e6)
        assert (r9.p, r9.n) == (3, 2)

    def test_minimality(self, table_1e6):
        rng = random.Random(5)
        for _ in range(200):
            q = rng.randrange(5, 10**5) | 1
            got = find_any_prime_representation(q, table_1e6)
            best = None
            for n in range(1, n_max(q) + 1):
                p = q - n * (n + 1)
                if table_1e6.is_prime(p):
                    best = min(best, (p, n)) if best else (p, n)
            assert (got is None) == (best is None)
            if got:
                assert (got.p, got.n) == best


class TestVerifyRange:
    def test_twin_mode_no_failures(self, table_1e6):
        report = verify_range(5, 10**4, Mode.TWIN_MIN, table_1e6)
        assert report.failures == []
        assert report.checked == 1227  # pi(1e4) - 2
        assert report.checked == len(report.qs)

    def test_matches_scalar_path(self, table_1e6):
        report = verify_range(5, 3000, Mode.TWIN_MIN, table_1e6)
        primes = [int(p) for p in table_1e6.primes() if 5 <= p <= 3000]
        assert list(report.qs) == primes
        for q, p, n in zip(report.qs, report.ps, report.ns):
            r = find_min_twin_representation(int(q), table_1e6)
            assert (r.p, r.n) == (int(p), int(n))

    def test_prime_and_sun_modes(self, table_1e6):
        assert verify_range(5, 10**4, Mode.ANY_PRIME, table_1e6).failures == []
        sun = verify_range(5, 10**4, Mode.SUN_ODD, table_1e6)
        assert sun.failures == []
        assert sun.checked == len(range(5, 10**4 + 1, 2))

    def test_small_q_handling(self, table_1e6):
        skip = verify_range(2, 4, Mode.TWIN_MIN, table_1e6)
        assert skip.checked == 0 and skip.failures == []
        counted = verify_range(2, 4, Mode.TWIN_MIN, table_1e6, include_small=True)
        assert counted.checked == 2 and counted.failures == [2, 3]

    def test_block_size_invariance(self, table_1e6):
        a = verify_range(5, 20_000, Mode.TWIN_MIN, table_1e6)
        with patched(_BLOCK_SIZE=211):
            b = verify_range(5, 20_000, Mode.TWIN_MIN, table_1e6)
        assert a.summary == b.summary
        assert np.array_equal(a.ps, b.ps) and np.array_equal(a.ns, b.ns)

    def test_a_long_sun_shard_holds_one_block_of_lanes(self):
        # a sun shard of 2^21 numbers holds 2^20 q, eight blocks of 2^17: its
        # peak counts the per-q arrays (q, p and n, 24 bytes a q) for every q
        # and the scan's lanes (about 60 bytes a lane) for one block only
        lo = 10**7
        hi = lo + (1 << 21) - 1
        verify_range(lo, hi, Mode.SUN_ODD)  # the p-bitmap is grown first
        tracemalloc.start()
        try:
            report = verify_range(lo, hi, Mode.SUN_ODD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.checked == 1 << 20
        assert report.checked > 4 * represent._BLOCK_SIZE
        assert peak <= 32 * report.checked + 64 * represent._BLOCK_SIZE

    def test_sharding_determinism(self, table_1e6):
        whole = verify_range(5, 50_000, Mode.TWIN_MIN, table_1e6)
        rng = random.Random(3)
        cuts = sorted(rng.sample(range(6, 50_000), 5))
        bounds = list(zip([5] + cuts, [c - 1 for c in cuts] + [50_000]))
        parts = [
            verify_range(a, b, Mode.TWIN_MIN, table_1e6).summary
            for a, b in bounds
        ]
        total = merged(parts)
        assert total == whole.summary
        assert total.checked == whole.checked
        assert total.failures == whole.failures

    def test_coverage_errors(self, table_1e5):
        with pytest.raises(CoverageError):
            verify_range(5, 10**6, Mode.TWIN_MIN, table_1e5)
        with pytest.raises(CoverageError):
            verify_range(5, 10**5, Mode.TWIN_MIN, build_prime_table(50_000))

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from([Mode.TWIN_MIN, Mode.ANY_PRIME, Mode.SUN_ODD]),
           small=st.booleans(), hi=st.integers(5, 6000), block=st.integers(1, 700),
           cuts=st.lists(st.integers(6, 6000), max_size=6, unique=True))
    def test_any_blocks_and_shards_match_single_pass(self, table_1e6,
                                                     mode, small, hi, block, cuts):
        lo = 2 if small else 5
        whole = verify_range(lo, hi, mode, table_1e6, include_small=small)
        cuts = sorted(c for c in cuts if c <= hi)
        bounds = zip([lo] + cuts, [c - 1 for c in cuts] + [hi])
        with patched(_BLOCK_SIZE=block):
            parts = [verify_range(a, b, mode, table_1e6, include_small=small).summary
                     for a, b in bounds]
        assert merged(parts).to_json_dict() == whole.summary.to_json_dict()
        # same_n_first/last against a walk in ascending q
        first, last = {}, {}
        for p, n in zip(whole.ps.tolist(), whole.ns.tolist()):
            first.setdefault(n, p)
            last[n] = p
        assert whole.summary.same_n_first == first
        assert whole.summary.same_n_last == last

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from([Mode.TWIN_MIN, Mode.ANY_PRIME, Mode.SUN_ODD]),
           halves=st.lists(st.integers(2, 499_999), min_size=1, max_size=120, unique=True),
           block=st.integers(1, 64), lo=st.integers(1, 1_000_001), width=st.integers(0, 800))
    def test_scan_kernel_matches_scalar_finders(self, table_1e6, twins_1e6,
                                                mode, halves, block, lo, width):
        if mode == Mode.TWIN_MIN:
            mask, find = twins_1e6, lambda q: find_min_twin_representation(q, table_1e6)
        else:
            mask, find = table_1e6.odd_bits, lambda q: find_any_prime_representation(q, table_1e6)

        def expected(qs):
            reps = [find(q) for q in qs]
            return ([r.p if r else 0 for r in reps], [r.n if r else 0 for r in reps],
                    [r is not None for r in reps])

        # the kernel alone, on random sorted odd q >= 5 cut into blocks, and
        # through verify_range's blocks, on a random window
        qs = np.array(sorted(2 * h + 1 for h in halves), dtype=np.int64)
        want = list(expected(qs.tolist()))
        hi = min(lo + width, 1_000_001)
        domain = [q for q in range(max(lo, 5) | 1, hi + 1, 2)
                  if mode == Mode.SUN_ODD or table_1e6.is_prime(q)]
        ps, ns, found = expected(domain)
        for tail in KERNEL_PATHS:
            with patched(_TAIL_LANES=tail, _BLOCK_SIZE=block):
                blocks = [scan(qs[s : s + block], _PBits(bits=mask))
                          for s in range(0, len(qs), block)]
                report = verify_range(lo, hi, mode, table_1e6)
            assert [np.concatenate(a).tolist() for a in zip(*blocks)] == want
            assert report.qs.tolist() == [q for q, f in zip(domain, found) if f]
            assert report.ps.tolist() == [p for p, f in zip(ps, found) if f]
            assert report.ns.tolist() == [n for n, f in zip(ns, found) if f]
            assert report.failures == [q for q, f in zip(domain, found) if not f]

    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from([Mode.TWIN_MIN, Mode.ANY_PRIME, Mode.SUN_ODD]),
           width=st.one_of(st.integers(1, 64), st.integers(65, 1 << 19)),
           sieved=st.booleans(), data=st.data())
    def test_any_window_width_matches_scalar_finders(self, table_1e6, twins_1e6, pieces,
                                                     mode, width, sieved, data):
        # the window is the piece a growth step sieves; a bitmap below q holds
        # every piece, so q stays below 500 pieces of this width
        top = min(499_999, 500 * width)
        halves = data.draw(st.lists(st.integers(2, top), min_size=1, max_size=120, unique=True))
        twin = mode == Mode.TWIN_MIN
        if twin:
            mask, find = twins_1e6, lambda q: find_min_twin_representation(q, table_1e6)
        else:
            mask, find = table_1e6.odd_bits, lambda q: find_any_prime_representation(q, table_1e6)
        qs = np.array(sorted(2 * h + 1 for h in halves), dtype=np.int64)
        reps = [find(q) for q in qs.tolist()]
        with pieces(width):
            pbits = _PBits(sieved_segment(twin) if sieved else mask_segment(mask))
            ps, ns, found = scan(qs, pbits)
        assert ps.tolist() == [r.p if r else 0 for r in reps]
        assert ns.tolist() == [r.n if r else 0 for r in reps]
        assert found.tolist() == [r is not None for r in reps]
        # the filled pieces are the mask's, each growth kept the bits before it
        end = min(pbits.end, len(mask))
        assert np.array_equal(pbits.bits[:end], mask[:end])

    @pytest.mark.parametrize("sieved", [False, True])
    @pytest.mark.parametrize("width", [1, 7, 300])
    def test_lanes_cross_windows(self, table_1e6, twins_1e6, pieces, sieved, width):
        # q with deep scans: the bitmap grows many times while each lane
        # passes piece ends before its hit (p_q up to 85091)
        qs = np.array([997, 2909, 35999, 42187, 999_983], dtype=np.int64)
        visited, grown = [], []
        source = sieved_segment(True) if sieved else mask_segment(twins_1e6)
        with pieces(width):
            pbits = _PBits(lambda lo, hi, out: visited.append(lo) or source(lo, hi, out=out))
            grow = pbits.grow
            pbits.grow = lambda h: grown.append(h >= pbits.end) or grow(h)
            ps, ns, found = scan(qs, pbits)
        # ascending, each piece once, none skipped
        assert visited == list(range(1, 2 * pbits.end, 2 * width))
        assert grown.count(True) > 5 and len(pbits.bits) == pbits.end
        for q, p, n in zip(qs.tolist(), ps.tolist(), ns.tolist()):
            r = find_min_twin_representation(q, table_1e6)
            assert (p, n) == (r.p, r.n)

    @pytest.mark.parametrize("width", [1, 2, 5, 64])
    def test_lane_ending_on_a_window_edge_is_carried(self, pieces, width):
        # with no member anywhere each lane runs to n = 1, whose p = q - 2 has
        # h = (q - 3) / 2; these q put that h on the first odd of a piece
        qs = np.array([2 * width * k + 3 for k in range(2, 40)], dtype=np.int64)
        qs = qs[qs >= 5]
        for tail in KERNEL_PATHS:
            with pieces(width), patched(_TAIL_LANES=tail):
                ps, ns, found = scan(qs, _PBits(mask_segment(np.zeros(qs[-1], dtype=bool))))
                assert not found.any() and not ps.any() and not ns.any()
                # nor with p = 1 a member, which a round's lookups past n = 1
                # reach when the bitmap is filled far enough ahead
                one = np.zeros(qs[-1], dtype=bool)
                one[0] = True
                ps, ns, found = scan(qs, _PBits(bits=one))
                assert not found.any() and not ps.any() and not ns.any()
                ps, ns, found = scan(qs, _PBits(mask_segment(np.ones(qs[-1], dtype=bool))))
                assert found.all() and ns.tolist() == [n_max(q) for q in qs.tolist()]
        with pieces(width):
            # an h on the end of the filled bits grows them by one piece
            pbits = _PBits(mask_segment(np.ones(qs[-1], dtype=bool)))
            pbits.grow(3 * width - 1)
            assert pbits.end == 3 * width
            pbits.grow(3 * width - 1)
            assert pbits.end == 3 * width
            pbits.grow(3 * width)
            assert pbits.end == 4 * width and pbits.bits[: pbits.end].all()

    @pytest.mark.parametrize("sieved", [False, True])
    @pytest.mark.parametrize("width", [1, 7, 300])
    def test_bitmap_grows_in_place_to_its_end(self, twins_1e6, pieces, sieved, width):
        # each grow extends bits to exactly its end; growths of one piece and
        # of several both keep every bit filled before them
        source = sieved_segment(True) if sieved else mask_segment(twins_1e6)
        with pieces(width):
            pbits = _PBits(source)
            for h in range(0, 60 * width, 5 * width // 2 + 1):
                pbits.grow(h)
                assert len(pbits.bits) == pbits.end > h
                assert np.array_equal(pbits.bits, twins_1e6[: pbits.end])

    @pytest.mark.parametrize("width", [1, 7, 300])
    def test_a_view_of_the_bitmap_stops_its_growth(self, pieces, width):
        with pieces(width):
            pbits = _PBits(mask_segment(np.ones(10 * width, dtype=bool)))
            pbits.grow(0)
            view = pbits.bits[:1]
            with pytest.raises(ValueError):
                pbits.grow(pbits.end)  # a resize would free the memory under view
            assert pbits.end == width and view.all()
            del view
            pbits.grow(pbits.end)
            assert len(pbits.bits) == pbits.end == 2 * width and pbits.bits.all()

    @pytest.mark.parametrize("mode, lo, span", [(Mode.TWIN_MIN, 10**9, 2 * 10**5),
                                                (Mode.TWIN_MIN, 2 * 10**10, 10**5),
                                                (Mode.ANY_PRIME, 10**9, 2 * 10**5),
                                                (Mode.SUN_ODD, 10**7, 3 * 10**5)])
    def test_bitmap_ends_at_the_piece_of_the_deepest_lookup(self, pieces, mode, lo, span):
        # a lane looks up p down to p_q, or to q - 2 when it fails; the bitmap
        # holds the pieces up to the deepest such p and no more, whatever the
        # scan looks ahead
        with pieces(represent._PIECE):
            report = verify_range(lo, lo + span, mode)
            deepest = max([int(report.ps.max()) // 2] + [(q - 3) // 2 for q in report.failures])
            pbits = represent._pbits(None, mode == Mode.TWIN_MIN)
            assert pbits.end == -(-(deepest + 1) // represent._PIECE) * represent._PIECE

    @pytest.mark.parametrize("mode", [Mode.TWIN_MIN, Mode.ANY_PRIME])
    def test_bitmap_grows_under_a_profiler(self, pieces, mode):
        # a profiler holds the bound resize method of the array it resizes,
        # which numpy's own reference check counts as a view
        with pieces(4096):
            want = verify_range(5, 300_000, mode)
        with pieces(4096):
            sys.setprofile(lambda *args: None)
            try:
                got = verify_range(5, 300_000, mode)
            finally:
                sys.setprofile(None)
        assert got.summary.to_json_dict() == want.summary.to_json_dict()
        for a, b in ((got.qs, want.qs), (got.ps, want.ps), (got.ns, want.ns)):
            assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from([Mode.TWIN_MIN, Mode.ANY_PRIME, Mode.SUN_ODD]),
           span=st.integers(0, 1500), small=st.booleans(),
           block=st.integers(1, 700), width=st.integers(1, 4096), data=st.data())
    def test_sieved_source_matches_table_source(self, table_1e6, pieces,
                                                mode, span, small, block, width, data):
        # every piece below the deepest p is sieved: lo stays below 1000 pieces
        lo = data.draw(st.integers(1, min(990_000, 1000 * width)))
        hi = lo + span
        want = verify_range(lo, hi, mode, table_1e6, include_small=small)
        with pieces(width), patched(_BLOCK_SIZE=block):
            got = verify_range(lo, hi, mode, include_small=small)
        assert got.summary.to_json_dict() == want.summary.to_json_dict()
        for a, b in ((got.qs, want.qs), (got.ps, want.ps), (got.ns, want.ns)):
            assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from([Mode.TWIN_MIN, Mode.ANY_PRIME, Mode.SUN_ODD]),
           limit=st.integers(2, 20_000), lo=st.integers(1, 20_000), small=st.booleans(),
           width=st.one_of(st.integers(1, 64), st.integers(65, 4096)))
    def test_table_to_its_limit_matches_sieved_source(self, pieces, mode, limit, lo, small,
                                                      width):
        # the table's last piece, and the twin bits read past it, are cut short at its end
        lo = min(lo, limit)
        table = build_prime_table(limit)
        with pieces(width):
            got = verify_range(lo, limit, mode, table, include_small=small)
            want = verify_range(lo, limit, mode, include_small=small)
        assert got.summary.to_json_dict() == want.summary.to_json_dict()
        for a, b in ((got.qs, want.qs), (got.ps, want.ps), (got.ns, want.ns)):
            assert np.array_equal(a, b)

    def test_sieved_windows_are_built_once(self, table_1e6, pieces):
        with pieces(64):
            pbits = represent._pbits(None, True)
            assert represent._pbits(None, True) is pbits
            calls = []
            source = pbits._segment
            pbits._segment = lambda lo, hi, out: calls.append(lo) or source(lo, hi, out=out)
            scan(np.array([999_983]), pbits)
            assert calls and pbits.end >= 85091 // 2
            scan(np.array([999_983]), pbits)  # the bits are kept
            assert len(calls) == len(set(calls)) == pbits.end // 64
        # prime bits from a table are the table's own, never copied
        assert represent._pbits(table_1e6, False).bits is table_1e6.odd_bits

    def test_summary_json_round_trip(self, table_1e6):
        report = verify_range(5, 30_000, Mode.TWIN_MIN, table_1e6)
        clone = ShardSummary.from_json_dict(report.summary.to_json_dict())
        assert clone == report.summary

    def test_merge_leaves_its_parts_unchanged(self, table_1e6):
        parts = [verify_range(a, b, Mode.TWIN_MIN, table_1e6).summary
                 for a, b in ((5, 3000), (3001, 6000))]
        # deep copies: to_json_dict shares the summary's lists
        before = [copy.deepcopy(part.to_json_dict()) for part in parts]
        total = merged(parts)
        assert [part.to_json_dict() for part in parts] == before
        assert total.to_json_dict() == verify_range(5, 6000, Mode.TWIN_MIN,
                                                    table_1e6).summary.to_json_dict()

    @pytest.mark.parametrize("first, second", [((5, 101), (101, 200)), ((5, 200), (300, 400))])
    def test_merge_rejects_overlap_and_gap(self, table_1e6, first, second):
        # merged, the overlap would count q = 101 twice and the gap would
        # report 5:400 without the q in 201..299
        head, tail = (verify_range(a, b, Mode.TWIN_MIN, table_1e6).summary
                      for a, b in (first, second))
        before = head.to_json_dict()
        with pytest.raises(ValueError, match="shard order"):
            head.merge(tail)
        assert head.to_json_dict() == before
        with pytest.raises(ValueError, match="shard order"):
            merged([head, tail])

    def test_from_json_dict_copies_lists(self):
        # a merge into a parsed summary must leave the parsed dicts unchanged
        first = ShardSummary(lo=1, hi=10, failures=[2], dichotomy_examples=[11]).to_json_dict()
        second = ShardSummary(lo=11, hi=20, failures=[13], dichotomy_examples=[19]).to_json_dict()
        total = ShardSummary.from_json_dict(first)
        total.merge(ShardSummary.from_json_dict(second))
        assert (total.failures, total.dichotomy_examples) == ([2, 13], [11, 19])
        assert (first["failures"], first["dichotomy_examples"]) == ([2], [11])


# q values whose ratios tie: 8q has twice the cube root of q and q^2 about
# twice the log; the odd q just above 2^60 are one double, so equal p or
# equal n tie exactly
_TIE_QS = [5, 25, 40, 125, 320, 625, 1_000_003, 8_000_024]
_ONE_DOUBLE = [2**60 + 1, 2**60 + 3, 2**60 + 5]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 50), tied=st.booleans())
def test_block_extrema_match_the_full_arrays(data, size, tied):
    # absorb_block takes the ratios of its candidates only; its extrema and
    # their q must be the argmin and argmax over every represented q, ties
    # going to the first index, so the least q
    def draw(values, least, most):
        some = st.sampled_from(values)
        if not tied:
            some = st.one_of(some, st.integers(least, most))
        return np.array(data.draw(st.lists(some, min_size=size, max_size=size)), dtype=np.int64)
    qs = np.sort(draw(_ONE_DOUBLE if tied else _TIE_QS + _ONE_DOUBLE, 5, 2**61))
    # n spans little: the digest's per-n tables take 8 bytes for each n from the least to the largest
    ps, ns = draw([2, 3, 12, 2**40], 2, 2**61), draw([1, 2, 8, 5000], 1, 5000)
    found = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    if data.draw(st.booleans()):
        found[:] = True
    summary = ShardSummary(lo=1, hi=2**61)
    summary.absorb_block(qs, ps, ns, found)
    want = (None, None, None, None)
    if found.any():
        qf = qs[found]
        ratio, nlog = _growth_ratios(qf, ps[found], ns[found])
        i, j = int(np.argmin(ratio)), int(np.argmax(nlog))
        want = (float(ratio[i]), int(qf[i]), float(nlog[j]), int(qf[j]))
    assert (summary.min_ratio, summary.min_ratio_q, summary.max_nlog, summary.max_nlog_q) == want
    assert summary.failures == qs[~found].tolist()


def test_per_n_tables_at_height_span_only_the_blocks_n():
    # near 10^18 every n is near 10^9: tables from n = 0 would take 8 GB, so
    # the digest's same-n dicts must come from tables over the block's n alone
    rng = np.random.default_rng(5)
    size = 1000
    qs = np.sort(rng.choice(10**7, size, replace=False)) * 2 + 2 * 10**18 + 1
    ns = 10**9 + rng.integers(0, 300, size)  # repeated n, so first and last differ
    ps = qs - ns * (ns + 1)
    found = rng.random(size) < 0.95
    summary = ShardSummary(lo=1, hi=2**61)
    tracemalloc.start()
    try:
        summary.absorb_block(qs, ps, ns, found)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first, last = {}, {}
    for p, n in zip(ps[found].tolist(), ns[found].tolist()):  # in ascending q
        first.setdefault(n, p)
        last[n] = p
    assert summary.same_n_first == first
    assert summary.same_n_last == last
    assert len(first) > 250 and first != last
    assert peak < 1 << 20


class TestLemmaChecks:
    def test_counts_on_1e4(self, table_1e6):
        # frozen from an exhaustive run: the two order lemmas never
        # fail (they are algebraic), while the claimed dichotomy
        # 2p >= q or 2n^2 >= q has eight small-q exceptions
        report = verify_range(5, 10**4, Mode.TWIN_MIN, table_1e6)
        checks = lemma_counts(report.qs, report.ps, report.ns)
        assert checks == {
            "same_n_order_violations": 0,
            "sqrt_bound_violations": 0,
            "dichotomy_violations": 8,
        }
        assert report.summary.dichotomy_examples == [11, 19, 293, 307, 587, 727, 2909, 3593]

    def test_scalar_equals_vectorized(self, table_1e6):
        report = verify_range(5, 10**5, Mode.TWIN_MIN, table_1e6)
        checks = lemma_counts(report.qs, report.ps, report.ns)
        assert checks["same_n_order_violations"] == report.summary.same_n_order_violations
        assert checks["sqrt_bound_violations"] == report.summary.sqrt_bound_violations
        assert checks["dichotomy_violations"] == report.summary.dichotomy_violations

    def test_dichotomy_counterexample_q11(self, table_1e6):
        # q = 11 -> (p, n) = (5, 2): 2*5 < 11 and 2*4 < 11, yet the
        # exact inequality 2n(n+1) = 12 > 11 does hold
        r = find_min_twin_representation(11, table_1e6)
        assert 2 * r.p < r.q and 2 * r.n * r.n < r.q
        assert 2 * r.n * (r.n + 1) > r.q

    def test_exact_dichotomy_always_holds(self, table_1e6):
        # the provable form: 2p > q or 2n(n+1) > q, for every representation
        report = verify_range(5, 10**5, Mode.TWIN_MIN, table_1e6)
        ok = (2 * report.ps > report.qs) | (2 * report.ns * (report.ns + 1) > report.qs)
        assert bool(ok.all())

    def test_single_representation(self, table_1e6):
        r = find_min_twin_representation(13, table_1e6)
        checks = lemma_counts([r.q], [r.p], [r.n])
        assert checks["same_n_order_violations"] == 0
        assert checks["sqrt_bound_violations"] == 0


class TestGrowthSeries:
    def test_single_bucket_is_global(self, table_1e6):
        report = verify_range(5, 10**4, Mode.TWIN_MIN, table_1e6)
        columns = growth_columns(report.qs, report.ps, report.ns, bucket=10**6)
        assert [len(col) for col in columns] == [1] * 6
        assert [col.dtype for col in columns] == [np.int64] * 4 + [np.float64] * 2
        q_bucket, count, max_n, min_p = (int(col[0]) for col in columns[:4])
        assert (q_bucket, count) == (0, len(report.qs))
        assert max_n == max(report.ns.tolist())
        assert min_p == min(report.ps.tolist())

    def test_frozen_extrema_to_1e6(self, table_1e6):
        # measured, not assumed: the minimal-p map dips far below the
        # cube root (p = 3 whenever q - 3 = n(n+1)), so the global
        # minimum ratio over [5, 1e6] is 0.0300500767... at q = 995009
        report = verify_range(5, 10**6, Mode.TWIN_MIN, table_1e6)
        _, _, _, min_p, min_ratio, max_nlog = growth_columns(report.qs, report.ps, report.ns,
                                                             bucket=10**7)
        assert min_p.tolist() == [3]
        assert abs(min_ratio[0] - 0.030050076714553987) < 1e-12
        assert report.summary.min_ratio_q == 995009
        assert abs(max_nlog[0] - 72.3152315298092) < 1e-10

    def test_rejects_bad_bucket(self, table_1e6):
        r = find_min_twin_representation(13, table_1e6)
        with pytest.raises(ValueError):
            growth_columns([r.q], [r.p], [r.n], bucket=0)
        with pytest.raises(ValueError):
            growth_columns([], [], [], bucket=10)
        with pytest.raises(ValueError):  # q must ascend: buckets are runs of the arrays
            growth_columns([17, 13], [3, 3], [3, 2], bucket=10)
        with pytest.raises(ValueError):
            growth_columns([[13, 17]], [[3, 3]], [[2, 3]], bucket=10)
