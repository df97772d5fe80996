import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep import singular
from twinrep.arithmetic import euler_phi, is_prime_64, is_squarefree, jacobi, mobius
from twinrep.sieve import CoverageError, mu_phi_tables, squarefree_mask
from twinrep.singular import (
    dirichlet_series_partial,
    singular_series,
    singular_series_many,
    tail_partial,
)


# Scalar references: the one-symbol-at-a-time loops the library ran before
# it called the array kernel jacobi_many.  The library must match them bit
# for bit, since the factors, quotients and the product order are unchanged.


def singular_series_scalar(kappa, cutoff, table):
    """(cutoff, value, last_factor_deviation) by a running product."""
    value = 1.0
    last_factor = 1.0
    last_prime = 3
    primes = table.primes()
    for ell in primes[(primes >= 3) & (primes <= cutoff)]:
        ell = int(ell)
        factor = 1.0 - jacobi((-kappa) % ell, ell) / (ell - 1.0)
        value *= factor
        last_factor = factor
        last_prime = ell
    return last_prime, value, abs(last_factor - 1.0)


def series_terms_scalar(kappa, lo, hi, mu, phi):
    terms = []
    for q in range(lo + 1, hi + 1):
        if q % 2 == 0 or mu[q] == 0:
            continue
        terms.append(int(mu[q]) / int(phi[q]) * jacobi((-kappa) % q, q))
    return terms


def tail_partial_scalar(kappa, Q1, Q2, table):
    mu, phi = mu_phi_tables(table, Q2)
    return math.fsum(series_terms_scalar(kappa, Q1, Q2, mu, phi))


def dirichlet_series_partial_scalar(kappa, upto, table):
    mu, phi = mu_phi_tables(table, upto)
    return math.fsum([1.0] + series_terms_scalar(kappa, 1, upto, mu, phi))


def same_bits(x, y):
    return type(x) is float and x.hex() == y.hex()


# p = 2 and 3 give the smallest kappa; p = 7, 13, 23 give kappa = 27, 51,
# 91, which share a factor with small ell and q; 2^61 + 15 is a prime whose
# kappa = 4p - 1 exceeds 2^63, beyond int64
_EDGE_PS = (2, 3, 7, 13, 23, 2**61 + 15)


class TestScalarOracle:
    @pytest.mark.parametrize("p", _EDGE_PS)
    def test_edges(self, table_1e5, p):
        kappa = 4 * p - 1
        # cutoff 3 and 4, prime and composite cutoffs
        for cutoff in (3, 4, 5, 7, 9, 11, 91, 97, 100, 997, 1001, 4999, 5000):
            sv = singular_series(kappa, cutoff, table_1e5)
            cut, value, dev = singular_series_scalar(kappa, cutoff, table_1e5)
            assert sv.cutoff == cut and type(sv.cutoff) is int
            assert same_bits(sv.value, value), (kappa, cutoff)
            assert same_bits(sv.last_factor_deviation, dev), (kappa, cutoff)
        # Q2 = Q1 + 1 on both parities, and ranges holding q that share a
        # factor with kappa
        for q1, q2 in ((3, 4), (3, 5), (4, 5), (5, 6), (90, 91), (3, 99), (50, 1000), (3, 4001)):
            assert same_bits(tail_partial(kappa, q1, q2, table_1e5),
                             tail_partial_scalar(kappa, q1, q2, table_1e5)), (kappa, q1, q2)
        for upto in (1, 2, 3, 4, 27, 91, 100, 3001):
            assert same_bits(dirichlet_series_partial(kappa, upto, table_1e5),
                             dirichlet_series_partial_scalar(kappa, upto, table_1e5))

    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, 9591), cutoff=st.integers(3, 6000),
           q1=st.integers(3, 3000), width=st.integers(1, 3000))
    def test_random_kappa(self, table_1e5, index, cutoff, q1, width):
        kappa = 4 * int(table_1e5.primes()[index]) - 1
        sv = singular_series(kappa, cutoff, table_1e5)
        cut, value, dev = singular_series_scalar(kappa, cutoff, table_1e5)
        assert sv.cutoff == cut
        assert same_bits(sv.value, value) and same_bits(sv.last_factor_deviation, dev)
        q2 = q1 + width
        assert same_bits(tail_partial(kappa, q1, q2, table_1e5),
                         tail_partial_scalar(kappa, q1, q2, table_1e5))
        assert same_bits(dirichlet_series_partial(kappa, q2, table_1e5),
                         dirichlet_series_partial_scalar(kappa, q2, table_1e5))


class TestSingularSeries:
    def test_hand_example_kappa11_cutoff3(self, table_1e5):
        # single factor: 1 - (1/2) * jacobi(1, 3) = 1/2
        sv = singular_series(11, 3, table_1e5)
        assert sv.value == 0.5
        assert sv.cutoff == 3
        assert sv.last_factor_deviation == 0.5

    def test_factor_at_prime_dividing_kappa_is_one(self, table_1e5):
        # kappa = 11: including ell = 11 must not change the value
        upto_7 = singular_series(11, 10, table_1e5).value
        upto_11 = singular_series(11, 11, table_1e5).value
        assert upto_11 == upto_7

    def test_factor_bounds(self, table_1e5):
        # every partial product stays positive; factors in [1-1/(l-1), 1+1/(l-1)]
        primes = [int(p) for p in table_1e5.primes() if 3 <= p <= 1000]
        for kappa in (7, 11, 19, 43):
            value = 1.0
            for ell in primes:
                factor = 1.0 - jacobi((-kappa) % ell, ell) / (ell - 1.0)
                assert 1 - 1 / (ell - 1) <= factor <= 1 + 1 / (ell - 1)
                value *= factor
                assert value > 0

    def test_deterministic(self, table_1e5):
        a = singular_series(11, 10**4, table_1e5)
        b = singular_series(11, 10**4, table_1e5)
        assert a.value == b.value  # bit-identical

    def test_cutoff_delta_small(self, table_1e6):
        v5 = singular_series(11, 10**5, table_1e6).value
        v6 = singular_series(11, 10**6, table_1e6).value
        assert abs(v6 - v5) < 0.05
        # frozen regression for the default truncation
        assert abs(v5 - 0.5099941416381794) < 1e-12

    def test_validation(self, table_1e5):
        with pytest.raises(ValueError):
            singular_series(12, 100, table_1e5)  # not 4p - 1
        with pytest.raises(ValueError):
            singular_series(15, 100, table_1e5)  # p = 4 not prime
        with pytest.raises(ValueError):
            singular_series(11, 2, table_1e5)
        with pytest.raises(CoverageError):
            singular_series(11, 10**6, table_1e5)


# _JACOBI_RATIO at which every ell takes a factor table (none is this large),
# and at which every ell takes Jacobi symbols
ALL_TABLE, ALL_JACOBI = 10**9, 0


def many_with(kappas, cutoff, table, **constants):
    """singular_series_many with the module constants monkeypatched."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(singular, name, value)
        return singular_series_many(kappas, cutoff, table)


class TestBatchEvaluation:
    def test_matches_scalar_bitwise(self, table_1e5):
        kappas = np.array([4 * p - 1 for p in (2, 3, 5, 7, 11, 13, 97, 997)], dtype=np.int64)
        batch = singular_series_many(kappas, 10**4, table_1e5)
        for kappa, value in zip(kappas, batch):
            assert singular_series(int(kappa), 10**4, table_1e5).value == value

    # p = 2 and 3 give the smallest kappa; p = 2, 7, 13, 23 give kappa = 7,
    # 27, 51, 91, which share a factor with an ell the product passes
    @settings(max_examples=25, deadline=None)
    @given(extra=st.lists(st.integers(0, 2261), max_size=12), cutoff=st.integers(3, 3000))
    def test_matches_scalar_bitwise_random(self, table_1e5, extra, cutoff):
        primes = table_1e5.primes()
        ps = sorted({2, 3, 7, 13, 23} | {int(primes[i]) for i in extra})
        kappas = np.array([4 * p - 1 for p in ps], dtype=np.int64)
        batch = singular_series_many(kappas, cutoff, table_1e5)
        assert batch.tolist() == [
            singular_series(int(k), cutoff, table_1e5).value for k in kappas
        ]

    # either side of the small-kappa switch alone, the switch at an ell
    # inside the range, and Jacobi chunks of one ell, of a few, and split
    # across the switch
    @settings(max_examples=25, deadline=None)
    @given(extra=st.lists(st.integers(0, 2261), max_size=12), cutoff=st.integers(3, 3000),
           ratio=st.sampled_from([ALL_TABLE, ALL_JACOBI, 1, 20, 100]),
           lanes=st.sampled_from([1, 7, 64, 1 << 13]))
    def test_both_sides_of_the_switch_match_scalar(self, table_1e5, extra, cutoff, ratio,
                                                   lanes):
        primes = table_1e5.primes()
        ps = sorted({2, 3, 7, 13, 23} | {int(primes[i]) for i in extra})
        kappas = np.array([4 * p - 1 for p in ps], dtype=np.int64)
        batch = many_with(kappas, cutoff, table_1e5, _JACOBI_RATIO=ratio, _JACOBI_LANES=lanes)
        assert [v.hex() for v in batch.tolist()] == [
            singular_series(int(k), cutoff, table_1e5).value.hex() for k in kappas
        ]

    def test_benchmark_sweep_stays_on_the_table(self, table_1e5):
        # variance --x 400,560 --cutoff 40000: its 5,753 squarefree kappa
        # <= 560^2 put the switch past the cutoff, so every ell builds a table
        ps = table_1e5.primes((560 * 560 + 1) // 4)
        count = int(np.count_nonzero(squarefree_mask(4 * ps - 1, table_1e5)))
        assert count == 5753 and singular._JACOBI_RATIO * count > 40_000


def _primes_from(start, step, count):
    """The first count primes met from start in steps of step (+1 or -1)."""
    found = []
    while len(found) < count:
        found += [start] if is_prime_64(start) else []
        start += step
    return found


class TestBatchEdges:
    """singular_series_many against the scalar singular_series, which takes
    each symbol from jacobi_many, bit for bit at the kernel's edges."""

    # kappa >= 2^32 (p just above 2^30 and 2^38), kappa just below 2^63
    # (p just below 2^61, from the Mersenne prime 2^61 - 1 down) and the
    # smallest kappa
    PS = (_primes_from(2**30, 1, 3) + _primes_from(2**38, 1, 3)
          + _primes_from(2**61 - 1, -1, 4) + [2, 3, 7, 13, 23])

    def assert_matches_scalar(self, ps, cutoff, table):
        # on either side of the small-kappa switch, and with the switch where
        # these few kappa put it
        kappas = np.array([4 * p - 1 for p in ps], dtype=np.int64)
        expected = [singular_series(int(k), cutoff, table).value.hex() for k in kappas]
        for ratio in (ALL_TABLE, ALL_JACOBI, singular._JACOBI_RATIO):
            batch = many_with(kappas, cutoff, table, _JACOBI_RATIO=ratio)
            assert batch.dtype == np.float64
            assert [v.hex() for v in batch.tolist()] == expected, (cutoff, ratio)

    def test_kappa_beyond_32_bits(self, table_1e5):
        assert 4 * self.PS[0] - 1 >= 2**32 and 2**63 - 4 * self.PS[6] < 2**8
        for cutoff in (3, 4, 5, 1000, 1008, 5000, 20011):
            self.assert_matches_scalar(self.PS, cutoff, table_1e5)

    def test_cutoff_3_is_one_factor(self, table_1e5):
        # 1 - (symbol of -kappa over 3)/2: 1/2, 1 or 3/2
        for ratio in (ALL_TABLE, ALL_JACOBI):
            batch = many_with(np.array([7, 11, 27]), 3, table_1e5, _JACOBI_RATIO=ratio)
            assert batch.tolist() == [1.5, 0.5, 1.0]

    def test_cutoff_between_primes(self, table_1e5):
        # 1008 lies between the primes 997 and 1009, 10006 between 9973 and 10007
        ps = [2, 3, 5, 7, 11, 13, 97, 997]
        kappas = np.array([4 * p - 1 for p in ps])
        for lo, hi in ((997, 1008), (9973, 10006)):
            assert singular_series_many(kappas, hi, table_1e5).tolist() == \
                singular_series_many(kappas, lo, table_1e5).tolist()
        self.assert_matches_scalar(ps, 1008, table_1e5)

    def test_cutoff_where_squares_pass_32_bits(self, table_2e5):
        # ell > 131071 = 2 * 65535 + 1 takes r up to 65536 and more, r^2 >= 2^32;
        # 131101 is the first such ell
        self.assert_matches_scalar(self.PS[::3], 131_200, table_2e5)

    def test_empty(self, table_1e5):
        for ratio in (ALL_TABLE, ALL_JACOBI):
            batch = many_with(np.zeros(0, dtype=np.int64), 1000, table_1e5, _JACOBI_RATIO=ratio)
            assert batch.dtype == np.float64 and batch.shape == (0,)

    @pytest.mark.parametrize("kappas", [[0], [-7], [11, 0, 19], [-(2**63)]])
    def test_kappa_below_1_raises(self, table_1e5, kappas):
        with pytest.raises(ValueError, match="kappa"):
            singular_series_many(np.array(kappas, dtype=np.int64), 1000, table_1e5)


class TestTailPartial:
    def test_empty_range(self, table_1e5):
        assert tail_partial(11, 5, 6, table_1e5) == 0.0  # no odd squarefree q in (5, 6]

    def test_hand_example(self, table_1e5):
        # single term q = 5: mu(5)/phi(5) * jacobi(4, 5) = -1/4
        assert tail_partial(11, 3, 5, table_1e5) == -0.25

    def test_matches_termwise_oracle(self, table_1e5):
        for kappa in (7, 11, 19):
            expected = math.fsum(
                mobius(q) / euler_phi(q) * jacobi((-kappa) % q, q)
                for q in range(4, 301)
                if q % 2 == 1 and is_squarefree(q)
            )
            assert abs(tail_partial(kappa, 3, 300, table_1e5) - expected) < 1e-12

    def test_validation(self, table_1e5):
        with pytest.raises(ValueError):
            tail_partial(11, 5, 5, table_1e5)
        with pytest.raises(ValueError):
            tail_partial(11, 2, 50, table_1e5)

    def test_tail_small_relative_to_value(self, table_1e6):
        # computed property: the (1e3, 1e5] tail is small next to S itself
        for p in (2, 3, 5, 7, 11, 13):
            kappa = 4 * p - 1
            tail = tail_partial(kappa, 10**3, 10**5, table_1e6)
            value = singular_series(kappa, 10**5, table_1e6).value
            assert abs(tail) < 0.1 * max(abs(value), 0.1), (kappa, tail, value)


class TestProductSeriesConsistency:
    def test_truncations_converge_toward_each_other(self, table_1e6):
        # 20 sample kappa: the gap between the Euler product and the
        # Dirichlet sum shrinks from cutoff 1e2 to cutoff 1e5
        primes = [int(p) for p in table_1e6.primes()[:20]]
        for p in primes:
            kappa = 4 * p - 1
            gap_coarse = abs(
                singular_series(kappa, 100, table_1e6).value
                - dirichlet_series_partial(kappa, 100, table_1e6)
            )
            gap_fine = abs(
                singular_series(kappa, 10**5, table_1e6).value
                - dirichlet_series_partial(kappa, 10**5, table_1e6)
            )
            assert gap_fine < gap_coarse, (kappa, gap_coarse, gap_fine)
