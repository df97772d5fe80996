import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep import expsum
from twinrep.arithmetic import euler_phi, is_squarefree, jacobi, mobius, ramanujan_sum
from twinrep.expsum import (
    check_multiplicativity,
    sigma_bruteforce,
    sigma_closed,
    sigma_complex_check,
)


def sigma_reference(q, p):
    """The defining sum, one Ramanujan term per residue class."""
    return 2 * sum(ramanujan_sum(q, p + n * n + n) for n in range(q))


def sigma_bruteforce_scalar(q, p):
    """The per-cell evaluation the grid rows replaced: a fresh divisor and
    coefficient table and one np.gcd for every (q, p)."""
    coef = np.zeros(q + 1, dtype=np.int64)
    phi_q = euler_phi(q)
    for g in range(1, q + 1):
        if q % g == 0 and mobius(q // g):
            coef[g] = mobius(q // g) * (phi_q // euler_phi(q // g))
    n = np.arange(q, dtype=np.int64)
    return 2 * int(coef[np.gcd((n * n + n + p) % q, q)].sum())


def sigma_closed_scalar(q, p):
    """The closed form per cell, None where q is not squarefree."""
    if not is_squarefree(q):
        return None
    return 0 if q % 2 == 0 else 2 * q * jacobi((1 - 4 * p) % q, q)


PRIMES_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


class TestBruteForce:
    def test_sigma_one_is_two(self):
        for p in (2, 3, 5, 101):
            assert sigma_bruteforce(1, p) == 2

    def test_matches_reference_formula(self):
        for q in range(1, 80):
            for p in (2, 3, 5, 7, 13):
                assert sigma_bruteforce(q, p) == sigma_reference(q, p), (q, p)

    def test_sigma_two(self):
        # Direct evaluation: every term of the double sum at q = 2 is
        # e(-(kappa + r^2)/8) with kappa + r^2 == 4 mod 8, i.e. -1, and
        # there are four odd r <= 8, so Sigma(2) = -4 for odd p.  (The
        # often-quoted value 0 drops the -2q correction; the acceptance
        # suite records that discrepancy.)
        for p in (3, 5, 7, 11, 97):
            assert sigma_bruteforce(2, p) == -4
        assert sigma_bruteforce(2, 2) == 4  # kappa = 7: kappa + r^2 == 0 mod 8

    def test_even_doubling_identity(self):
        # Sigma(2m) = (Sigma(2)/2) * Sigma(m) for odd m: the factor is
        # -2 for odd p and +2 for p = 2
        for m in (1, 3, 5, 9, 15, 21, 35):
            for p in (2, 3, 5, 13):
                half_sigma2 = sigma_bruteforce(2, p) // 2
                assert sigma_bruteforce(2 * m, p) == half_sigma2 * sigma_bruteforce(m, p)

    def test_example_q3_p3(self):
        assert sigma_bruteforce(3, 3) == 2 * 3 * jacobi(-11, 3) == 6

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma_bruteforce(0, 3)
        with pytest.raises(ValueError):
            sigma_bruteforce(3, 4)


class TestClosedForm:
    def test_base_cases(self):
        assert sigma_closed(2, 5) == 0
        assert sigma_closed(1, 5) == 2

    def test_vanishes_when_q_divides_kappa(self):
        # q | kappa makes the symbol 0
        assert sigma_closed(11, 3) == 0  # kappa = 11
        assert sigma_bruteforce(11, 3) == 0

    def test_identity_odd_squarefree(self):
        for q in range(1, 200, 2):
            if not is_squarefree(q):
                continue
            for p in PRIMES_100:
                assert sigma_bruteforce(q, p) == sigma_closed(q, p), (q, p)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            sigma_closed(9, 5)

    def test_prime_q_case(self):
        # For odd prime q the symbol is the Legendre symbol
        for q in (3, 5, 7, 11, 13, 101):
            for p in (2, 3, 5, 19):
                assert sigma_closed(q, p) == 2 * q * jacobi((1 - 4 * p) % q, q)


class TestComplexCheck:
    def test_q1_and_q2(self):
        val, imag = sigma_complex_check(1, 5, return_imag=True)
        assert abs(val - 2.0) < 1e-6 and imag < 1e-6
        val2 = sigma_complex_check(2, 5)
        assert abs(val2 - (-4.0)) < 1e-6  # not 0: see TestBruteForce.test_sigma_two

    def test_example_q15_p5(self):
        assert abs(sigma_complex_check(15, 5) - sigma_bruteforce(15, 5)) < 1e-6

    def test_agreement_sweep(self):
        for q in list(range(1, 40)) + [64, 99, 128, 255]:
            for p in (2, 3, 31):
                val, imag = sigma_complex_check(q, p, return_imag=True)
                assert abs(val - sigma_bruteforce(q, p)) < 1e-6 * max(q, 1), (q, p)
                assert imag < 1e-6


class TestMultiplicativity:
    def test_examples(self):
        assert check_multiplicativity(3, 5, 3)
        assert check_multiplicativity(3, 7, 5)
        for q in (3, 9, 15, 77):
            assert check_multiplicativity(1, q, 7)  # Sigma(1) = 2 makes it 2S = 2S

    def test_random_coprime_odd_squarefree_pairs(self):
        rng = random.Random(20240817)
        done = 0
        while done < 60:
            q1 = rng.randrange(3, 100, 2)
            q2 = rng.randrange(3, 100, 2)
            if math.gcd(q1, q2) != 1 or not (is_squarefree(q1) and is_squarefree(q2)):
                continue
            assert check_multiplicativity(q1, q2, rng.choice(PRIMES_100))
            done += 1

    def test_rejects_even_or_common_factor(self):
        with pytest.raises(ValueError):
            check_multiplicativity(2, 3, 5)
        with pytest.raises(ValueError):
            check_multiplicativity(9, 15, 5)


class TestEvaluateSigma:
    """A sigma cell: the brute-force value next to the closed form where q is
    squarefree, as the grid report prints them."""

    def test_squarefree_cell(self):
        assert sigma_bruteforce(15, 5) == sigma_closed(15, 5) == -30
        assert expsum._bruteforce_row(15, [5]).tolist() == expsum._closed_row(15, [5]) == [-30]

    def test_non_squarefree_cell(self):
        assert sigma_bruteforce(4, 5) == 0  # c_4 of an odd argument vanishes
        with pytest.raises(ValueError):  # no closed form is claimed
            sigma_closed(4, 5)

    def test_even_squarefree_mismatch_is_visible(self):
        # the honest grid output: brute -12 vs claimed closed 0
        assert sigma_bruteforce(6, 3) == -12
        assert sigma_closed(6, 3) == 0


class TestGridRows:
    """Rows share one coefficient table per q; each cell must equal the
    per-cell scalar evaluation exactly."""

    def check_row(self, q, ps):
        brute = expsum._bruteforce_row(q, ps).tolist()
        assert len(brute) == len(ps)
        closed = expsum._closed_row(q, ps) if is_squarefree(q) else [None] * len(ps)
        for p, b, c in zip(ps, brute, closed):
            assert type(b) is int
            assert b == sigma_bruteforce_scalar(q, p) == sigma_bruteforce(q, p), (q, p)
            assert c == sigma_closed_scalar(q, p), (q, p)
            if c is not None:
                assert type(c) is int and sigma_closed(q, p) == c

    def test_grid_edges(self):
        # q sharing a factor with kappa (kappa = 7, 11, 19, 27, 51, 91), even,
        # square-full and prime q, and p far above q
        ps = [2, 3, 5, 7, 13, 23, 97, 1000003, 2**61 - 1]
        for q in (1, 2, 3, 4, 7, 8, 9, 11, 12, 13, 17, 19, 27, 45, 49, 51, 91, 210, 243):
            self.check_row(q, ps)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 400), ps=st.lists(st.sampled_from(PRIMES_100), max_size=12))
    def test_random_rows(self, q, ps):
        self.check_row(q, ps)

    def test_rows_split_into_blocks(self, monkeypatch):
        # a block bound below one row must give the same values block by block
        for cells in (1, 20, 100):
            monkeypatch.setattr(expsum, "_ROW_CELLS", cells)
            self.check_row(37, PRIMES_100)
            self.check_row(60, PRIMES_100[:7])

    def test_empty_row_and_validation(self):
        assert expsum._bruteforce_row(15, []).tolist() == []
        assert expsum._closed_row(15, []) == []
        with pytest.raises(ValueError):
            expsum._bruteforce_row(0, [3])
        with pytest.raises(ValueError):  # the rows take ps known prime; the cells test p
            sigma_bruteforce(15, 9)
        with pytest.raises(ValueError):
            sigma_closed(15, 9)


class TestRamanujanRows:
    """The grid row's Ramanujan sums and Sigma against the scalar
    ramanujan_sum of the arithmetic module, term by term."""

    def test_row_is_the_scalar_sum(self):
        for q in range(1, 61):
            assert expsum._ramanujan_row(q).tolist() == [ramanujan_sum(q, m) for m in range(q)], q

    def test_bruteforce_row_is_a_sum_of_scalar_terms(self):
        ps = [2, 3, 5, 7, 11, 59, 61, 1000003, 2**61 - 1]
        for q in range(1, 61):
            want = [2 * sum(ramanujan_sum(q, p + n * n + n) for n in range(q)) for p in ps]
            assert expsum._bruteforce_row(q, ps).tolist() == want, q
