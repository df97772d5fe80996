import math
import random
import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep.arithmetic import (
    euler_phi,
    integer_nth_root,
    is_prime_64,
    is_squarefree,
    jacobi,
    jacobi_many,
    mobius,
    ramanujan_sum,
    von_mangoldt,
)


def brute_legendre(a, p):
    """Legendre symbol by counting square roots mod an odd prime."""
    a %= p
    if a == 0:
        return 0
    roots = sum(1 for x in range(p) if x * x % p == a)
    return 1 if roots else -1


def trial_division_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


SMALL_PRIMES = [p for p in range(2, 1000) if trial_division_prime(p)]


class TestJacobi:
    def test_unit_numerator(self):
        for n in range(1, 200, 2):
            assert jacobi(1, n) == 1

    def test_modulus_one(self):
        for a in (-5, -1, 0, 1, 7, 10**12):
            assert jacobi(a, 1) == 1

    def test_derived_example(self):
        # oracle: solvability of x^2 = 2 mod 3 and mod 5, multiplied
        assert brute_legendre(2, 3) * brute_legendre(2, 5) == 1
        assert jacobi(2, 15) == 1

    def test_rejects_even_or_nonpositive(self):
        for n in (0, -3, 2, 10):
            with pytest.raises(ValueError):
                jacobi(3, n)

    def test_euler_criterion(self):
        # (a/p) == a^((p-1)/2) mod p, mapped to {-1, 0, 1}
        for p in SMALL_PRIMES:
            if p == 2:
                continue
            for a in (0, 1, 2, 3, 5, 17, p - 1, p, p + 2, -1, -7):
                e = pow(a % p, (p - 1) // 2, p)
                e = e - p if e > 1 else e
                assert jacobi(a, p) == e, (a, p)

    def test_matches_brute_root_count(self):
        for p in [3, 5, 7, 11, 13, 17, 19, 23]:
            for a in range(p):
                assert jacobi(a, p) == brute_legendre(a, p)

    def test_multiplicative_in_modulus(self):
        import random

        rng = random.Random(7)
        for _ in range(300):
            n1 = rng.randrange(1, 500) | 1
            n2 = rng.randrange(1, 500) | 1
            if math.gcd(n1, n2) != 1:
                continue
            a = rng.randrange(-300, 300)
            assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)

    def test_negative_numerator_reduced(self):
        # 1 - 4p and -(4p - 1) must agree for every odd modulus
        for p in (2, 3, 5, 101):
            for q in range(3, 100, 2):
                assert jacobi(1 - 4 * p, q) == jacobi(-(4 * p - 1) % q, q)


_ODD_MODULI = st.one_of(
    st.integers(0, 50).map(lambda k: 2 * k + 1),
    st.integers(0, 2**61 - 1).map(lambda k: 2 * k + 1),  # up to 2^62 - 1
    st.sampled_from([1, 3, 2**31 - 1, 2**61 - 1, 2**62 - 1, 2**62 + 1, 2**63 - 1]),
)
_INT64 = st.integers(-(2**63), 2**63 - 1)


class TestJacobiMany:
    """The array kernel against the scalar jacobi, lane for lane."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), ns=st.lists(_ODD_MODULI, min_size=1, max_size=40))
    def test_matches_scalar(self, data, ns):
        # a drawn across int64, plus 0, multiples of n and its neighbours,
        # and powers of two times a small odd number (long runs of twos)
        a = [
            data.draw(st.one_of(
                _INT64,
                st.just(0),
                st.builds(lambda k, m: m << k, st.integers(0, 58), st.integers(-15, 15)),
                st.integers(-((2**63) // n), (2**63 - 1) // n).map(lambda k, n=n: k * n),
                st.sampled_from([-n, n - 1, 1 - n, -(2**63), 2**63 - 1]),
            ))
            for n in ns
        ]
        got = jacobi_many(np.array(a, dtype=np.int64), np.array(ns, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [jacobi(x, n) for x, n in zip(a, ns)]

    @settings(max_examples=100, deadline=None)
    @given(a=st.lists(_INT64, min_size=1, max_size=6),
           ns=st.lists(_ODD_MODULI, min_size=1, max_size=6))
    def test_broadcast_shapes(self, a, ns):
        col = np.array(a, dtype=np.int64)[:, None]
        row = np.array(ns, dtype=np.int64)[None, :]
        got = jacobi_many(col, row)
        assert got.shape == (len(a), len(ns))
        assert got.tolist() == [[jacobi(x, n) for n in ns] for x in a]
        # a scalar against an array, and two scalars
        assert jacobi_many(a[0], row[0]).tolist() == [jacobi(a[0], n) for n in ns]
        assert jacobi_many(a[0], ns[0]).shape == ()
        assert int(jacobi_many(a[0], ns[0])) == jacobi(a[0], ns[0])

    def test_long_runs_of_twos(self):
        a = [m << k for k in range(63) for m in (1, 3, 5, -1, -3) if -(2**63) <= m << k < 2**63]
        for n in (3, 5, 7, 10**18 + 9, 2**61 - 1, 2**62 - 1, 2**62 + 1, 2**62 + 3):
            assert jacobi_many(a, n).tolist() == [jacobi(x, n) for x in a], n

    def test_empty_arrays(self):
        empty = np.array([], dtype=np.int64)
        assert jacobi_many(empty, empty).shape == (0,)
        assert jacobi_many(5, empty).shape == (0,)
        assert jacobi_many(np.zeros((0, 3), dtype=np.int64), [1, 3, 5]).shape == (0, 3)

    def test_rejects_even_or_nonpositive(self):
        for n in (0, -3, 2, 10, -(2**63)):
            with pytest.raises(ValueError):
                jacobi_many([3], [n])
            with pytest.raises(ValueError):
                jacobi_many(3, [1, 3, n, 5])


class TestMultiplicativeFunctions:
    def test_mobius_values(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(30) == -1

    def test_euler_phi_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4  # gcd count oracle below
        assert euler_phi(12) == sum(1 for k in range(1, 13) if math.gcd(k, 12) == 1)
        for q in (2, 3, 31, 97):
            assert euler_phi(q) == q - 1

    def test_phi_brute_force(self):
        for n in range(1, 300):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_multiplicativity_on_coprime_pairs(self):
        import random

        rng = random.Random(11)
        for _ in range(400):
            a = rng.randrange(1, 1000)
            b = rng.randrange(1, 1000)
            if math.gcd(a, b) != 1:
                continue
            assert mobius(a * b) == mobius(a) * mobius(b)
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_squarefree(self):
        assert is_squarefree(1)
        assert is_squarefree(11)  # 4*3 - 1
        assert not is_squarefree(49)
        for n in range(1, 500):
            assert is_squarefree(n) == (mobius(n) != 0)

    def test_rejects_zero(self):
        for fn in (mobius, euler_phi, is_squarefree):
            with pytest.raises(ValueError):
                fn(0)


class TestPrimality:
    def test_tiny(self):
        assert is_prime_64(2)
        assert not is_prime_64(1)
        assert not is_prime_64(0)

    def test_against_trial_division(self):
        for m in range(0, 20_000):
            assert is_prime_64(m) == trial_division_prime(m), m

    def test_strong_pseudoprimes(self):
        # classical 2-SPRP and Carmichael examples
        for n in (2047, 3215031751, 341550071728321, 561, 41041):
            assert not is_prime_64(n)

    def test_large_derived_example(self):
        # 1e18+9: verdict cross-checked against an independent witness
        # set in test_acceptance; 1e18+7 has a known factorization
        assert is_prime_64(10**18 + 9)
        assert not is_prime_64(10**18 + 7)
        assert 1370531 * 729644203597 == 10**18 + 7


class TestRoots:
    def test_integer_nth_root(self):
        for k in range(1, 20):
            for n in (0, 1, 2, 5, 63, 64, 65, 10**12, 2**60 - 1):
                r = integer_nth_root(n, k)
                assert r**k <= n and (r + 1) ** k > n, (n, k)

    def test_integer_nth_root_far_beyond_64_bits(self):
        # near 10^51 the float seed of a cube root is hundreds too low, which
        # is why roots above 2^53 take integer Newton steps instead
        for m in (10**17, 10**17 + 1, 10**17 + 3, 2**60 - 1):
            for n in (m**3 - 1, m**3, m**3 + 1, (m + 1) ** 3 - 1):
                seed = int(round(n ** (1.0 / 3)))
                r = integer_nth_root(n, 3)
                assert r**3 <= n < (r + 1) ** 3, n
                assert r > seed, n
            for k in (2, 4, 5, 7):
                n = m**k + 1
                r = integer_nth_root(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)

    @pytest.mark.parametrize("n, k", [(10**90, 3), (2**4000 - 1, 5), (2**4000 - 1, 7)])
    def test_integer_nth_root_past_the_float_range(self, n, k):
        # a float seed is 3.8e15 below the cube root of 10^30 and cannot be
        # taken at all from 2^4000: the roots come from integer steps alone
        start = time.perf_counter()
        r = integer_nth_root(n, k)
        assert time.perf_counter() - start < 1.0
        assert r**k <= n < (r + 1) ** k
        if n == 10**90:
            assert r == 10**30

    def test_integer_nth_root_of_random_wide_n(self):
        rng = random.Random(35)
        for _ in range(300):
            n, k = rng.getrandbits(rng.randint(1, 600)), rng.randint(3, 12)
            r = integer_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
            # exact powers and the integers just below them, where an off-by-one shows
            assert integer_nth_root(r**k, k) == r
            assert integer_nth_root((r + 1) ** k - 1, k) == r


class TestVonMangoldt:
    def test_values(self):
        assert von_mangoldt(1) == 0.0
        assert von_mangoldt(8) == math.log(2)
        assert von_mangoldt(6) == 0.0
        assert von_mangoldt(64) == math.log(2)
        assert von_mangoldt(3**7) == math.log(3)

    def test_supported_exactly_on_prime_powers(self):
        primes = [p for p in range(2, 2000) if trial_division_prime(p)]
        for m in range(1, 2000):
            expected = 0.0
            for p in primes:
                pk = p
                while pk <= m:
                    if pk == m:
                        expected = math.log(p)
                    pk *= p
            assert von_mangoldt(m) == expected, m

    def test_chebyshev_lcm_identity(self):
        # sum of von Mangoldt up to N equals log(lcm(1..N))
        for N in (10, 100, 1000):
            lcm = reduce(math.lcm, range(1, N + 1))
            total = math.fsum(von_mangoldt(m) for m in range(1, N + 1))
            assert abs(total - math.log(lcm)) < 1e-6


class TestRamanujanSum:
    def test_zero_argument(self):
        for q in (1, 2, 12, 91):
            assert ramanujan_sum(q, 0) == euler_phi(q)

    def test_prime_modulus(self):
        for p in (3, 5, 31):
            for m in (1, 2, p + 1, -4):
                if m % p:
                    assert ramanujan_sum(p, m) == -1

    def test_derived_example(self):
        # direct complex sum over a in {1,5,7,11} gives -2
        assert ramanujan_sum(12, 8) == -2

    def test_against_complex_sum(self):
        import cmath

        for q in range(1, 60):
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for m in range(-15, 16):
                direct = sum(cmath.exp(-2j * cmath.pi * a * m / q) for a in units)
                assert abs(direct.imag) < 1e-9
                assert abs(direct.real - ramanujan_sum(q, m)) < 1e-6, (q, m)
