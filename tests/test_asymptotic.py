import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep.arithmetic import is_prime_64, von_mangoldt
from twinrep.asymptotic import (
    KahanSum,
    VarianceReport,
    VarianceTerms,
    _check_units,
    _psi_columns,
    exception_count,
    psi,
    variance_sum,
    variance_sweep,
    von_mangoldt_table,
)
from twinrep.sieve import (
    CoverageError,
    build_prime_table,
    squarefree_mask,
)
from twinrep.singular import singular_series_many


class TestVonMangoldtTable:
    def test_matches_scalar(self):
        # odd integers only, as exact int64 units of 2^-53
        for limit in (5000, 5001):
            table = von_mangoldt_table(limit)
            assert table.dtype == np.int64 and len(table) == (limit + 1) // 2
            for m in range(1, limit + 1, 2):
                assert table[m >> 1] == von_mangoldt(m) * 2.0**53, m  # identical floats
                assert table[m >> 1] / 2**53 == von_mangoldt(m), m


class TestPsi:
    def test_examples(self):
        assert psi(3, 1) == math.log(5)
        assert psi(3, 2) == math.fsum([math.log(5), math.log(3)])  # 9 = 3^2
        assert psi(7, 0) == 0.0

    def test_prime_power_split(self):
        # cross-check: direct log over prime values plus the prime-power rest
        x, p = 1000, 3
        direct = psi(p, x)
        primes_part = math.fsum(
            math.log(n * n + n + p) for n in range(1, x + 1) if is_prime_64(n * n + n + p)
        )
        power_part = math.fsum(
            von_mangoldt(n * n + n + p)
            for n in range(1, x + 1)
            if not is_prime_64(n * n + n + p)
        )
        assert abs(direct - (primes_part + power_part)) < 1e-9

    def test_p2_values_are_powers_of_two_only(self):
        # n^2 + n + 2 is always even, so only powers of two contribute
        value = psi(2, 100)
        expected = math.fsum(
            math.log(2) for n in range(1, 101)
            if (n * n + n + 2) & (n * n + n + 1) == 0  # power of two
        )
        assert abs(value - expected) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            psi(3, -1)
        with pytest.raises(OverflowError):
            psi(3, 4 * 10**9)

    def test_rejects_values_the_integer_sum_cannot_hold(self):
        # units outside [0, 2^59) could overflow the limbs; a float table is
        # not units at all
        for bad in (-1, 2**59, 2**62):
            units = np.full(20, 2**52, dtype=np.int64)
            units[2] = bad  # n = 1, p = 3: 5 = 2 * 2 + 1
            with pytest.raises(ValueError, match="von Mangoldt"):
                _check_units(units)
        with pytest.raises(ValueError, match="von Mangoldt"):
            _check_units(np.full(20, 1.0))


_PSI_X = 300
_PSI_P = [int(p) for p in build_prime_table(2000).primes()]


@pytest.fixture(scope="module")
def lam_psi():
    return von_mangoldt_table(_PSI_X * _PSI_X + _PSI_X + max(_PSI_P))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(_PSI_P), x=st.integers(0, _PSI_X))
def test_limb_sum_equals_fsum_and_scalar(lam_psi, p, x):
    n = np.arange(1, x + 1, dtype=np.int64)
    if p % 2:  # the table's units, as floats, summed by math.fsum
        expected = math.fsum((lam_psi[(n * n + n + p) >> 1] / 2**53).tolist())
    else:
        expected = math.fsum(von_mangoldt(m) for m in (n * n + n + p).tolist())
    (column,) = _psi_columns(lam_psi, np.array([p], dtype=np.int64), [(x, 1)])
    assert column.tolist() == [expected] == [psi(p, x)]


_SCALAR_PSI_P = [p for p in _PSI_P if p < 400]


@st.composite
def _psi_runs(draw):
    """Ascending primes with 2 and 3 among them, and runs (x, k), each the
    first k primes at x: unsorted, an x repeated, a run narrower than the
    widest (as a y below x^2 is), and empty runs."""
    ps = sorted({2, 3} | set(draw(st.lists(st.sampled_from(_SCALAR_PSI_P), max_size=10))))
    xs = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
    runs = [(x, draw(st.integers(0, len(ps)))) for x in xs + xs[:1]]
    runs += [(draw(st.integers(1, 60)), len(ps)), (draw(st.integers(1, 60)), 1)]
    return ps, draw(st.permutations(runs))


@settings(max_examples=30, deadline=None)
@given(case=_psi_runs())
def test_columns_equal_scalar_psi_at_every_run(case):
    ps, runs = case
    units = von_mangoldt_table(max(x for x, _ in runs) ** 2 + 60 + ps[-1])
    columns = _psi_columns(units, np.array(ps, dtype=np.int64), runs)
    assert len(columns) == len(runs)
    for (x, k), column in zip(runs, columns):
        assert column.dtype == np.float64
        assert column.tolist() == [psi(p, x) for p in ps[:k]], (x, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x=st.integers(1, 600), rows=st.integers(1, 200))
def test_limb_rows_equal_fsum_on_any_admissible_values(seed, x, rows):
    # values anywhere in {0} and [1/2, 64), many one ulp apart, as units of
    # an odd-only table, gathered for odd p = 2c + 1 and summed in columns
    rng = np.random.default_rng(seed)
    size = x * x + x + 200
    lam = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1, 6, size))
    lam[rng.random(size) < 0.5] = 0.0
    lam[rng.random(size) < 0.1] = 0.5 + 2.0**-53 * rng.integers(1, 1 << 20, 1)[0]
    units = (lam * 2.0**53).astype(np.int64)
    offsets = np.sort(rng.integers(0, 200, rows)).astype(np.int64)
    t = np.cumsum(np.arange(1, x + 1, dtype=np.int64))  # n(n+1)/2
    expected = [math.fsum(lam[t + c].tolist()) for c in offsets]
    (got,) = _psi_columns(units, 2 * offsets + 1, [(x, rows)])
    assert got.tolist() == expected


class TestVarianceSum:
    def test_empty_below_first_kappa(self, table_1e5):
        report = variance_sum(10, 5, 100, table_1e5)
        assert report.term_count == 0 and report.lhs == 0.0

    def test_excludes_non_squarefree_kappa(self, table_1e5):
        report = variance_sum(60, 3600, 1000, table_1e5)
        ps = set(report.terms.p.tolist())
        assert 7 not in ps  # kappa = 27 = 3^3
        assert 2 in ps and 3 in ps
        assert all(report.term_count == len(col) for col in report.terms)

    def test_region_rejected(self, table_1e5):
        with pytest.raises(ValueError, match="region"):
            variance_sum(10, 101, 100, table_1e5)

    def test_term_values(self, table_1e5):
        from twinrep.singular import singular_series

        report = variance_sum(50, 500, 1000, table_1e5)
        terms = report.terms
        assert [col.dtype for col in terms] == [np.int64] * 2 + [np.float64] * 5
        acc = KahanSum()
        for p, kappa, psi_p, s_trunc, main, residual, residual_sq in zip(
                *(col.tolist() for col in terms)):
            assert kappa == 4 * p - 1
            assert psi_p == psi(p, 50)
            s = singular_series(kappa, 1000, table_1e5).value
            assert s_trunc == s
            assert main == s * 25.0
            assert residual == psi_p - main
            assert residual_sq == residual**2
            acc.add(residual**2)
        assert report.lhs == acc.value

    def test_descending_recompute_close(self, table_1e5):
        report = variance_sum(100, 10_000, 1000, table_1e5)
        acc = KahanSum()
        for sq in reversed(report.terms.residual_sq.tolist()):
            acc.add(sq)
        assert abs(acc.value - report.lhs) <= 1e-6 * abs(report.lhs)

    def test_deterministic(self, table_1e5):
        a = variance_sum(80, 6400, 2000, table_1e5)
        b = variance_sum(80, 6400, 2000, table_1e5)
        assert a.lhs == b.lhs and a.ratio == b.ratio

    def test_baier_zhao_flag(self, table_1e5):
        half = variance_sum(50, 2500, 1000, table_1e5)
        full = variance_sum(50, 2500, 1000, table_1e5, baier_zhao=True)
        assert half.term_count > 0
        assert np.array_equal(full.terms.main_term, 2.0 * half.terms.main_term)

    def test_ratio_normalization(self, table_1e5):
        report = variance_sum(100, 9999, 1000, table_1e5)
        assert report.ratio == report.lhs / (9999.0 * 100 * 100)


_LAMBDA_LIMIT = 70 * 70 + 70 + (70 * 70 + 1) // 4  # the largest x^2 + x + p of _variance_runs


@functools.cache
def _scalar_lambda():
    """Float von Mangoldt of every integer to _LAMBDA_LIMIT, from the scalar function."""
    return np.array([0.0] + [von_mangoldt(m) for m in range(1, _LAMBDA_LIMIT + 1)])


def _reference_variance(x, y, cutoff, table, baier_zhao=False):
    """One run computed on its own: its own kappa set, a float table from the
    scalar von_mangoldt, a math.fsum loop per p."""
    primes = table.primes()
    ps = primes[4 * primes - 1 <= y]
    ps = ps[squarefree_mask(4 * ps - 1, table)]
    acc = KahanSum()
    terms = []
    if len(ps):
        kappas = 4 * ps - 1
        svals = singular_series_many(kappas, cutoff, table)
        lam = _scalar_lambda()
        n = np.arange(1, x + 1, dtype=np.int64)
        scale = float(x) if baier_zhao else x / 2.0
        for p, kappa, s in zip(ps.tolist(), kappas.tolist(), svals.tolist()):
            psi_p = math.fsum(lam[n * n + n + p].tolist())
            main = s * scale
            residual = psi_p - main
            acc.add(residual * residual)
            terms.append((p, kappa, psi_p, s, main, residual, residual * residual))
    columns = VarianceTerms(*(
        np.array(col, dtype=np.int64 if i < 2 else np.float64)
        for i, col in enumerate(zip(*terms) if terms else [()] * 7)
    ))
    return VarianceReport(x, y, cutoff, len(terms), acc.value,
                          acc.value / (float(y) * x * x), columns)


def _same_report(a, b):
    """Equal scalars and, column by column, equal dtypes and bytes (== on
    reports holding arrays would compare them elementwise)."""
    assert (a.x, a.y, a.cutoff, a.term_count, a.lhs, a.ratio) == (
        b.x, b.y, b.cutoff, b.term_count, b.lhs, b.ratio)
    for name, col_a, col_b in zip(VarianceTerms._fields, a.terms, b.terms):
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), name


@st.composite
def _variance_runs(draw):
    runs = [(2, 4), (7, 43)]  # y < 7: no kappa, zero terms; y = 43 is a kappa
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.integers(1, 70))
        runs.append((x, draw(st.integers(1, x * x))))
    runs.append(runs[-1])  # a repeated run
    return draw(st.permutations(runs))


@settings(max_examples=25, deadline=None)
@given(runs=_variance_runs(), cutoff=st.sampled_from([3, 97, 500]), baier_zhao=st.booleans())
def test_sweep_equals_single_runs(table_1e5, runs, cutoff, baier_zhao):
    reports = variance_sweep(runs, cutoff, table_1e5, baier_zhao)
    assert [(r.x, r.y) for r in reports] == runs
    for (x, y), report in zip(runs, reports):
        _same_report(report, variance_sum(x, y, cutoff, table_1e5, baier_zhao))
        _same_report(report, _reference_variance(x, y, cutoff, table_1e5, baier_zhao))


class TestVarianceSweep:
    def test_validates_every_run_first(self, table_1e5):
        with pytest.raises(ValueError, match="region"):
            variance_sweep([(10, 100), (10, 101)], 100, table_1e5)
        with pytest.raises(ValueError, match="x >= 1"):
            variance_sweep([(10, 100), (0, 1)], 100, table_1e5)

    def test_empty(self, table_1e5):
        assert variance_sweep([], 100, table_1e5) == []


class TestExceptionCount:
    def test_small_y_is_zero(self, table_1e5):
        # below y = 8 there is no prime p <= y/4 at all
        for y in (1, 4, 7):
            assert exception_count(y, 100, table_1e5) == []

    def test_p2_is_the_sole_exception(self, table_2e5):
        # n^2 + n + 2 is even for every n, so p = 2 never produces a
        # prime; with a generous n-range no odd p <= 2.5e4 joins it
        y = 10**5
        x = 2 * (math.isqrt(y - 1) + 1)  # 2 * ceil(sqrt(y))
        assert exception_count(y, x, table_2e5) == [2]

    def test_vacuous_when_n_range_empty(self, table_1e5):
        from twinrep.sieve import squarefree_kappa_census

        count = len(exception_count(400, 2, table_1e5))
        census, _ = squarefree_kappa_census(table_1e5, 100)
        assert count == census

    def test_antitone_in_x(self, table_1e5):
        values = [len(exception_count(10**4, x, table_1e5)) for x in (3, 5, 9, 21, 101, 301)]
        assert values == sorted(values, reverse=True)

    def test_bounded_by_census(self, table_1e5):
        from twinrep.sieve import squarefree_kappa_census

        for y in (100, 1000, 10**4):
            census, _ = squarefree_kappa_census(table_1e5, y // 4)
            assert len(exception_count(y, 50, table_1e5)) <= census

    def test_coverage(self, table_1e5):
        with pytest.raises(CoverageError):
            exception_count(4 * 10**5, 1200, table_1e5)
