"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line through the conftest hook.  Three
criteria concern claimed properties of the minimal twin-prime map and
of the exponential sum at even moduli that this package's exact
computations refute (README, Findings 1-3).  Those tests state the
claimed form and its counterexample in their docstrings, and assert
what exact arithmetic proves instead: the full exception set of the
claimed form, computed independently, and the correct form wherever
it holds.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
import types

import numpy as np
import pytest

from twinrep.arithmetic import is_prime_64, is_squarefree, ramanujan_sum
from twinrep.asymptotic import exception_count, variance_sweep
from twinrep.cli import main as cli_main
from twinrep.expsum import sigma_bruteforce, sigma_closed, sigma_complex_check
from twinrep.represent import (
    Mode,
    find_min_n_twin_representation,
    find_min_twin_representation,
    n_max,
    verify_range,
)
from twinrep.sieve import build_prime_table, prime_count, squarefree_kappa_census

MILLIONTH_PRIME = 15_485_863  # the 10^6-th prime: desk-scale range end

_timings: dict[str, float] = {}


@pytest.fixture(scope="module")
def desk_run():
    """Sieve and full minimal-twin verification over the first million
    primes, timed against the five-minute budget."""
    start = time.perf_counter()
    table = build_prime_table(MILLIONTH_PRIME)
    report = verify_range(5, MILLIONTH_PRIME, Mode.TWIN_MIN, table)
    elapsed = time.perf_counter() - start
    return table, report, elapsed


@pytest.fixture(scope="module")
def table_1m():
    return build_prime_table(1_000_001)


# -- criterion 1: twin representability over the first 10^6 primes ----------


def test_criterion_1_twin_verification_first_million_primes(desk_run):
    table, report, elapsed = desk_run
    assert prime_count(table, MILLIONTH_PRIME) == 10**6
    assert report.checked == 10**6 - 2  # q = 2, 3 have no admissible n
    assert report.failures == []
    assert report.checked == len(report.qs)
    print(f"\n  first 10^6 primes verified in {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300.0


# -- criterion 2: growth statistics of the minimal map ----------------------


def _is_twin_64(t: int) -> bool:
    """Twin-prime test by primality alone, independent of the prime table."""
    return is_prime_64(t) and (is_prime_64(t - 2) or is_prime_64(t + 2))


def _cube_root_exceptions(limit: int) -> dict[int, int]:
    """{q: p_q} for every prime q <= limit whose minimal twin p_q has p_q^3 < q.

    Built by enumeration, not by the scan: q is in the set iff some twin
    t with t^3 < q has q - t = n(n+1), n >= 1, and then p_q is the least
    such t (any smaller representing twin also has its cube below q).
    """
    small_twins = [t for t in itertools.takewhile(lambda t: t**3 < limit, itertools.count(3))
                   if _is_twin_64(t)]
    least: dict[int, int] = {}
    for t in small_twins:  # ascending, so the first t recorded for q is the least
        n = 1
        while (q := t + n * (n + 1)) <= limit:
            if q > t**3 and q not in least and is_prime_64(q):
                least[q] = t
            n += 1
    return least


def test_criterion_2_min_p_over_cbrt_q_above_one(desk_run):
    """Claimed: the minimal twin prime satisfies p_q > q^(1/3).

    Counterexample: false for the minimal-p map.  Whenever q = n(n+1) + 3
    is prime, p_q = 3 (q = 59 = 7*8 + 3, 113, 509, ..., 15409553), so the
    ratio drops to 3 / q^(1/3) -> 0; the minimum over the first million
    primes is 0.0121 at q = 15409553.  The bound belongs to the
    smallest-n map (find_min_n_twin_representation).

    Asserted: (a) the exception set E = {q : p_q^3 < q}, read exactly
    from the verified arrays, equals the set built by enumeration with
    is_prime_64, p_q included, and the reported minimum ratio is the
    array minimum, at q = 15409553 with p = 3; (b) the smallest-n twin p
    satisfies p^3 > q on every q in E.  Off E, p_q^3 > q already (a
    prime is no cube), and the smallest-n p is never below p_q, so (b)
    proves the bound for the smallest-n map on every q of the range.
    """
    table, report, _ = desk_run
    qs, ps = report.qs, report.ps
    assert len(qs) == report.checked

    expected = _cube_root_exceptions(MILLIONTH_PRIME)
    assert expected[59] == 3  # 59 = 7*8 + 3
    cube_safe = np.flatnonzero(ps < 2**21)  # p^3 stays exact in int64
    low = cube_safe[ps[cube_safe] ** 3 < qs[cube_safe]]
    measured = dict(zip(qs[low].tolist(), ps[low].tolist()))
    assert measured == expected

    ratio = ps / np.cbrt(qs.astype(np.float64))
    i = int(np.argmin(ratio))
    print(f"\n  |E| = {len(expected)}; min p_q/q^(1/3) = {ratio[i]:.6f} at q = {int(qs[i])}")
    assert report.stats["min_p_over_cbrt_q"] == float(ratio[i])
    assert report.stats["min_p_over_cbrt_q_at"] == int(qs[i])
    assert int(qs[i]) == max(q for q, t in expected.items() if t == 3) == 15409553
    assert int(ps[i]) == 3

    below = []
    for q, p_q in expected.items():
        rep = find_min_n_twin_representation(q, table)
        if rep is None or rep.p < p_q or rep.p**3 <= q:
            below.append((q, rep))
    assert below == []


def test_criterion_2_max_n_over_log_q_reported(desk_run):
    _, report, _ = desk_run
    value = report.stats["max_n_over_log_q"]
    print(f"\n  max n_q/log q = {value:.6f} at q = {report.stats['max_n_over_log_q_at']}")
    assert math.isfinite(value) and value > 0
    # regression band for the measured extremum
    assert abs(value - 237.63097538137282) < 1e-6


def test_criterion_2_n_below_sqrt_q(desk_run):
    _, report, _ = desk_run
    assert report.stats["sqrt_bound_violations"] == 0
    assert bool((report.ns * report.ns <= report.qs).all())


# README, Finding 2: the q below the millionth prime where the n^2 form fails
DICHOTOMY_N2_EXCEPTIONS = [11, 19, 293, 307, 587, 727, 2909, 3593, 12517, 35999, 42187]


def test_criterion_2_dichotomy_zero_exceptions(desk_run):
    """Claimed: every q has 2 p_q >= q or 2 n_q^2 >= q, with no exceptions.

    Counterexample: q = 11 maps to (p, n) = (5, 2) with 2*5 < 11 and
    2*4 < 11; there are eleven such q among the first million primes.
    Only the exact form 2 p > q or 2 n(n+1) > q follows from
    p + n(n+1) = q (q is odd, so the two halves cannot both equal q/2).

    Asserted: zero exceptions to the exact form over every verified q;
    the n^2-form exceptions are exactly the eleven documented q, in
    agreement with the reported count and examples; and an exhaustive
    scan over all n, with twin membership from is_prime_64, confirms
    each of the eleven.
    """
    _, report, _ = desk_run
    qs, ps, ns = report.qs, report.ps, report.ns
    assert len(qs) == report.checked  # every q is represented and counted below

    exact = (2 * ps > qs) | (2 * ns * (ns + 1) > qs)
    assert qs[~exact].tolist() == []
    n2_exceptions = qs[(2 * ps < qs) & (2 * ns * ns < qs)].tolist()
    print(f"\n  n^2-form exceptions: {len(n2_exceptions)} at {n2_exceptions}")
    assert n2_exceptions == DICHOTOMY_N2_EXCEPTIONS
    assert report.stats["dichotomy_violations"] == len(DICHOTOMY_N2_EXCEPTIONS)
    assert report.stats["dichotomy_examples"] == DICHOTOMY_N2_EXCEPTIONS

    for q in DICHOTOMY_N2_EXCEPTIONS:
        assert is_prime_64(q)
        p, n = min((q - n * (n + 1), n) for n in range(1, math.isqrt(q) + 1)
                   if _is_twin_64(q - n * (n + 1)))
        assert 2 * p < q and 2 * n * n < q, q
        assert 2 * n * (n + 1) > q, q
        i = int(np.searchsorted(qs, q))
        assert (int(ps[i]), int(ns[i])) == (p, n), q


# -- criterion 3: equal n forces strictly increasing p ----------------------


def test_criterion_3_same_n_forces_smaller_p(desk_run):
    _, report, _ = desk_run
    assert report.stats["same_n_order_violations"] == 0
    # that stat counts failures of p + n(n+1) = q; the lemma itself is checked here:
    # within each n, in ascending q, p increases strictly
    order = np.argsort(report.ns, kind="stable")
    ns, ps = report.ns[order], report.ps[order]
    assert not np.any((ns[1:] == ns[:-1]) & (ps[1:] <= ps[:-1]))


# -- criterion 4: exponential-sum identities ---------------------------------


PRIMES_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_criterion_4_closed_form_identity_odd_squarefree():
    start = time.perf_counter()
    mismatches = []
    for q in range(1, 501, 2):
        if not is_squarefree(q):
            continue
        for p in PRIMES_100:
            if sigma_bruteforce(q, p) != sigma_closed(q, p):
                mismatches.append((q, p))
    _timings["identity"] = time.perf_counter() - start
    assert mismatches == []
    # q dividing kappa: both sides vanish
    assert sigma_bruteforce(11, 3) == sigma_closed(11, 3) == 0
    assert sigma_bruteforce(19, 5) == sigma_closed(19, 5) == 0


def test_criterion_4_even_modulus_sigma_vanishes():
    """Claimed: Sigma(2q) = 0 for every prime q.

    Counterexample: by definition Sigma(2) = 4 * (-1)^p, since every odd
    r has r^2 = 1 (mod 8): -4 for odd p, +4 for p = 2.  With
    2 Sigma(q1 q2) = Sigma(q1) Sigma(q2) this gives
    Sigma(2q) = (Sigma(2)/2) Sigma(q), nonzero whenever Sigma(q) is;
    e.g. Sigma(6) at p = 3 is -12.  The vanishing claim rests on
    dropping a -2q term in the q = 2 evaluation.  Sigma(4) = 0 does
    hold (the Ramanujan sum c_4 kills odd arguments).

    Asserted over primes q, p <= 100: Sigma(2) = 4 * (-1)^p; Sigma(4) = 0
    for every p; for odd q, Sigma(2q) = (Sigma(2)/2) Sigma(q), and
    Sigma(2q) = 0 exactly when q divides 4p - 1.
    """
    start = time.perf_counter()
    wrong_sigma2, wrong, zeros = [], [], []
    for p in PRIMES_100:
        sigma2 = 4 * (-1) ** p
        if sigma_bruteforce(2, p) != sigma2:
            wrong_sigma2.append(p)
        for q in PRIMES_100:
            value = sigma_bruteforce(2 * q, p)
            if q == 2:
                if value != 0:
                    wrong.append((4, p, value))
                continue
            if value != sigma2 // 2 * sigma_bruteforce(q, p):
                wrong.append((2 * q, p, value))
            if value == 0:
                zeros.append((q, p))
    _timings["even"] = time.perf_counter() - start
    divides = [(q, p) for q in PRIMES_100[1:] for p in PRIMES_100 if (4 * p - 1) % q == 0]
    print(f"\n  Sigma(2q), odd q: {len(zeros)} zero cells of {24 * 25}")
    assert wrong_sigma2 == []
    assert wrong == [], wrong[:5]
    assert sorted(zeros) == divides


def test_criterion_4_multiplicativity_200_random_pairs():
    start = time.perf_counter()
    rng = random.Random(1729)
    pairs = []
    while len(pairs) < 200:
        q1 = rng.randrange(3, 200, 2)
        q2 = rng.randrange(3, 200, 2)
        if q1 * q2 > 10**4 or math.gcd(q1, q2) != 1:
            continue
        if not (is_squarefree(q1) and is_squarefree(q2)):
            continue
        pairs.append((q1, q2))
    for q1, q2 in pairs:
        p = rng.choice(PRIMES_100)
        assert 2 * sigma_bruteforce(q1 * q2, p) == sigma_bruteforce(q1, p) * sigma_bruteforce(q2, p)
    _timings["mult"] = time.perf_counter() - start


def test_criterion_4_complex_cross_check():
    start = time.perf_counter()
    for q in range(1, 501):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            got, imag = sigma_complex_check(q, p, return_imag=True)
            assert abs(got - sigma_bruteforce(q, p)) < 1e-6 * max(q, 1), (q, p)
            assert imag < 1e-6
    _timings["complex"] = time.perf_counter() - start


def test_criterion_4_runtime_budget():
    total = sum(_timings.get(k, 0.0) for k in ("identity", "even", "mult", "complex"))
    print(f"\n  exponential-sum suite: {total:.1f}s (budget 60s)")
    assert total < 60.0


# -- criterion 5: variance ratio decay ---------------------------------------


def test_criterion_5_variance_ratio_strictly_decreasing(table_1m):
    start = time.perf_counter()
    ratios = []
    for report in variance_sweep([(x, x * x) for x in (250, 500, 1000, 2000)], 10**5, table_1m):
        ratios.append(report.ratio)
        print(f"\n  x={report.x}: terms={report.term_count} ratio={report.ratio:.8f}")
    elapsed = time.perf_counter() - start
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    print(f"  variance sweep in {elapsed:.1f}s (budget 600s)")
    assert elapsed < 600.0


# -- criterion 6: density of representable primes ----------------------------


def test_criterion_6_density_exceptions_are_2_and_3():
    code, out, err = _run_cli(["density", "--x", str(10**6), "--format", "jsonl"])
    assert code == 0, err
    report = types.SimpleNamespace(**json.loads(out))
    assert report.total_primes == 78498
    assert report.exceptions_any_prime == [2, 3]
    density = report.representable_any_prime / report.total_primes
    assert density == 1 - 2 / 78498
    print(f"\n  any-prime density at 1e6: {density:.8f}")


# -- criterion 7: squarefree census and exception count ----------------------


def test_criterion_7_mirsky_census_and_exception_count(table_1m):
    """s(y) and N(y) at desk scale, asserted as measured regressions.

    The idealized expectation N(y) = 0 overlooks p = 2: every value
    n^2 + n + 2 is even, so p = 2 (whose 4p - 1 = 7 is squarefree) can
    never produce a prime and N(y) = 1 for all y >= 8.  No odd prime
    joins it anywhere below 10^5.
    """
    count, total = squarefree_kappa_census(table_1m, 10**6)
    assert count == 58680 and total == 78498  # measured, exhaustive
    assert count > 0
    assert 0.5 < count / total < 1.0
    print(f"\n  s(1e6)/pi(1e6) = {count}/{total} = {count / total:.6f}")

    for y in (10**3, 10**4, 10**5):
        x = 2 * (math.isqrt(y - 1) + 1)  # 2 * ceil(sqrt(y))
        n_count, exceptions = exception_count(y, x, table_1m, return_exceptions=True)
        census, _ = squarefree_kappa_census(table_1m, y // 4)
        assert n_count <= census
        assert exceptions == [2], (y, exceptions)
    assert exception_count(7, 10, table_1m) == 0  # no prime p <= 7/4


# -- criterion 8: oracle equivalences -----------------------------------------


def test_criterion_8_sieve_vs_trial_division():
    # trial division by every candidate divisor up to sqrt(1e5), in bulk
    limit = 10**5
    verdict = np.ones(limit + 1, dtype=bool)
    verdict[:2] = False
    for d in range(2, math.isqrt(limit) + 1):
        verdict[2 * d :: d] = False
    table = build_prime_table(limit)
    ours = np.zeros(limit + 1, dtype=bool)
    ours[2] = True
    odds = np.arange(1, limit + 1, 2)
    ours[odds] = table.odd_bits[odds >> 1]
    assert np.array_equal(ours, verdict)


def test_criterion_8_minimal_representation_vs_exhaustive_scan(table_1m):
    prime = table_1m.is_prime
    report = verify_range(5, 10**5, Mode.TWIN_MIN, table_1m)
    primes = table_1m.primes()
    qs = primes[(primes >= 5) & (primes <= 10**5)]
    assert np.array_equal(report.qs, qs)
    for i, q in enumerate(int(v) for v in qs):
        best = None
        for n in range(1, n_max(q) + 1):
            p = q - n * (n + 1)
            if prime(p) and (prime(p - 2) or prime(p + 2)):  # p is a twin
                best = min(best, (p, n)) if best else (p, n)
        assert best is not None, q
        assert best == (int(report.ps[i]), int(report.ns[i])), q


def test_criterion_8_ramanujan_closed_form_vs_complex_sum():
    for q in range(1, 201):
        units = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        phases = np.exp((-2j * np.pi / q) * np.outer(units, np.arange(q)))
        direct = phases.sum(axis=0)  # direct[m] = complex sum at m mod q
        assert np.abs(direct.imag).max() < 1e-6
        for m in range(-200, 201):
            assert abs(direct.real[m % q] - ramanujan_sum(q, m)) < 1e-6, (q, m)


def simple_sieve_pi(x):
    """Independent oracle: plain full-array sieve, no odds packing."""
    flags = bytearray([1]) * (x + 1)
    flags[0:2] = b"\x00\x00"
    for d in range(2, math.isqrt(x) + 1):
        if flags[d]:
            flags[d * d :: d] = b"\x00" * len(range(d * d, x + 1, d))
    return sum(flags)


def test_criterion_8_prime_counts_against_independent_sieve(table_1m):
    assert prime_count(table_1m, 10**3) == simple_sieve_pi(10**3) == 168
    assert prime_count(table_1m, 10**6) == simple_sieve_pi(10**6) == 78498


def mr_with_witnesses(n, witnesses):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_criterion_8_primality_against_second_witness_set():
    # independent fixed witness set, also valid on the 64-bit range
    sinclair = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    rng = random.Random(64)
    samples = [10**18 + 9, 10**18 + 7, 2**61 - 1, 2**62 - 57]
    samples += [rng.randrange(2, 2**63) for _ in range(2000)]
    for m in samples:
        assert is_prime_64(m) == mr_with_witnesses(m, sinclair), m


# -- criterion 9: determinism across workers and interruptions ---------------


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_9_outputs_byte_identical_across_workers(tmp_path):
    files = []
    for workers in ("1", "4"):
        summary = str(tmp_path / f"s{workers}.csv")
        records = str(tmp_path / f"r{workers}.csv")
        code, _, err = _run_cli(
            ["verify", "--mode", "twin", "--range", "5:300000",
             "--shard-size", "40000", "--workers", workers,
             "--out", summary, "--emit-records", records]
        )
        assert code == 0, err
        files.append((open(summary, "rb").read(), open(records, "rb").read()))
    assert files[0] == files[1]


def test_criterion_9_checkpoint_resume_byte_identical(tmp_path, cut_checkpoint):
    base = ["verify", "--mode", "twin", "--range", "5:250000", "--shard-size", "30000"]
    ref_sum, ref_rec = str(tmp_path / "a.csv"), str(tmp_path / "ar.csv")
    assert _run_cli(base + ["--out", ref_sum, "--emit-records", ref_rec])[0] == 0
    cp = str(tmp_path / "ck.txt")
    got_sum, got_rec = str(tmp_path / "b.csv"), str(tmp_path / "br.csv")
    argv = base + ["--out", got_sum, "--emit-records", got_rec, "--checkpoint", cp]
    assert _run_cli(argv)[0] == 0
    for stop in (2, 5):  # stopped after that many shards, then run to completion
        cut_checkpoint(cp, stop, got_rec)
        os.unlink(got_sum)
        assert _run_cli(argv)[0] == 0
        assert open(cp).read().splitlines()[-1].startswith("DONE ")
        assert open(got_sum, "rb").read() == open(ref_sum, "rb").read()
        assert open(got_rec, "rb").read() == open(ref_rec, "rb").read()


def test_criterion_9_jsonl_matches_csv_values(tmp_path):
    a, b = str(tmp_path / "v.csv"), str(tmp_path / "v.jsonl")
    base = ["verify", "--mode", "twin", "--range", "5:100000"]
    assert _run_cli(base + ["--out", a])[0] == 0
    assert _run_cli(base + ["--format", "jsonl", "--out", b])[0] == 0
    header, row = open(a).read().strip().splitlines()
    csv_row = dict(zip(header.split(","), row.split(",")))
    json_row = json.loads(open(b).read())
    for key, raw in csv_row.items():
        jv = json_row[key]
        if isinstance(jv, int):
            assert int(raw) == jv, key
        elif isinstance(jv, float):
            assert float(raw) == jv, key
        elif isinstance(jv, list):
            assert raw == ";".join(str(v) for v in jv), key
