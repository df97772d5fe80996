import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import signal
import tempfile
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep import cli, represent
from twinrep.cli import _format_rows, _json_cell, main
from twinrep.sieve import prime_count


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestVerifyCommand:
    def test_twin_success(self, tmp_path):
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:50000",
                                  "--workers", "1"])
        assert code == 0, err
        rows = parse_csv(out)
        assert rows[0]["failures"] == "0"
        assert rows[0]["checked"] == rows[0]["represented"]

    def test_no_admissible_range_is_exit_2(self):
        code, _, err = run_cli(["verify", "--mode", "twin", "--range", "2:4"])
        assert code == 2
        assert "no admissible q" in err

    def test_include_small_failures_exit_1(self):
        code, out, _ = run_cli(["verify", "--mode", "twin", "--range", "2:4",
                                "--include-small"])
        assert code == 1
        rows = parse_csv(out)
        assert rows[0]["failure_list"] == "2;3"

    def test_bad_range_exit_2(self):
        code, _, _ = run_cli(["verify", "--mode", "twin", "--range", "50:10"])
        assert code == 2

    def test_sun_mode(self):
        code, out, _ = run_cli(["verify", "--mode", "sun", "--range", "5:20001"])
        assert code == 0
        assert parse_csv(out)[0]["checked"] == str(len(range(5, 20002, 2)))

    def test_worker_count_invariance(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            path = str(tmp_path / f"out-{workers}.csv")
            code, _, err = run_cli(["verify", "--mode", "twin", "--range", "5:120000",
                                    "--workers", workers, "--shard-size", "17000",
                                    "--out", path])
            assert code == 0, err
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]

    def test_shard_size_invariance(self, tmp_path):
        outs = []
        for shard in ("7777", "50000"):
            path = str(tmp_path / f"out-{shard}.csv")
            code, _, _ = run_cli(["verify", "--mode", "twin", "--range", "5:100000",
                                  "--shard-size", shard, "--out", path, "--workers", "2"])
            assert code == 0
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]

    def test_checkpoint_resume_byte_identical(self, tmp_path):
        base = ["verify", "--mode", "twin", "--range", "5:90000", "--shard-size", "11000"]
        ref_out = str(tmp_path / "ref.csv")
        ref_rec = str(tmp_path / "ref-rec.csv")
        code, _, _ = run_cli(base + ["--out", ref_out, "--emit-records", ref_rec,
                                     "--workers", "1"])
        assert code == 0

        cp = str(tmp_path / "ck.txt")
        out = str(tmp_path / "resumed.csv")
        rec = str(tmp_path / "resumed-rec.csv")
        code, _, _ = run_cli(base + ["--out", out, "--emit-records", rec,
                                     "--checkpoint", cp, "--stop-after-shards", "3",
                                     "--workers", "1"])
        assert code == 0
        lines = open(cp).read().splitlines()
        assert lines[0].startswith("META ") and len(lines) == 4  # META + 3 shards
        code, _, _ = run_cli(base + ["--out", out, "--emit-records", rec,
                                     "--checkpoint", cp, "--workers", "2"])
        assert code == 0
        assert open(cp).read().splitlines()[-1].startswith("DONE ")
        assert open(out, "rb").read() == open(ref_out, "rb").read()
        assert open(rec, "rb").read() == open(ref_rec, "rb").read()

    def test_checkpoint_complete_run_is_idempotent(self, tmp_path):
        cp = str(tmp_path / "ck.txt")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        base = ["verify", "--mode", "twin", "--range", "5:30000", "--shard-size", "8000",
                "--checkpoint", cp]
        assert run_cli(base + ["--out", out1])[0] == 0
        assert run_cli(base + ["--out", out2])[0] == 0  # everything from checkpoint
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_checkpoint_parameter_mismatch_rejected(self, tmp_path):
        cp = str(tmp_path / "ck.txt")
        assert run_cli(["verify", "--mode", "twin", "--range", "5:30000",
                        "--shard-size", "8000", "--checkpoint", cp,
                        "--stop-after-shards", "1"])[0] == 0
        code, _, err = run_cli(["verify", "--mode", "twin", "--range", "5:30000",
                                "--shard-size", "9999", "--checkpoint", cp])
        assert code == 2
        assert "different parameters" in err

    def test_records_content(self, tmp_path):
        rec = str(tmp_path / "rec.csv")
        code, _, _ = run_cli(["verify", "--mode", "twin", "--range", "5:100",
                              "--emit-records", rec])
        assert code == 0
        rows = parse_csv(open(rec).read())
        assert rows[0] == {"q": "5", "p": "3", "n": "1",
                           "p_over_cbrt_q": f"{3 / 5 ** (1 / 3):.6f}",
                           "n_over_log_q": f"{1 / __import__('math').log(5):.6f}"}
        qs = [int(r["q"]) for r in rows]
        assert qs == sorted(qs)


class TestFormats:
    def test_jsonl_and_csv_values_match(self, tmp_path):
        csv_path = str(tmp_path / "m.csv")
        jsonl_path = str(tmp_path / "m.jsonl")
        assert run_cli(["mirsky", "--y", "10000", "--out", csv_path])[0] == 0
        assert run_cli(["mirsky", "--y", "10000", "--format", "jsonl",
                        "--out", jsonl_path])[0] == 0
        csv_row = parse_csv(open(csv_path).read())[0]
        json_row = json.loads(open(jsonl_path).read())
        assert int(csv_row["s_y"]) == json_row["s_y"]
        assert int(csv_row["pi_y"]) == json_row["pi_y"]
        assert float(csv_row["fraction"]) == json_row["fraction"]

    def test_verify_jsonl_matches_csv(self, tmp_path):
        a = str(tmp_path / "v.csv")
        b = str(tmp_path / "v.jsonl")
        base = ["verify", "--mode", "twin", "--range", "5:20000"]
        assert run_cli(base + ["--out", a])[0] == 0
        assert run_cli(base + ["--format", "jsonl", "--out", b])[0] == 0
        csv_row = parse_csv(open(a).read())[0]
        json_row = json.loads(open(b).read())
        for key in ("checked", "represented", "failures", "dichotomy_violations"):
            assert int(csv_row[key]) == json_row[key], key
        assert float(csv_row["min_p_over_cbrt_q"]) == json_row["min_p_over_cbrt_q"]


class TestSigmaCommand:
    def test_grid(self):
        code, out, _ = run_cli(["sigma", "--qmax", "30", "--pmax", "20"])
        assert code == 0
        rows = parse_csv(out)
        # every odd squarefree row matches
        for row in rows:
            q = int(row["q"])
            if q % 2 == 1 and row["closed"] != "":
                assert row["match"] == "true", row
        # non-squarefree rows leave the closed column empty
        assert all(r["closed"] == "" for r in rows if r["q"] == "4")
        # q = 2 rows expose the brute/closed discrepancy honestly
        q2 = [r for r in rows if r["q"] == "2"]
        assert all(r["match"] == "false" for r in q2)
        assert {r["brute"] for r in q2} <= {"-4", "4"}

    def test_invalid_grid(self):
        assert run_cli(["sigma", "--qmax", "0", "--pmax", "10"])[0] == 2


class TestOtherCommands:
    def test_variance_multi_x(self):
        code, out, _ = run_cli(["variance", "--x", "40,80", "--cutoff", "500"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["x"] for r in rows] == ["40", "80"]
        assert all(float(r["ratio"]) > 0 for r in rows)

    def test_variance_region_violation(self):
        assert run_cli(["variance", "--x", "10", "--y", "101"])[0] == 2

    def test_variance_sweep_rows_are_single_runs_in_order(self):
        code, out, _ = run_cli(["variance", "--x", "60,40,60", "--cutoff", "2000"])
        assert code == 0
        singles = [run_cli(["variance", "--x", x, "--cutoff", "2000"]) for x in ("60", "40")]
        assert [c for c, _, _ in singles] == [0, 0]
        header, row60 = singles[0][1].splitlines(keepends=True)
        _, row40 = singles[1][1].splitlines(keepends=True)
        assert out == header + row60 + row40 + row60

    def test_variance_records_bytes_pinned(self, tmp_path):
        # SHA-256 of the file the fsum-per-p implementation wrote
        rec = tmp_path / "terms.csv"
        code, _, _ = run_cli(["variance", "--x", "60", "--cutoff", "2000",
                              "--emit-records", str(rec)])
        assert code == 0
        assert hashlib.sha256(rec.read_bytes()).hexdigest() == (
            "4b7779da4d24e45d80018212b43d5ce85870e9bad6c65f569338a6eb8dfa0acf"
        )

    def test_variance_sweep_bytes_pinned(self, tmp_path):
        # SHA-256 of the file the int64 % singular-series kernel wrote; a
        # one-bit drift in any S(kappa) changes it
        out = tmp_path / "variance.csv"
        code, _, _ = run_cli(["variance", "--x", "400,560", "--cutoff", "40000",
                              "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c41ef1f3a651a3019084b713954ea52eb8d47b764d050aee30e43a70bfd44739"
        )

    @pytest.mark.parametrize("extra", [["--x", "0"], ["--x", "10", "--y", "0"],
                                       ["--x", "10", "--y", "101"]])
    def test_variance_rejects_before_writing(self, tmp_path, extra):
        argv = ["variance", "--cutoff", "400"] + extra
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        path = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(path)])[0] == 2
        assert not path.exists()

    def test_variance_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # the prime table to 10^6 fits 5 MiB; the von Mangoldt table to
        # x^2 + x + 10^6 = 5002000, 40 MB, does not
        monkeypatch.setattr(cli, "_memory_budget", lambda: 5 * 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", "2000", "--cutoff", "1000",
                                     "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:")
        assert not out.exists()

    def test_variance_cutoff_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # the prime table to 2 * 10^5 (100 KB) and the von Mangoldt table to
        # 135 fit 2 MiB; the singular series' scratch, 20 bytes an integer up
        # to the cutoff, does not
        monkeypatch.setattr(cli, "_memory_budget", lambda: 2 * 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", "10", "--cutoff", "200000",
                                     "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:") and "singular series" in err
        assert not out.exists()

    def test_variance_records(self, tmp_path):
        rec = str(tmp_path / "terms.csv")
        code, _, _ = run_cli(["variance", "--x", "40", "--cutoff", "500",
                              "--emit-records", rec])
        assert code == 0
        rows = parse_csv(open(rec).read())
        assert rows[0]["p"] == "2"
        assert all(float(r["residual_sq"]) >= 0 for r in rows)

    def test_density(self):
        code, out, _ = run_cli(["density", "--x", "10000"])
        assert code == 0
        row = parse_csv(out)[0]
        assert row["exceptions_any_prime"] == "2;3"
        assert int(row["representable_twin"]) <= int(row["representable_any_prime"])

    def test_mirsky(self):
        code, out, _ = run_cli(["mirsky", "--y", "1000"])
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["s_y"], row["pi_y"]) == ("128", "168")

    def test_singular_covers_pmax_past_cutoff(self):
        code, out, err = run_cli(["singular", "--pmax", "100", "--cutoff", "50"])
        assert code == 0, err
        rows = parse_csv(out)
        assert [int(r["p"]) for r in rows] == [
            p for p in range(2, 101) if all(p % d for d in range(2, p))
        ]
        assert len(rows) == 25

    def test_singular(self):
        code, out, _ = run_cli(["singular", "--pmax", "11", "--cutoff", "2000"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["kappa"] for r in rows] == ["7", "11", "19", "27", "43"]

    def test_singular_rejects_before_writing(self, tmp_path):
        # cutoff 3 leaves no tail range: Q1 = max(3, cutoff // 10) = 3 = Q2
        argv = ["singular", "--pmax", "10", "--cutoff", "3"]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        path = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(path)])[0] == 2
        assert not path.exists()

    @pytest.mark.parametrize("pmax", ["1", "10"])
    def test_singular_cutoff_below_4_is_exit_2(self, tmp_path, pmax):
        # with or without a prime <= pmax, the tail needs Q1 = 3 < cutoff
        argv = ["singular", "--pmax", pmax, "--cutoff", "3"]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert "cutoff >= 4" in err
        path = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(path)])[0] == 2
        assert not path.exists()

    def test_singular_smallest_tail(self):
        # cutoff 4: the tail (3, 4] holds no odd q, so it is exactly zero
        code, out, err = run_cli(["singular", "--pmax", "10", "--cutoff", "4"])
        assert code == 0, err
        rows = parse_csv(out)
        assert [r["p"] for r in rows] == ["2", "3", "5", "7"]
        assert {r["tail_partial"] for r in rows} == {"0.000000"}

    def test_stats(self):
        code, out, _ = run_cli(["stats", "--range", "5:10000", "--bucket", "5000"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert int(rows[0]["min_p"]) == 3

    def test_sieve_cache_roundtrip(self, tmp_path):
        cache = str(tmp_path / "pt.bin")
        code, out, _ = run_cli(["sieve-cache", "--limit", "50000", "--cache-out", cache])
        assert code == 0
        assert parse_csv(out)[0]["pi"] == "5133"
        code, out, _ = run_cli(["mirsky", "--y", "12000", "--cache", cache])
        assert code == 0
        code, _, err = run_cli(["density", "--x", "60000", "--cache", cache])
        assert code == 2
        assert "covers only" in err

    def test_sigma_reads_cache(self, tmp_path):
        small, large = str(tmp_path / "small.bin"), str(tmp_path / "large.bin")
        assert run_cli(["sieve-cache", "--limit", "20", "--cache-out", small])[0] == 0
        assert run_cli(["sieve-cache", "--limit", "100", "--cache-out", large])[0] == 0
        argv = ["sigma", "--qmax", "6", "--pmax", "30"]
        code, out, err = run_cli(argv + ["--cache", small])
        assert (code, out) == (2, "")
        assert "covers only" in err
        plain = run_cli(argv)
        assert plain[0] == 0
        assert run_cli(argv + ["--cache", large]) == plain

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_sieve_cache_prints_a_non_ascii_path(self, tmp_path, fmt):
        cache, out = tmp_path / "prïmes-é.bin", tmp_path / "out"
        argv = ["sieve-cache", "--limit", "100", "--cache-out", str(cache), "--format", fmt]
        code, stdout, _ = run_cli(argv)
        assert code == 0
        assert run_cli(argv + ["--out", str(out)])[0] == 0
        assert stdout.encode("utf-8") == out.read_bytes()
        if fmt == "csv":
            assert out.read_bytes().splitlines()[1].split(b",")[-1] == str(cache).encode("utf-8")

    def test_sieve_cache_has_no_cache_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sieve-cache", "--limit", "100", "--cache-out", str(tmp_path / "pt.bin"),
                     "--cache", str(tmp_path / "other.bin")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_workers_flag_everywhere(self):
        # non-verify subcommands accept --workers and ignore it safely
        a = run_cli(["mirsky", "--y", "5000", "--workers", "1"])
        b = run_cli(["mirsky", "--y", "5000", "--workers", "4"])
        assert a == b

    def test_stats_worker_invariance(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            path = str(tmp_path / f"g{workers}.csv")
            code, _, _ = run_cli(["stats", "--range", "5:60000", "--bucket", "20000",
                                  "--shard-size", "9000", "--workers", workers,
                                  "--out", path])
            assert code == 0
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]


def density_report(x):
    """The CLI's density row as attributes; its exception lists hold up to 32 q."""
    code, out, err = run_cli(["density", "--x", str(x), "--format", "jsonl"])
    assert code == 0, err
    return types.SimpleNamespace(**json.loads(out))


class TestDensityReport:
    def test_example_x10(self):
        report = density_report(10)
        assert report.total_primes == 4
        assert report.exceptions_any_prime == [2, 3]
        assert report.exceptions_twin == [2, 3]

    @pytest.mark.parametrize("x", range(2, 13))
    def test_counts_only_primes_up_to_x(self, table_1e5, x):
        report = density_report(x)
        assert report.total_primes == prime_count(table_1e5, x)
        assert all(q <= x for q in report.exceptions_any_prime + report.exceptions_twin)
        assert report.exceptions_any_prime == [q for q in (2, 3) if q <= x]

    def test_twin_subset_of_any(self):
        for x in (10, 100, 10**4):
            report = density_report(x)
            assert report.representable_twin <= report.representable_any_prime
            assert report.total_primes == report.representable_any_prime + len(
                report.exceptions_any_prime
            )

    def test_matches_scalar_search(self, table_1e5):
        from twinrep.represent import find_any_prime_representation

        report = density_report(500)
        expected_exceptions = [
            int(q)
            for q in table_1e5.primes()
            if q <= 500 and find_any_prime_representation(int(q), table_1e5) is None
        ]
        assert report.exceptions_any_prime == expected_exceptions == [2, 3]

    def test_worker_count_invariance(self):
        # [2, 2097153] is two shards of 2^20, so three workers run two processes a pass
        argv = ["density", "--x", "2097153"]
        one = run_cli(argv + ["--workers", "1"])
        assert one[0] == 0
        assert run_cli(argv + ["--workers", "3"]) == one


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "twin", "--range", "5:100", "--workers", "0"],
    ["mirsky", "--y", "100", "--workers", "0"],
    ["verify", "--mode", "twin", "--range", "50:10"],
    ["verify", "--mode", "twin", "--range", "0:100"],
    ["singular", "--pmax", "1", "--cutoff", "2"],
    ["verify", "--mode", "twin", "--range", "5:100", "--shard-size", "0"],
    ["sieve-cache", "--limit", "1", "--cache-out", os.devnull],
    ["variance", "--x", "0"],
    ["density", "--x", "0"],
])
def test_invalid_arguments_return_2(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error:")


class TestRecordsToStdout:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stdout_is_records_then_summary(self, tmp_path, fmt, workers):
        base = ["verify", "--mode", "twin", "--range", "5:40000", "--shard-size", "9000",
                "--format", fmt, "--workers", workers]
        rec, out = tmp_path / "rec", tmp_path / "out"
        assert run_cli(base + ["--emit-records", str(rec), "--out", str(out)])[0] == 0
        code, stdout, _ = run_cli(base + ["--emit-records", "-"])
        assert code == 0
        assert stdout == rec.read_text() + out.read_text()


_SINGLE_SHARD: dict = {}


def _verify_bytes(mode, fmt, extra):
    with tempfile.TemporaryDirectory() as tmp:
        out, rec = os.path.join(tmp, "out"), os.path.join(tmp, "rec")
        code, _, err = run_cli(["verify", "--mode", mode, "--range", "5:3000", "--format", fmt,
                                "--out", out, "--emit-records", rec] + extra)
        assert code == 0, err
        with open(out, "rb") as fo, open(rec, "rb") as fr:
            return fo.read(), fr.read()


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from(["twin", "prime", "sun"]), fmt=st.sampled_from(["csv", "jsonl"]),
       shard_size=st.integers(1, 3500), workers=st.sampled_from(["1", "2"]))
def test_any_sharding_matches_single_shard(mode, fmt, shard_size, workers):
    key = (mode, fmt)
    if key not in _SINGLE_SHARD:
        _SINGLE_SHARD[key] = _verify_bytes(mode, fmt, ["--shard-size", "3000", "--workers", "1"])
    got = _verify_bytes(mode, fmt, ["--shard-size", str(shard_size), "--workers", workers])
    assert got == _SINGLE_SHARD[key]


_STATS_SINGLE_SHARD: dict = {}


@settings(max_examples=25, deadline=None)
@given(fmt=st.sampled_from(["csv", "jsonl"]), shard_size=st.integers(1, 3500),
       bucket=st.one_of(st.integers(1, 40), st.integers(41, 4000)),
       workers=st.sampled_from(["1", "2"]))
def test_any_stats_sharding_matches_single_shard(fmt, shard_size, bucket, workers):
    # a bucket spans shards whenever a shard boundary cuts it
    argv = ["stats", "--range", "5:3000", "--bucket", str(bucket), "--format", fmt]
    key = (fmt, bucket)
    if key not in _STATS_SINGLE_SHARD:
        _STATS_SINGLE_SHARD[key] = run_cli(argv + ["--shard-size", "3000", "--workers", "1"])
        assert _STATS_SINGLE_SHARD[key][0] == 0
    got = run_cli(argv + ["--shard-size", str(shard_size), "--workers", workers])
    assert got == _STATS_SINGLE_SHARD[key]


class TestResumeFaults:
    BASE = ["verify", "--mode", "twin", "--range", "5:90000", "--shard-size", "11000",
            "--workers", "1"]

    def _interrupted(self, tmp_path):
        paths = {k: str(tmp_path / k) for k in ("ck", "out", "rec", "ref-out", "ref-rec")}
        assert run_cli(self.BASE + ["--out", paths["ref-out"],
                                    "--emit-records", paths["ref-rec"]])[0] == 0
        assert run_cli(self.BASE + ["--out", paths["out"], "--emit-records", paths["rec"],
                                    "--checkpoint", paths["ck"],
                                    "--stop-after-shards", "3"])[0] == 0
        return paths

    def _resume(self, paths):
        return run_cli(self.BASE + ["--out", paths["out"], "--emit-records", paths["rec"],
                                    "--checkpoint", paths["ck"]])

    def test_torn_last_checkpoint_line_is_dropped(self, tmp_path):
        paths = self._interrupted(tmp_path)
        with open(paths["ck"], "a") as fh:
            fh.write('SHARD {"records_bytes": 12')
        code, _, err = self._resume(paths)
        assert code == 0, err
        lines = open(paths["ck"]).read().splitlines()
        assert lines[-1].startswith("DONE ") and len(lines) == 1 + 9 + 1  # META, shards, DONE
        assert open(paths["out"], "rb").read() == open(paths["ref-out"], "rb").read()
        assert open(paths["rec"], "rb").read() == open(paths["ref-rec"], "rb").read()

    def test_short_records_file_is_exit_2(self, tmp_path):
        paths = self._interrupted(tmp_path)
        os.truncate(paths["rec"], 100)
        checkpoint = open(paths["ck"], "rb").read()
        code, _, err = self._resume(paths)
        assert code == 2
        assert "records" in err
        assert os.path.getsize(paths["rec"]) == 100
        assert open(paths["ck"], "rb").read() == checkpoint
        assert not os.path.exists(paths["out"])

    def test_complete_checkpoint_with_wrong_digest_is_exit_2(self, tmp_path):
        cp = tmp_path / "ck"
        base = ["verify", "--mode", "twin", "--range", "5:30000", "--shard-size", "8000",
                "--checkpoint", str(cp)]
        assert run_cli(base)[0] == 0
        lines = cp.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("DONE ")
        kind, payload = lines[1].split(" ", 1)
        entry = json.loads(payload)
        entry["summary"]["checked"] = 7
        lines[1] = f"{kind} {json.dumps(entry, sort_keys=True)}\n"
        cp.write_text("".join(lines))
        code, out, err = run_cli(base)
        assert (code, out) == (2, "")
        assert "DONE digest" in err
        assert cp.read_text() == "".join(lines)

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_shard_line_with_other_fields_is_exit_2(self, tmp_path, edit):
        paths = self._interrupted(tmp_path)
        lines = open(paths["ck"]).read().splitlines(keepends=True)
        kind, payload = lines[1].split(" ", 1)
        entry = json.loads(payload)
        if edit == "drop":
            del entry["summary"]["checked"]
        else:
            entry["summary"]["extra"] = 0
        lines[1] = f"{kind} {json.dumps(entry, sort_keys=True)}\n"
        open(paths["ck"], "w").write("".join(lines))
        records = open(paths["rec"], "rb").read()
        code, out, err = self._resume(paths)
        assert (code, out) == (2, "")
        assert "fields differ" in err
        assert open(paths["ck"]).read() == "".join(lines)
        assert open(paths["rec"], "rb").read() == records
        assert not os.path.exists(paths["out"])

    def test_complete_checkpoint_keeps_records_file(self, tmp_path):
        # the DONE digest does not cover records_bytes, so only the size check catches this
        cp, rec = tmp_path / "ck", tmp_path / "rec"
        base = ["verify", "--mode", "twin", "--range", "5:30000", "--shard-size", "8000",
                "--checkpoint", str(cp), "--emit-records", str(rec), "--workers", "1"]
        assert run_cli(base)[0] == 0
        records = rec.read_bytes()
        assert len(records) == 105_539
        lines = cp.read_text().splitlines(keepends=True)
        kind, payload = lines[-2].split(" ", 1)
        entry = json.loads(payload)
        entry["records_bytes"] = 100
        lines[-2] = f"{kind} {json.dumps(entry, sort_keys=True)}\n"
        cp.write_text("".join(lines))
        code, out, err = run_cli(base + ["--out", str(tmp_path / "out")])
        assert (code, out) == (2, "")
        assert "records" in err
        assert rec.read_bytes() == records
        assert cp.read_text() == "".join(lines)
        assert not (tmp_path / "out").exists()

    def test_stdout_records_with_checkpoint_leave_no_file(self, tmp_path):
        cp = tmp_path / "ck"
        code, out, err = run_cli(self.BASE + ["--emit-records", "-", "--checkpoint", str(cp)])
        assert (code, out) == (2, "")
        assert "stdout" in err
        assert not cp.exists()


def test_workers_default_is_usable_cpus():
    from twinrep.cli import build_parser

    args = build_parser().parse_args(["mirsky", "--y", "10"])
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert args.workers == expected


@pytest.mark.parametrize("mode, digest", [
    ("twin", "1b31fe9e654cad73d3984ab3604bad3484b73dff2b20a14db052d28f6da7ae4e"),
    ("sun", "1c39adfb6d96e945dae6467dfefa12c678497db387c2a3e056d57b6bcef954b3"),
])
def test_checkpoint_bytes_pinned(tmp_path, mode, digest):
    # SHA-256 of the checkpoint the argsort and per-n walk digest wrote
    cp = tmp_path / "ck"
    code, _, err = run_cli(["verify", "--mode", mode, "--range", "5:30000",
                            "--shard-size", "8000", "--checkpoint", str(cp)])
    assert code == 0, err
    assert hashlib.sha256(cp.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("extra", [["--checkpoint", "F", "--stop-after-shards", "3"],
                                   ["--checkpoint", "F"], ["--stop-after-shards", "3"]])
def test_stats_does_not_resume(tmp_path, extra):
    # a checkpoint keeps shard digests, not the growth rows folded so far
    out = tmp_path / "out"
    argv = ["stats", "--range", "5:60000", "--bucket", "20000", "--shard-size", "9000",
            "--workers", "1", "--out", str(out)]
    argv += [str(tmp_path / a) if a == "F" else a for a in extra]
    for _ in range(2):  # the interrupted run, then its resume
        code, stdout, err = run_cli(argv)
        assert (code, stdout) == (2, "")
        assert "stats does not resume" in err
        assert list(tmp_path.iterdir()) == []


_RECORD_DIGESTS = {  # SHA-256 of the records the per-row f-string / json.dumps writer wrote
    ("twin", "csv"): "5cb3d54a12fd55d6de78c70e42edda5d5752ab08b5080550ba7b5688012382dc",
    ("twin", "jsonl"): "9d5296d7294109d66cf79e304a95a33ac136ac62ff12301bbff021102dfe3ee7",
    ("prime", "csv"): "7ab83650ffc6a4fbb9b5912bd26bc76b29ea3b530df78220389ab6be830ded7a",
    ("prime", "jsonl"): "21f8b0e7b91ecb41e475a1c12fc1c1d73e7ba011e441029629c376cb42073e28",
    ("sun", "csv"): "d2f55599c0e877f7b54eafb6da84f4bb2cbaef65c4d0dd1b45b48d10d587174a",
    ("sun", "jsonl"): "ba315f8fcfc6fc52093b01964f23dcf73c664bcbb06dc21dd91fa04ca2f08a07",
}


@pytest.mark.parametrize("mode, fmt", sorted(_RECORD_DIGESTS))
def test_verify_records_bytes_pinned(tmp_path, mode, fmt):
    base = ["verify", "--mode", mode, "--range", "5:200001", "--shard-size", "65536",
            "--format", fmt]
    rec, out, cp = tmp_path / "rec", tmp_path / "out", tmp_path / "ck"
    code, _, err = run_cli(base + ["--workers", "1", "--emit-records", str(rec),
                                   "--out", str(out)])
    assert code == 0, err
    pinned = rec.read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == _RECORD_DIGESTS[mode, fmt]
    code, stdout, _ = run_cli(base + ["--workers", "2", "--emit-records", "-"])
    assert code == 0
    assert stdout.encode() == pinned + out.read_bytes()
    # interrupted after one shard, then resumed with two workers
    resumable = base + ["--emit-records", str(rec), "--checkpoint", str(cp)]
    rec.unlink()
    assert run_cli(resumable + ["--workers", "1", "--stop-after-shards", "1"])[0] == 0
    assert 0 < rec.stat().st_size < len(pinned)
    assert run_cli(resumable + ["--workers", "2"])[0] == 0
    assert rec.read_bytes() == pinned


_REPORT_RUNS = {
    "singular": ["singular", "--pmax", "40", "--cutoff", "3000"],
    "sigma": ["sigma", "--qmax", "12", "--pmax", "23"],
    "singular-40000": ["singular", "--pmax", "60", "--cutoff", "40000"],
    "sigma-300": ["sigma", "--qmax", "300", "--pmax", "60"],
    "density": ["density", "--x", "30000"],
    "mirsky": ["mirsky", "--y", "5000"],
    "stats": ["stats", "--range", "5:40000", "--bucket", "7000", "--workers", "1"],
    "variance": ["variance", "--x", "40,60", "--cutoff", "2000"],
}
_REPORT_DIGESTS = {  # SHA-256 of the stdout the per-report dict rows and scan copy wrote
    ("singular", "csv"): "53de9e1d94abb983b7cfd0dfdbeb93b2b7580bbcb763de03a3ba391809d03a47",
    ("singular", "jsonl"): "91eadd0c7f4a07172398e3d058eb08759cbd831e5e6c2c306d19287adb1464a7",
    ("sigma", "csv"): "35b96561c75e70dcb98817b2c40b08ded5682f21a90eded92ae7c34e280be2c0",
    ("sigma", "jsonl"): "0bd9874d670bbd5e33c4e69d2c4d6e1371b1511e95749f34edc19a538ddcd68d",
    # the sizes of the benchmark's reports workload, as the scalar symbol
    # loops and the per-cell Sigma evaluation printed them
    ("singular-40000", "csv"): "0836393260671d28d524bdf134504dd1b51ab030698a6ee3a8eb237c7f70089a",
    ("singular-40000", "jsonl"): "c1c56200ecfefc57451821ef1390246a0609a2d186139a77371cfefa9ca5932f",
    ("sigma-300", "csv"): "38fe6f77d58a41423f4ae0c59d999728b8b5786b35362de50da9777a84c96c51",
    ("sigma-300", "jsonl"): "fe8a9ac8e95238c56cbf43423e274ad42ce27a971c1f8f7cacb68ae503941de3",
    ("density", "csv"): "13011f452659f077409a0a3dbded8f92488136aa31113ee9094c5adbfb3072c0",
    ("density", "jsonl"): "ac27417acf74162e2c5978daed1e0d7ac4d3338c6c2fd1881b23c410549b7796",
    ("mirsky", "csv"): "1ea8f6e259823367c05d2b046dd78e3d84900887bc419b400da87caad4015933",
    ("mirsky", "jsonl"): "d745c2551256eca7fddf309447e0f7cc52d41ac69f7bcaa005b095364030eb71",
    ("stats", "csv"): "5293c2994ede085949b9770b4180d1c836179e867f3c62cf8a429c6e90314a08",
    ("stats", "jsonl"): "4c740774ed4462e3a7e487714994de65a30aa867d30a812ea49e5400a6bed4c6",
    ("variance", "csv"): "46a702af99a27eb17561818be57f2dd277a625c0bcf00320109835f664dcc145",
    ("variance", "jsonl"): "13913fdfefd0c11c3659096825c8fc372243be5bad986797688a0b57d3c30d76",
}


@pytest.mark.parametrize("name, fmt", sorted(_REPORT_DIGESTS))
def test_report_bytes_pinned(tmp_path, name, fmt):
    code, out, err = run_cli(_REPORT_RUNS[name] + ["--format", fmt])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_DIGESTS[name, fmt]
    path = tmp_path / "report"
    assert run_cli(_REPORT_RUNS[name] + ["--format", fmt, "--out", str(path)])[0] == 0
    assert path.read_bytes() == out.encode()


def _ulps_from(base: float, steps: int) -> float:
    """The double `steps` representations above (below, if negative) base."""
    return float((np.float64(base).view(np.int64) + steps).view(np.float64))


_EDGES = [0.0, 1.0, 1e-4, 1e-4 - 5e-7, 1e9, 1e9 - 5e-7, 2**52 / 1e6, 2**51 / 1e6]
_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e4),
    st.integers(0, 2**20).map(lambda k: k / 128),  # exact binary ties such as 0.0078125
    st.builds(lambda k, d: _ulps_from((k + 0.5) * 1e-6, d),  # around (k + 1/2) * 1e-6
              st.integers(0, 10**12), st.integers(-3, 3)),
    st.builds(_ulps_from, st.sampled_from(_EDGES), st.integers(-40, 40)),
    st.sampled_from([-0.0, -2.5, math.inf, math.nan]),
)
_INTS = st.one_of(st.integers(0, 2**62), st.integers(0, 10**7), st.integers(-10, -1))


def _rows_by_scalar_rule(header, columns, fmt):
    lines = []
    for row in zip(*(c.tolist() for c in columns)):
        if fmt == "csv":
            cells = (f"{v:.6f}" if isinstance(v, float) else str(v) for v in row)
            lines.append(",".join(cells) + "\n")
        else:
            lines.append(json.dumps({k: _json_cell(v) for k, v in zip(header, row)}) + "\n")
    return "".join(lines).encode()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "jsonl"]),
       kinds=st.lists(st.sampled_from("if"), min_size=1, max_size=5),
       rows=st.integers(1, 40))
def test_format_rows_matches_scalar_rule(data, fmt, kinds, rows):
    columns = [
        np.array(data.draw(st.lists(_INTS if k == "i" else _FLOATS,
                                    min_size=rows, max_size=rows)),
                 dtype=np.int64 if k == "i" else np.float64)
        for k in kinds
    ]
    header = [f"c{i}" for i in range(len(kinds))]
    chunk = data.draw(st.integers(1, rows + 1))
    got = b"".join(_format_rows(header, [c[s : s + chunk] for c in columns], fmt)
                   for s in range(0, rows, chunk))
    assert got == _rows_by_scalar_rule(header, columns, fmt)


def _verify_files(tmp, mode, fmt, workers, extra=()):
    """Summary, records and checkpoint bytes of one verify run over 5:3000."""
    paths = [os.path.join(tmp, name) for name in ("out", "rec", "ck")]
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)
    code, _, err = run_cli(["verify", "--mode", mode, "--range", "5:3000", "--format", fmt,
                            "--shard-size", "700", "--workers", workers,
                            "--out", paths[0], "--emit-records", paths[1],
                            "--checkpoint", paths[2], *extra])
    assert code == 0, err
    return [open(path, "rb").read() for path in paths]


_TABLE_FILES: dict = {}

# a monkeypatched module reaches pool workers only when they are forked
_FORKED_WORKERS = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                     reason="pool workers are not forked here")


@_FORKED_WORKERS
@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(["twin", "prime", "sun"]), fmt=st.sampled_from(["csv", "jsonl"]),
       width=st.one_of(st.integers(1, 64), st.integers(65, 2048)),
       workers=st.sampled_from(["1", "2"]))
def test_any_window_width_gives_the_table_bytes(pieces, mode, fmt, width, workers):
    # the p-bitmap sieved in pieces of any width against the whole table a
    # --cache run scans
    with tempfile.TemporaryDirectory() as tmp:
        if (mode, fmt) not in _TABLE_FILES:
            cache = os.path.join(tmp, "primes.bin")
            assert run_cli(["sieve-cache", "--limit", "3000", "--cache-out", cache])[0] == 0
            _TABLE_FILES[mode, fmt] = _verify_files(tmp, mode, fmt, "1", ["--cache", cache])
        with pieces(width):
            assert _verify_files(tmp, mode, fmt, workers) == _TABLE_FILES[mode, fmt]


@pytest.mark.parametrize("width", [7, 23, 1 << 20])
def test_twin_cache_to_its_limit_gives_the_sieved_bytes(tmp_path, pieces, width):
    # hi is the cache's limit, so the last twin piece is cut short at the table's end:
    # 2001 odd bits end inside a piece of 7 or 2^20, on the edge of a piece of 23
    cache = str(tmp_path / "primes.bin")
    assert run_cli(["sieve-cache", "--limit", "4001", "--cache-out", cache])[0] == 0
    argv = ["verify", "--mode", "twin", "--range", "5:4001", "--shard-size", "900",
            "--workers", "1", "--emit-records"]
    with pieces(width):
        code, cached, err = run_cli(argv + [str(tmp_path / "cached"), "--cache", cache])
        assert code == 0, err
        assert run_cli(argv + [str(tmp_path / "sieved")]) == (0, cached, "")
    assert (tmp_path / "cached").read_bytes() == (tmp_path / "sieved").read_bytes()
    assert parse_csv(cached)[0]["checked"] == "549"  # pi(4001) - 2


class TestMemoryBudget:
    ARGVS = {
        "verify": ["verify", "--mode", "twin", "--range", "5:200000", "--workers", "2"],
        "stats": ["stats", "--range", "5:200000", "--bucket", "50000", "--workers", "1"],
        "mirsky": ["mirsky", "--y", "100000"],
    }

    @pytest.mark.parametrize("name", sorted(ARGVS))
    @pytest.mark.parametrize("cached", [False, True])
    def test_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch, name, cached):
        argv = list(self.ARGVS[name])
        if cached:
            cache = tmp_path / "primes.bin"
            assert run_cli(["sieve-cache", "--limit", "200000", "--cache-out", str(cache)])[0] == 0
            argv += ["--cache", str(cache)]
        out, ck, rec = tmp_path / "out", tmp_path / "ck", tmp_path / "rec"
        argv += ["--out", str(out)]
        if name == "verify":
            argv += ["--checkpoint", str(ck), "--emit-records", str(rec)]
        estimates = []

        def budget():
            estimates.append(None)
            return 1024  # far below any table or shard
        monkeypatch.setattr(cli, "_memory_budget", budget)
        code, stdout, err = run_cli(argv)
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:") and "available" in err
        assert estimates and not out.exists() and not ck.exists() and not rec.exists()
        monkeypatch.setattr(cli, "_memory_budget", lambda: None)  # unreadable: no check
        assert run_cli(argv)[0] == 0

    def test_density_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # its prime table to 10^6 would fit 2 MiB; the two verify passes do not
        monkeypatch.setattr(cli, "_memory_budget", lambda: 2 * 2**20)
        out = tmp_path / "out"
        code, stdout, err = run_cli(["density", "--x", "1000000", "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:")
        assert not out.exists()

    def test_stats_rows_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # the shard and p-bitmap terms fit; with --bucket 1 the growth rows,
        # one a q with a representation, do not
        argv = ["stats", "--range", "5:2000000", "--workers", "1"]
        args = cli.build_parser().parse_args(argv + ["--bucket", "1"])
        verify = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 2_000_000, True)
        monkeypatch.setattr(cli, "_memory_budget", lambda: verify + 8 * 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(argv + ["--bucket", "1", "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:")
        assert not out.exists()
        # buckets of 10^5 fit the same budget; the last, {2000000}, holds no prime
        code, _, err = run_cli(argv + ["--bucket", "100000", "--out", str(out)])
        assert code == 0, err
        assert len(parse_csv(out.read_text())) == 20

    def test_budget_reads_a_positive_figure(self):
        budget = cli._memory_budget()
        assert budget is None or budget > 0

    def test_estimate_grows_with_workers_and_range(self):
        args = cli.build_parser().parse_args(["verify", "--mode", "twin", "--range", "5:10",
                                              "--workers", "1"])
        twin = represent.Mode.TWIN_MIN
        small = cli._verify_memory(args, twin, 5, 10**7, False)
        assert cli._verify_memory(args, twin, 5, 10**9, False) > small
        # verify --range 20000000000:20002000000 peaks at 206 MB, 174 MB of it the p-bitmap
        assert cli._verify_memory(args, twin, 2 * 10**10, 20_002_000_000, False) > 206 * 2**20
        args.workers = 2
        assert cli._verify_memory(args, twin, 5, 10**7, False) == 2 * small
        # records or a fold: the arrays of up to two shards a worker wait in the parent
        assert cli._verify_memory(args, twin, 5, 10**7, True) > 2 * small

    def test_cache_adds_its_table_once_to_the_same_estimate(self, tmp_path):
        cache = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "200000", "--cache-out", cache])[0] == 0
        args = cli.build_parser().parse_args(["verify", "--mode", "twin", "--range", "5:200000",
                                              "--workers", "2", "--cache", cache])
        twin = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 200_000, False)
        assert cli._verify_memory(args, represent.Mode.ANY_PRIME, 5, 200_000, False) == twin
        args.cache = None
        sieved = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 200_000, False)
        assert twin == sieved + 2 * cli._cache_bits(cache)

    def test_estimate_counts_only_the_processes_and_lanes_the_run_uses(self):
        args = cli.build_parser().parse_args(["verify", "--mode", "twin", "--range", "5:1000",
                                              "--workers", "64"])
        one = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 1000, False)
        args.workers = 1
        assert cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 1000, False) == one
        assert one < 4 * 2**20  # one shard of 168 primes and its p-bitmap
        # a 2^20 shard holds far fewer primes than odd numbers
        span = cli.DEFAULT_SHARD_SIZE
        assert cli._q_bound(represent.Mode.TWIN_MIN, span) < span // 6
        assert cli._q_bound(represent.Mode.SUN_ODD, span) == span // 2 + 1

    def test_many_workers_on_a_small_range_fit_a_small_budget(self, monkeypatch):
        monkeypatch.setattr(cli, "_memory_budget", lambda: 300 * 2**20)
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:1000",
                                  "--workers", "64"])
        assert code == 0, err
        assert parse_csv(out)[0]["checked"] == "166"

    def test_cgroup_budget_counts_inactive_file_pages_as_free(self, monkeypatch):
        files = {
            "/proc/meminfo": "MemTotal: 16777216 kB\nMemAvailable: 8388608 kB\n",
            "/proc/self/cgroup": "0::/pod\n",
            "/sys/fs/cgroup/pod/memory.max": f"{2**30}\n",
            "/sys/fs/cgroup/pod/memory.current": f"{900 * 2**20}\n",
            "/sys/fs/cgroup/pod/memory.stat": f"anon 1\ninactive_file {600 * 2**20}\nfile 2\n",
        }

        def fake_open(path, *args, **kwargs):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])
        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        assert cli._memory_budget() == (1024 - 900 + 600) * 2**20
        files["/sys/fs/cgroup/pod/memory.max"] = "max\n"
        assert cli._memory_budget() == 8 * 2**30

    def test_cgroup_v1_budget_reads_the_memory_controller(self, monkeypatch):
        base = "/sys/fs/cgroup/memory/pod"
        files = {
            "/proc/meminfo": "MemTotal: 16777216 kB\nMemAvailable: 8388608 kB\n",
            "/proc/self/cgroup": "5:cpu,cpuacct:/\n4:memory:/pod\n1:name=systemd:/\n0::/\n",
            f"{base}/memory.limit_in_bytes": f"{2**30}\n",
            f"{base}/memory.usage_in_bytes": f"{900 * 2**20}\n",
            f"{base}/memory.stat": f"inactive_file 1\ntotal_inactive_file {600 * 2**20}\n",
        }

        def fake_open(path, *args, **kwargs):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])
        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        assert cli._memory_budget() == (1024 - 900 + 600) * 2**20
        files[f"{base}/memory.limit_in_bytes"] = "9223372036854771712\n"  # v1's "unlimited"
        assert cli._memory_budget() == 8 * 2**30


@_FORKED_WORKERS
def test_worker_exception_exits_2_promptly(monkeypatch):
    def broken(qs, pbits):
        raise ValueError("scan kernel failed")

    def hang(signum, frame):
        raise TimeoutError("verify did not return")

    monkeypatch.setattr(represent, "_scan_block", broken)  # forked workers inherit it
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                                  "--shard-size", "5000", "--workers", "2"])
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert "scan kernel failed" in err
    assert elapsed < 30


@_FORKED_WORKERS
def test_interrupt_while_writing_records_ends_the_pool(tmp_path, monkeypatch):
    # Ctrl-C reaches the workers too: an interrupt in the parent's writer
    # must still end the run promptly and leave no worker behind
    scan = represent._scan_block

    def slow(qs, pbits):
        time.sleep(0.2)
        return scan(qs, pbits)

    def interrupt(self, arrays):
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGINT)
        raise KeyboardInterrupt

    def hang(signum, frame):
        raise TimeoutError("verify did not return")

    monkeypatch.setattr(represent, "_scan_block", slow)  # forked workers inherit it
    monkeypatch.setattr(cli._Sink, "columns", interrupt)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_cli(["verify", "--mode", "twin", "--range", "5:400000", "--shard-size", "5000",
                     "--workers", "2", "--emit-records", str(tmp_path / "rec")])
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 30
    assert not multiprocessing.active_children()


@_FORKED_WORKERS
def test_killed_worker_exits_3_promptly(monkeypatch):
    # a worker the kernel kills mid-shard (out of memory, say) posts no
    # result: the run must fail rather than wait for that result forever
    scan = represent._scan_block

    def killed(qs, pbits):
        if qs[0] > 200_000:  # pool workers alone scan, so this kills one of them
            os.kill(os.getpid(), signal.SIGKILL)
        return scan(qs, pbits)

    def hang(signum, frame):
        raise TimeoutError("verify did not return")

    monkeypatch.setattr(represent, "_scan_block", killed)  # forked workers inherit it
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                                  "--shard-size", "5000", "--workers", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (3, "")
    assert err.startswith("resource failure:") and "worker" in err
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cache", [False, True])
def test_shard_returns_arrays_only_when_asked(tmp_path, cache):
    path = None
    if cache:
        path = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "20000", "--cache-out", path])[0] == 0
    bare = cli._ShardTask(represent.Mode.TWIN_MIN, 5, 20000, False, path, False)
    summary, arrays = cli._run_shard(bare)
    assert arrays is None and summary.checked == 2260  # pi(20000) - 2
    summary, arrays = cli._run_shard(bare._replace(keep_arrays=True))
    assert [len(a) for a in arrays] == [2260] * 3
