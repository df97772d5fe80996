import argparse
import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import re
import shlex
import signal
import struct
import tempfile
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrep import cli, represent, sieve
from twinrep.arithmetic import is_prime_64
from twinrep.asymptotic import variance_sweep
from twinrep.cli import _format_rows, _json_cell, main
from twinrep.sieve import build_prime_table, load_prime_table, prime_count, save_prime_table


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
            outs.append(pathlib.Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_shard_size_invariance(self, tmp_path):
        outs = []
        for shard in ("7777", "50000"):
            path = str(tmp_path / f"out-{shard}.csv")
            code, _, _ = run_cli(["verify", "--mode", "twin", "--range", "5:100000",
                                  "--shard-size", shard, "--out", path, "--workers", "2"])
            assert code == 0
            outs.append(pathlib.Path(path).read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_resume_byte_identical(self, tmp_path, cut_checkpoint):
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
                                     "--checkpoint", cp, "--workers", "1"])
        assert code == 0
        # stopped after 3 shards, with the records of later shards already written
        cut_checkpoint(cp, 3)
        os.unlink(out)
        lines = pathlib.Path(cp).read_text().splitlines()
        assert lines[0].startswith("META ") and len(lines) == 4  # META + 3 shards
        code, _, _ = run_cli(base + ["--out", out, "--emit-records", rec,
                                     "--checkpoint", cp, "--workers", "2"])
        assert code == 0
        assert pathlib.Path(cp).read_text().splitlines()[-1].startswith("DONE ")
        assert pathlib.Path(out).read_bytes() == pathlib.Path(ref_out).read_bytes()
        assert pathlib.Path(rec).read_bytes() == pathlib.Path(ref_rec).read_bytes()

    def test_checkpoint_complete_run_is_idempotent(self, tmp_path):
        cp = str(tmp_path / "ck.txt")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        base = ["verify", "--mode", "twin", "--range", "5:30000", "--shard-size", "8000",
                "--checkpoint", cp]
        assert run_cli(base + ["--out", out1])[0] == 0
        assert run_cli(base + ["--out", out2])[0] == 0  # everything from checkpoint
        assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()

    def test_checkpoint_parameter_mismatch_rejected(self, tmp_path, cut_checkpoint):
        cp = str(tmp_path / "ck.txt")
        assert run_cli(["verify", "--mode", "twin", "--range", "5:30000",
                        "--shard-size", "8000", "--checkpoint", cp])[0] == 0
        cut_checkpoint(cp, 1)
        code, _, err = run_cli(["verify", "--mode", "twin", "--range", "5:30000",
                                "--shard-size", "9999", "--checkpoint", cp])
        assert code == 2
        assert "different parameters" in err

    def test_records_content(self, tmp_path):
        rec = str(tmp_path / "rec.csv")
        code, _, _ = run_cli(["verify", "--mode", "twin", "--range", "5:100",
                              "--emit-records", rec])
        assert code == 0
        rows = parse_csv(pathlib.Path(rec).read_text())
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
        csv_row = parse_csv(pathlib.Path(csv_path).read_text())[0]
        json_row = json.loads(pathlib.Path(jsonl_path).read_text())
        assert int(csv_row["s_y"]) == json_row["s_y"]
        assert int(csv_row["pi_y"]) == json_row["pi_y"]
        assert float(csv_row["fraction"]) == json_row["fraction"]

    def test_verify_jsonl_matches_csv(self, tmp_path):
        a = str(tmp_path / "v.csv")
        b = str(tmp_path / "v.jsonl")
        base = ["verify", "--mode", "twin", "--range", "5:20000"]
        assert run_cli(base + ["--out", a])[0] == 0
        assert run_cli(base + ["--format", "jsonl", "--out", b])[0] == 0
        csv_row = parse_csv(pathlib.Path(a).read_text())[0]
        json_row = json.loads(pathlib.Path(b).read_text())
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

    def test_variance_baier_zhao_rows_are_the_library_reports(self, table_1e5):
        argv = ["variance", "--x", "40,80", "--cutoff", "500"]
        code, out, err = run_cli(argv + ["--baier-zhao"])
        assert code == 0, err
        header = ["x", "y", "cutoff", "term_count", "lhs", "ratio"]
        reports = variance_sweep([(40, 1600), (80, 6400)], 500, table_1e5, baier_zhao=True)
        assert out == ",".join(header) + "\n" + "".join(
            cli._format_row(header, vars(report), "csv") for report in reports)
        plain = parse_csv(run_cli(argv)[1])
        for scaled, unscaled in zip(parse_csv(out), plain):
            assert scaled["term_count"] == unscaled["term_count"]
            assert scaled["lhs"] != unscaled["lhs"] and scaled["ratio"] != unscaled["ratio"]

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

    @pytest.mark.parametrize("argv, digest", [
        # the file the fsum-per-p implementation wrote
        pytest.param(["--x", "60"],
                     "4b7779da4d24e45d80018212b43d5ce85870e9bad6c65f569338a6eb8dfa0acf",
                     id="60-csv"),
        pytest.param(["--x", "60", "--format", "jsonl"],
                     "3911b41dd2528dfe97a8179e28008671bf698a794a59aed07f7073b148513ad4",
                     id="60-jsonl"),
        # 16,482 rows: more than one chunk of the column writer
        pytest.param(["--x", "1000"],
                     "66753f9922613297d9240ebb209e08f2d27cc19f6af710ec5e2b2983ca84dba5",
                     id="1000-csv"),
        pytest.param(["--x", "1000", "--format", "jsonl"],
                     "af6d38938121b6492110c15ea2dde9d3f4b49d454051732d74146a2db209140f",
                     id="1000-jsonl"),
        # no kappa: the header line alone, and an empty JSONL file
        pytest.param(["--x", "2"],
                     hashlib.sha256(b"p,kappa,psi,s_trunc,main_term,residual,residual_sq\n")
                     .hexdigest(),
                     id="2-csv"),
        pytest.param(["--x", "2", "--format", "jsonl"], hashlib.sha256(b"").hexdigest(),
                     id="2-jsonl"),
    ])
    def test_variance_records_bytes_pinned(self, tmp_path, argv, digest):
        # SHA-256 of the files the per-term row writer wrote
        rec = tmp_path / "terms"
        code, _, _ = run_cli(["variance", "--cutoff", "2000", "--emit-records", str(rec)] + argv)
        assert code == 0
        assert hashlib.sha256(rec.read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("fmt, digest, records_digest", [
        ("csv", "151f7ae557fb8250c53343ca325543e7b7dfc6818c5ad3075bc9052d30c95d39",
         "b520a3fe6dd89109abc525d8029d4eb8b38fa2976b545cfe1f822c9d6c8cf948"),
        ("jsonl", "8969152c4b34c5ed877003d5c8337ef0324f4e6e290cca0590f183c977015145",
         "4ccd9169331c6112435603920937793427c5355baf3ebb73569bc66b7c59bca4"),
    ])
    def test_variance_jacobi_side_bytes_pinned(self, tmp_path, fmt, digest, records_digest):
        # SHA-256 of the files the all-table singular-series kernel wrote: the
        # 18 kappa <= 400 take Jacobi symbols from ell = 1801 on
        out, rec = tmp_path / "variance", tmp_path / "terms"
        code, _, _ = run_cli(["variance", "--x", "20", "--cutoff", "20000", "--format", fmt,
                              "--out", str(out), "--emit-records", str(rec)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert hashlib.sha256(rec.read_bytes()).hexdigest() == records_digest

    @pytest.mark.parametrize("runs, cutoff", [
        # the von Mangoldt table is most of the peak; the singular tables
        pytest.param([(600, 360_000), (300, 90_000)], 3, id="lambda"),
        pytest.param([(100, 10_000), (140, 19_600), (100, 10_000)], 4000, id="table"),
        pytest.param([(20, 400)], 20_000, id="jacobi"),
        pytest.param([(12, 100)], 200_000, id="jacobi-wide-cutoff"),
    ])
    def test_variance_sweep_peaks_within_its_estimate(self, runs, cutoff):
        needed = max(max(cutoff, (y + 1) // 4, math.isqrt(y) + 1) for _, y in runs)
        table = build_prime_table(needed)
        variance_sweep(runs[:1], 3, table)  # the table's primes, counted with the table
        tracemalloc.start()
        try:
            variance_sweep(runs, cutoff, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._variance_memory(runs, cutoff)

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

    @pytest.mark.parametrize("xs, y", [("100000", "10000000001"), ("100000,3", "10")])
    def test_variance_outside_the_region_is_exit_2_before_the_budget(self, tmp_path,
                                                                      monkeypatch, xs, y):
        # y > x^2 for one run: sized as given, the first case's tables would
        # need about 86 GiB; no table is sized or built for a rejected run
        reads = []
        monkeypatch.setattr(cli, "_memory_budget", lambda: reads.append(1) or 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", xs, "--y", y, "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err.startswith("error: region violation")
        assert reads == []
        assert not out.exists()

    def test_variance_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # the prime table to 10^6 fits 5 MiB; the von Mangoldt table to
        # x^2 + x + 10^6 = 5002000, 20 MB over its odd integers, does not
        monkeypatch.setattr(cli, "_memory_budget", lambda: 5 * 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", "2000", "--cutoff", "1000",
                                     "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:")
        assert not out.exists()

    def test_variance_cutoff_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # the prime table to 2 * 10^5 (100 KB), the von Mangoldt table to
        # 200,400 (1.2 MB) and the kept terms fit 2 MiB; the singular series'
        # factor tables, which with 3,132 kappa reach the cutoff, 20 bytes an
        # integer, do not (the sweep's traced peak is 3.5 MB)
        monkeypatch.setattr(cli, "_memory_budget", lambda: 2 * 2**20)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", "400", "--cutoff", "200000",
                                     "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:") and "singular series" in err
        assert not out.exists()

    def test_variance_few_kappa_at_a_wide_cutoff_fit_a_small_budget(self, tmp_path, monkeypatch):
        # with 7 kappa the factor tables stop below ell = 1,300 and the rest
        # is Jacobi chunks: the sweep's traced peak is 0.84 MB
        argv = ["variance", "--x", "10", "--cutoff", "200000", "--out", str(tmp_path / "out.csv")]
        assert run_cli(argv)[0] == 0
        expected = (tmp_path / "out.csv").read_bytes()
        monkeypatch.setattr(cli, "_memory_budget", lambda: 2 * 2**20)
        assert run_cli(argv) == (0, "", "")
        assert (tmp_path / "out.csv").read_bytes() == expected

    def test_variance_kept_terms_over_budget_is_exit_3_before_any_file(self, tmp_path,
                                                                         monkeypatch):
        # 50 runs at x = 100: the tables and the kernels are counted as 417 KB,
        # but each run keeps four float64 columns over its 277 kappa <= 10^4,
        # counted as 50 * 32 * 640 bytes, 1 MB
        monkeypatch.setattr(cli, "_memory_budget", lambda: 2**19)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["variance", "--x", ",".join(["100"] * 50),
                                     "--cutoff", "1000", "--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:") and "terms of 50 runs" in err
        assert not out.exists()

    def test_variance_records(self, tmp_path):
        rec = str(tmp_path / "terms.csv")
        code, _, _ = run_cli(["variance", "--x", "40", "--cutoff", "500",
                              "--emit-records", rec])
        assert code == 0
        rows = parse_csv(pathlib.Path(rec).read_text())
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

    def test_mirsky_at_the_edge(self, tmp_path):
        # below 2 no prime is counted: --y 0 prints the zero row, as --y 1 does
        for y in ("0", "1"):
            row = f"y,s_y,pi_y,fraction\n{y},0,0,0.000000\n"
            assert run_cli(["mirsky", "--y", y]) == (0, row, "")
        out = tmp_path / "out"
        code, stdout, err = run_cli(["mirsky", "--y", "-5", "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err == "error: --y must be >= 0, got -5\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["sigma", "--qmax", "6", "--pmax", "30"],
        ["singular", "--pmax", "30", "--cutoff", "40"],
    ], ids=lambda argv: argv[0])
    def test_report_reads_cache(self, tmp_path, argv):
        # a larger cache holds primes past --pmax and the cutoff: the report
        # takes only the table's primes up to them
        small, large = str(tmp_path / "small.bin"), str(tmp_path / "large.bin")
        assert run_cli(["sieve-cache", "--limit", "20", "--cache-out", small])[0] == 0
        assert run_cli(["sieve-cache", "--limit", "100", "--cache-out", large])[0] == 0
        code, out, err = run_cli(argv + ["--cache", small])
        assert (code, out) == (2, "")
        assert "covers only" in err
        plain = run_cli(argv)
        assert plain[0] == 0
        assert run_cli(argv + ["--cache", large]) == plain

    @pytest.mark.parametrize("argv, upto", [
        (["sigma", "--qmax", "6", "--pmax", "30"], 30),
        (["singular", "--pmax", "30", "--cutoff", "40"], 40),
    ], ids=["sigma", "singular"])
    def test_report_builds_primes_only_to_what_it_reads(self, tmp_path, monkeypatch, argv,
                                                        upto):
        # the cached table's primes stop at --pmax (and the cutoff), not at its limit
        cache = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "1000", "--cache-out", cache])[0] == 0
        loaded = []
        monkeypatch.setattr(cli, "load_prime_table",
                            lambda path: loaded.append(load_prime_table(path)) or loaded[-1])
        assert run_cli(argv + ["--cache", cache])[0] == 0
        (table,) = loaded  # the table the report read
        assert table._primes is not None
        assert table._primes.tolist() == [p for p in range(upto + 1) if is_prime_64(p)]

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
        code, _, err = run_cli(["sieve-cache", "--limit", "100", "--cache-out",
                                str(tmp_path / "pt.bin"), "--cache", str(tmp_path / "other.bin")])
        assert code == 2 and "unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    def test_stats_worker_invariance(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            path = str(tmp_path / f"g{workers}.csv")
            code, _, _ = run_cli(["stats", "--range", "5:60000", "--bucket", "20000",
                                  "--shard-size", "9000", "--workers", workers,
                                  "--out", path])
            assert code == 0
            outs.append(pathlib.Path(path).read_bytes())
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
        # [2, 2097153] is two shards of 2^20, so three workers run two processes
        argv = ["density", "--x", "2097153"]
        one = run_cli(argv + ["--workers", "1"])
        assert one[0] == 0
        assert run_cli(argv + ["--workers", "3"]) == one


class TestDensityOnePass:
    """density runs the engine once, in twin mode, and finds the any-prime
    exceptions among that pass's failures."""

    @staticmethod
    def spy(monkeypatch, extra_failures=()):
        """Record each engine call's (mode, lo, hi); the summary it returns
        also fails extra_failures."""
        engine, calls = cli._run_sharded_verify, []

        def spied(args, mode, lo, hi, *rest):
            calls.append((mode, lo, hi))
            total = engine(args, mode, lo, hi, *rest)
            total.failures = sorted({*total.failures, *extra_failures})
            return total
        monkeypatch.setattr(cli, "_run_sharded_verify", spied)
        return calls

    def test_one_twin_pass(self, monkeypatch):
        calls = self.spy(monkeypatch)
        assert density_report(10_000).exceptions_any_prime == [2, 3]
        assert calls == [(represent.Mode.TWIN_MIN, 2, 10_000)]

    def test_exact_check_matches_the_prime_scan(self, monkeypatch, table_1e5):
        # every prime q <= 10^5 goes through the check, as if the twin pass failed it
        primes = table_1e5.primes().tolist()
        self.spy(monkeypatch, primes)
        report = density_report(100_000)
        expected = [q for q in primes
                    if represent.find_any_prime_representation(q, table_1e5) is None]
        assert report.exceptions_any_prime == expected[:32]
        assert report.representable_any_prime == len(primes) - len(expected)
        assert report.exceptions_twin == primes[:32]

    def test_a_twin_failure_with_a_prime_representation(self, monkeypatch):
        # 7 = 5 + 1*2 and 5 is a twin prime; as a twin failure 7 still has p = 5
        self.spy(monkeypatch, [7])
        report = density_report(100)
        assert report.exceptions_twin == [2, 3, 7]
        assert report.exceptions_any_prime == [2, 3]
        assert report.representable_any_prime == report.total_primes - 2 == 23


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "twin", "--range", "5:100", "--workers", "0"],
    ["density", "--x", "100", "--workers", "0"],
    ["stats", "--range", "5:100", "--bucket", "10", "--workers", "0"],
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

    def _interrupted(self, tmp_path, cut_checkpoint):
        """A run stopped after 3 of its 9 shards, with no summary written."""
        paths = {k: str(tmp_path / k) for k in ("ck", "out", "rec", "ref-out", "ref-rec")}
        assert run_cli(self.BASE + ["--out", paths["ref-out"],
                                    "--emit-records", paths["ref-rec"]])[0] == 0
        assert run_cli(self.BASE + ["--emit-records", paths["rec"],
                                    "--checkpoint", paths["ck"]])[0] == 0
        cut_checkpoint(paths["ck"], 3, paths["rec"])
        return paths

    def _resume(self, paths):
        return run_cli(self.BASE + ["--out", paths["out"], "--emit-records", paths["rec"],
                                    "--checkpoint", paths["ck"]])

    def test_torn_last_checkpoint_line_is_dropped(self, tmp_path, cut_checkpoint):
        paths = self._interrupted(tmp_path, cut_checkpoint)
        with open(paths["ck"], "a") as fh:
            fh.write('SHARD {"records_bytes": 12')
        code, _, err = self._resume(paths)
        assert code == 0, err
        lines = pathlib.Path(paths["ck"]).read_text().splitlines()
        assert lines[-1].startswith("DONE ") and len(lines) == 1 + 9 + 1  # META, shards, DONE
        assert pathlib.Path(paths["out"]).read_bytes() == pathlib.Path(paths["ref-out"]).read_bytes()
        assert pathlib.Path(paths["rec"]).read_bytes() == pathlib.Path(paths["ref-rec"]).read_bytes()

    def test_short_records_file_is_exit_2(self, tmp_path, cut_checkpoint):
        paths = self._interrupted(tmp_path, cut_checkpoint)
        os.truncate(paths["rec"], 100)
        checkpoint = pathlib.Path(paths["ck"]).read_bytes()
        code, _, err = self._resume(paths)
        assert code == 2
        assert "records" in err
        assert os.path.getsize(paths["rec"]) == 100
        assert pathlib.Path(paths["ck"]).read_bytes() == checkpoint
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

    WRONG_TYPES = {  # a field of the first shard's summary and a value of the wrong type
        "str-count": ("checked", "7"),
        "bool-count": ("represented", True),
        "str-ratio": ("min_ratio", "0.5"),
        "float-q": ("max_nlog_q", 7.0),
        "float-failure": ("failures", [7.0]),
        "str-p": ("same_n_first", {"1": "3"}),
    }

    @pytest.mark.parametrize("edit", ["drop", "add", "object", "list", "no-records-bytes",
                                      "negative-records-bytes", *WRONG_TYPES])
    def test_shard_line_with_other_fields_is_exit_2(self, tmp_path, cut_checkpoint, edit):
        paths = self._interrupted(tmp_path, cut_checkpoint)
        lines = pathlib.Path(paths["ck"]).read_text().splitlines(keepends=True)
        kind, payload = lines[1].split(" ", 1)
        entry = json.loads(payload)
        if edit == "drop":
            del entry["summary"]["checked"]
        elif edit == "add":
            entry["summary"]["extra"] = 0
        elif edit == "no-records-bytes":
            del entry["records_bytes"]
        elif edit == "negative-records-bytes":
            entry["records_bytes"] = -1
        elif edit in self.WRONG_TYPES:
            key, value = self.WRONG_TYPES[edit]
            entry["summary"][key] = value
        else:  # valid JSON of another shape
            entry = {} if edit == "object" else []
        lines[1] = f"{kind} {json.dumps(entry, sort_keys=True)}\n"
        pathlib.Path(paths["ck"]).write_text("".join(lines))
        records = pathlib.Path(paths["rec"]).read_bytes()
        code, out, err = self._resume(paths)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: checkpoint {paths['ck']}: bad SHARD line 2")
        if edit in ("drop", "add"):
            assert "fields differ" in err
        if edit in self.WRONG_TYPES:
            assert f"field {self.WRONG_TYPES[edit][0]} is not" in err
        if edit == "negative-records-bytes":
            assert "records_bytes -1" in err
        assert pathlib.Path(paths["ck"]).read_text() == "".join(lines)
        assert pathlib.Path(paths["rec"]).read_bytes() == records
        assert not os.path.exists(paths["out"])

    @pytest.mark.parametrize("edit, message", [
        ("unknown-kind", "unexpected checkpoint line 2 ('NOTE')"),
        ("swapped", "checkpoint shard 11005 misaligned"),
        ("hi-moved", "checkpoint shard 11005 misaligned"),
    ], ids=["unknown-kind", "swapped", "hi-moved"])
    def test_checkpoint_lines_out_of_place_are_exit_2(self, tmp_path, cut_checkpoint, edit,
                                                      message):
        paths = self._interrupted(tmp_path, cut_checkpoint)
        lines = pathlib.Path(paths["ck"]).read_text().splitlines(keepends=True)
        if edit == "unknown-kind":
            lines.insert(1, "NOTE {}\n")
        elif edit == "swapped":  # the second shard's line before the first's
            lines[1], lines[2] = lines[2], lines[1]
        else:  # the second shard one q longer than the shard size puts its end
            kind, payload = lines[2].split(" ", 1)
            entry = json.loads(payload)
            entry["summary"]["hi"] += 1
            lines[2] = f"{kind} {json.dumps(entry, sort_keys=True)}\n"
        pathlib.Path(paths["ck"]).write_text("".join(lines))
        records = pathlib.Path(paths["rec"]).read_bytes()
        code, out, err = self._resume(paths)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert pathlib.Path(paths["ck"]).read_text() == "".join(lines)
        assert pathlib.Path(paths["rec"]).read_bytes() == records
        assert not os.path.exists(paths["out"])

    def test_checkpoint_with_more_shards_than_the_run_is_exit_2(self, tmp_path):
        cp, out = tmp_path / "ck", tmp_path / "out"
        base = ["verify", "--mode", "twin", "--range", "5:30000", "--shard-size", "8000",
                "--checkpoint", str(cp)]
        assert run_cli(base)[0] == 0
        lines = cp.read_text().splitlines(keepends=True)
        lines[-1] = lines[-2]  # the last shard again, in place of DONE
        cp.write_text("".join(lines))
        code, stdout, err = run_cli(base + ["--out", str(out)])
        assert (code, stdout) == (2, "")
        assert "more shards" in err
        assert cp.read_text() == "".join(lines)
        assert not out.exists()

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


def test_failures_give_the_same_bytes_for_every_worker_count_and_resume(
        tmp_path, table_without_5, cut_checkpoint):
    # with 5 read as composite, 7 and 11 fail: the run exits 1 and its
    # records hold the other 17,979 of the 17,981 prime q it checks
    cache = tmp_path / "cache"
    save_prime_table(table_without_5, str(cache))
    base = ["verify", "--mode", "twin", "--range", "5:200000", "--cache", str(cache),
            "--shard-size", "50000"]

    def files(name, workers):
        paths = [tmp_path / f"{name}.{kind}" for kind in ("out", "rec", "ck")]
        code, stdout, err = run_cli(base + ["--out", str(paths[0]), "--emit-records",
                                            str(paths[1]), "--checkpoint", str(paths[2]),
                                            "--workers", workers])
        assert (code, stdout) == (1, ""), err
        return paths

    one = files("one", "1")
    rows = parse_csv(one[0].read_text())
    assert (rows[0]["checked"], rows[0]["failure_list"]) == ("17981", "7;11")
    assert len(one[1].read_text().splitlines()) == 1 + 17_979
    two = files("two", "2")
    assert [p.read_bytes() for p in two] == [p.read_bytes() for p in one]
    # cut after the first shard, which holds both failures, and resumed
    cut_checkpoint(str(two[2]), 1, str(two[1]))
    two[0].unlink()
    assert files("two", "2") == two
    assert [p.read_bytes() for p in two] == [p.read_bytes() for p in one]


def test_parent_holds_a_bounded_number_of_digests(tmp_path, cut_checkpoint):
    # each shard, computed or read back from the checkpoint, is folded into
    # one running digest as it arrives: no list of shard digests grows
    def digests():
        return sum(isinstance(o, represent.ShardSummary) for o in gc.get_objects())

    def fold(qs, ps, ns):
        live.append(digests() - before)

    ck = tmp_path / "ck"
    args = cli.build_parser().parse_args([
        "verify", "--mode", "twin", "--range", "5:60004", "--shard-size", "1000",
        "--workers", "1", "--checkpoint", str(ck)])
    before, live = digests(), []
    total = cli._run_sharded_verify(args, represent.Mode.TWIN_MIN, 5, 60004, fold)
    assert (total.hi, total.checked) == (60004, 6055)  # pi(60004) - 2
    assert len(live) == 60 and max(live) <= 4
    del total
    cut_checkpoint(ck, 50)
    live = []  # resumed from the 50 shards
    total = cli._run_sharded_verify(args, represent.Mode.TWIN_MIN, 5, 60004, fold)
    assert (total.hi, total.checked) == (60004, 6055)
    assert len(live) == 10 and max(live) <= 4


def test_workers_default_is_usable_cpus():
    from twinrep.cli import build_parser

    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for argv in (["verify", "--mode", "twin"], ["stats", "--bucket", "10"]):
        assert build_parser().parse_args(argv + ["--range", "5:100"]).workers == expected
    assert build_parser().parse_args(["density", "--x", "100"]).workers == 1


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


@pytest.mark.parametrize("extra", [["--checkpoint", "F", "--emit-records", "F.rec"],
                                   ["--checkpoint", "F"], ["--checkpoint=F"]])
def test_stats_does_not_resume(tmp_path, capsys, extra):
    # stats takes no --checkpoint: a checkpoint keeps shard digests, not the
    # growth rows folded so far
    out = tmp_path / "out"
    argv = ["stats", "--range", "5:60000", "--bucket", "20000", "--shard-size", "9000",
            "--workers", "1", "--out", str(out)]
    argv += [a.replace("F", str(tmp_path / "F")) for a in extra]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["stats", "--range", "1:4", "--bucket", "1"], "error: no representations found in range"),
    (["stats", "--range", "5:100", "--bucket", "0"], "error: bucket must be positive, got 0"),
    (["variance", "--x", "40,80", "--emit-records", "F"],
     "error: --emit-records needs a single --x value"),
    (["variance", "--x", "4,a"], "x must be an integer or comma list, got '4,a'"),
], ids=["stats-none-found", "stats-bucket-0", "variance-records-of-two-x", "variance-x-not-int"])
def test_bad_input_is_exit_2_before_any_file(tmp_path, capsys, argv, message):
    argv = [a.replace("F", str(tmp_path / "F")) for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out")])
    stdout, err = capsys.readouterr()
    assert (code, stdout) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, message", [
    (1, "unsupported cache version 2"),  # the version, 1 in every cache written
    (5, "inconsistent header (limit vs bit count)"),  # the bit count, one too many
], ids=["version-2", "bit-count"])
def test_cache_with_a_bad_header_is_exit_2_before_any_file(tmp_path, table_1e5, field, message):
    cache, out = tmp_path / "cache", tmp_path / "out"
    save_prime_table(table_1e5, str(cache))
    raw = cache.read_bytes()
    header = sieve._CACHE_HEADER
    fields = list(header.unpack(raw[: header.size]))
    fields[field] += 1
    cache.write_bytes(header.pack(*fields) + raw[header.size :])
    code, stdout, err = run_cli(["verify", "--mode", "twin", "--range", "5:1000",
                                 "--cache", str(cache), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, extra", [
    (["sigma", "--qmax", "6", "--pmax", "11"], ["--workers", "1"]),
    (["singular", "--pmax", "10", "--cutoff", "200"], ["--workers", "1"]),
    (["variance", "--x", "40", "--cutoff", "200"], ["--workers", "1"]),
    (["mirsky", "--y", "100"], ["--workers", "1"]),
    (["sieve-cache", "--limit", "100", "--cache-out", "F"], ["--workers", "1"]),
    (["sieve-cache", "--limit", "100", "--cache-out", "F"], ["--segment-size", "16"]),
    (["stats", "--range", "5:3000", "--bucket", "1000"], ["--emit-records", "F.rec"]),
    (["stats", "--range", "2:3000", "--bucket", "1000"], ["--include-small"]),
])
def test_removed_flags_are_exit_2_before_any_file(tmp_path, capsys, argv, extra):
    # options no run of the subcommand reads: stats records and small q are
    # verify's, and a sieve-cache table has the same bits for every segment width
    argv = [a.replace("F", str(tmp_path / "F")) for a in argv + extra]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


_RECORD_DIGESTS = {  # SHA-256 of the records the per-row f-string / json.dumps writer wrote
    ("twin", "csv"): "5cb3d54a12fd55d6de78c70e42edda5d5752ab08b5080550ba7b5688012382dc",
    ("twin", "jsonl"): "9d5296d7294109d66cf79e304a95a33ac136ac62ff12301bbff021102dfe3ee7",
    ("prime", "csv"): "7ab83650ffc6a4fbb9b5912bd26bc76b29ea3b530df78220389ab6be830ded7a",
    ("prime", "jsonl"): "21f8b0e7b91ecb41e475a1c12fc1c1d73e7ba011e441029629c376cb42073e28",
    ("sun", "csv"): "d2f55599c0e877f7b54eafb6da84f4bb2cbaef65c4d0dd1b45b48d10d587174a",
    ("sun", "jsonl"): "ba315f8fcfc6fc52093b01964f23dcf73c664bcbb06dc21dd91fa04ca2f08a07",
}


_HEIGHT_RECORD_DIGESTS = {  # SHA-256 of the records the digit-by-digit formatter wrote
    "csv": "8586f3d91d90da5d8214784601b7d731519f247dab4d17bff5f6d2e3ef51bf44",
    "jsonl": "e9b03e32511bb8f920913fbee81a78ef8c78e3194f9646e1b3d5324821e4c7f3",
}


@pytest.mark.parametrize("fmt", sorted(_HEIGHT_RECORD_DIGESTS))
def test_records_at_height_bytes_pinned(tmp_path, fmt):
    # 8,668 rows with q above 2^32: q and p take two limbs of nine digits
    rec = tmp_path / "rec"
    code, _, err = run_cli(["verify", "--mode", "twin", "--range", "10000000000:10000200000",
                            "--format", fmt, "--emit-records", str(rec)])
    assert code == 0, err
    data = rec.read_bytes()
    assert data.count(b"\n") == 8668 + (fmt == "csv")
    assert hashlib.sha256(data).hexdigest() == _HEIGHT_RECORD_DIGESTS[fmt]


@pytest.mark.parametrize("mode, fmt", sorted(_RECORD_DIGESTS))
def test_verify_records_bytes_pinned(tmp_path, cut_checkpoint, mode, fmt):
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
    assert run_cli(resumable + ["--workers", "1"])[0] == 0
    cut_checkpoint(cp, 1, rec)
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
    "mirsky-1e7": ["mirsky", "--y", "10000000"],
    "sigma-1200": ["sigma", "--qmax", "1200", "--pmax", "200"],
    "stats": ["stats", "--range", "5:40000", "--bucket", "7000", "--workers", "1"],
    # buckets over many shards, most of which only continue the bucket before
    "stats-spanning": ["stats", "--range", "5:60000", "--bucket", "20000",
                       "--shard-size", "1000", "--workers", "2"],
    # 17,982 rows, more than one 2^14-row chunk of the column writer
    "stats-1": ["stats", "--range", "5:200000", "--bucket", "1", "--workers", "1"],
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
    # ten times the reports workload's sizes, as the per-value squarefree
    # trial division and the per-cell gcd of the Sigma rows printed them
    ("mirsky-1e7", "csv"): "d4d5d1c8f8459fc0bc058213479d9befcb0ac2dd714accce0da20a23b648d794",
    ("mirsky-1e7", "jsonl"): "871fd93bd4017830df346aa0f01753d210315465d3c288c32c9206fc6b860a72",
    ("sigma-1200", "csv"): "3bbd5806e2c26180807f7869f1d555d79028f740fb39b7828befddb4915a07cd",
    ("sigma-1200", "jsonl"): "40641d8d1e44f2f01d8d72bb62816e6c82d54f344d014a20d8f2604a8c6e9a58",
    ("stats", "csv"): "5293c2994ede085949b9770b4180d1c836179e867f3c62cf8a429c6e90314a08",
    ("stats", "jsonl"): "4c740774ed4462e3a7e487714994de65a30aa867d30a812ea49e5400a6bed4c6",
    # as the per-bucket growth rows and their per-row writer printed them
    ("stats-spanning", "csv"): "cc05a44544481ee568cd36198bfa389c6691e0c57b00e8b5f0cc674a463bd7d1",
    ("stats-spanning", "jsonl"): "a25fc5e8c46913beeb2136521245c5fc2e81230cfef486c7a14d1459596606fc",
    ("stats-1", "csv"): "c69c57d9fa7eb83f86d8c37d22fc157b8f274edf9cc1291b1d07a42ff8df7aaa",
    ("stats-1", "jsonl"): "8b2f6d7b2563fc185467cd81d18ef8332bf7d3daff8c1a146b69ac10f52377e5",
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


# the JSONL interval's ends, the exact range's end, and micro-units that cross
# a nine-digit limb (10^9) and 2^32
_EDGES = [0.0, 1.0, 1e-4, 1e-4 - 5e-7, 1e9, 1e9 - 5e-7, 2**52 / 1e6, 2**51 / 1e6,
          1000.0, 4294.967296]
_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e4),
    st.integers(0, 2**20).map(lambda k: k / 128),  # exact binary ties such as 0.0078125
    st.builds(lambda k, d: _ulps_from((k + 0.5) * 1e-6, d),  # around (k + 1/2) * 1e-6
              st.integers(0, 10**12), st.integers(-3, 3)),
    st.builds(_ulps_from, st.sampled_from(_EDGES), st.integers(-40, 40)),
    st.sampled_from([-0.0, -2.5, math.inf, math.nan]),
)
_INTS = st.one_of(st.integers(0, 2**62), st.integers(0, 10**7), st.integers(-10, -1),
                  # the ends of the nine-digit limbs and of int64
                  st.sampled_from([10**9 - 1, 10**9, 10**18 - 1, 10**18, 2**63 - 1]))


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
    return [pathlib.Path(path).read_bytes() for path in paths]


_TABLE_FILES: dict = {}

# a monkeypatched module reaches pool workers only when they are forked, and
# the pool forks them wherever fork exists, whatever the default start method
_FORKED_WORKERS = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                     reason="fork is not available here")


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

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "twin", "--range", "5:1000", "--workers", "1"],
        ["stats", "--range", "5:1000", "--bucket", "100", "--workers", "1"],
        ["density", "--x", "1000"],
        ["sigma", "--qmax", "5", "--pmax", "20"],
        ["singular", "--pmax", "20", "--cutoff", "1000"],
        ["variance", "--x", "40", "--cutoff", "500"],
        ["mirsky", "--y", "1000"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("cached", [False, True])
    def test_each_command_reads_the_budget_once(self, tmp_path, monkeypatch, argv, cached):
        # one estimate covers the command's table and the rest of its memory
        reads = []
        monkeypatch.setattr(cli, "_memory_budget", lambda: reads.append(1))  # None: no figure
        cache = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "20000", "--cache-out", cache])[0] == 0
        assert len(reads) == 1
        reads.clear()
        code, _, err = run_cli(argv + (["--cache", cache] if cached else []))
        assert (code, len(reads)) == (0, 1), err

    def test_density_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch):
        # its prime table to 10^6 would fit 2 MiB; its verify pass does not
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

    @pytest.mark.parametrize("argv, table_bytes", [
        # the table to 10^7 (5 MB) fits; the census over its 664,579 primes does not
        (["mirsky", "--y", "10000000"], 5_000_000),
        # the table to 10^6 (0.5 MB) fits; the mu and phi tables to 10^6 do not
        (["singular", "--pmax", "20", "--cutoff", "1000000"], 500_000),
        # the table to 10^6 (0.5 MB) fits; the grid's lists and cells over its
        # 78,498 primes (counted as 256 bytes each of at most 144,765) do not
        (["sigma", "--qmax", "2", "--pmax", "1000000"], 500_000),
    ])
    def test_report_tables_over_budget_is_exit_3_before_any_file(self, tmp_path, monkeypatch,
                                                                 argv, table_bytes):
        budget = table_bytes + 2 * 2**20
        monkeypatch.setattr(cli, "_memory_budget", lambda: budget)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(argv + ["--out", str(out)])
        assert (code, stdout) == (3, "")
        assert err.startswith("resource failure:")
        assert not out.exists()

    def test_range_above_the_height_limit_is_exit_2_before_the_budget(self, tmp_path, monkeypatch):
        top = represent.MAX_Q
        asked = []
        monkeypatch.setattr(cli, "_memory_budget", lambda: asked.append(1) or 1024)
        out = tmp_path / "out.csv"
        for argv in (["verify", "--mode", "sun", "--range", f"{top - 1}:{top + 1}"],
                     ["stats", "--bucket", "10", "--range", f"{top - 1}:{top + 1}"],
                     ["density", "--x", str(top + 1)]):
            code, stdout, err = run_cli(argv + ["--out", str(out)])
            assert (code, stdout, asked) == (2, "", []), argv
            assert err.startswith("error:") and "2^61" in err
            assert not out.exists()
        # q = 2^61 itself passes the height check and reaches the memory check
        for argv in (["verify", "--mode", "sun", "--range", f"{top - 1}:{top}"],
                     ["density", "--x", str(top)]):
            asked.clear()
            code, _, err = run_cli(argv + ["--out", str(out)])
            assert (code, asked) == (3, [1]), argv
            assert not out.exists()

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
        # the measured peaks at 1e11 and 1e12
        assert cli._verify_memory(args, twin, 10**11, 100_001_000_000, False) > 326.7 * 2**20
        assert cli._verify_memory(args, twin, 10**12, 1_000_000_200_000, False) > 1046 * 2**20
        args.workers = 2
        assert cli._verify_memory(args, twin, 5, 10**7, False) == 2 * small
        # records or a fold: the parent holds the block it is reading
        assert cli._verify_memory(args, twin, 5, 10**7, True) > 2 * small

    @pytest.mark.parametrize("mode", [represent.Mode.TWIN_MIN, represent.Mode.SUN_ODD])
    def test_a_shard_peaks_within_its_bytes_a_q(self, mode):
        # numpy's allocations of one shard, its p-bitmap grown first: one
        # block's per-q arrays, lanes and temporaries, and in twin mode the
        # shard's domain, for a default shard and one four times as long
        lo = 10**7
        for size in (cli.DEFAULT_SHARD_SIZE, 4 * cli.DEFAULT_SHARD_SIZE):
            hi = lo + size - 1
            cli._run_shard(mode, None, False, size, hi, lo)
            tracemalloc.start()
            try:
                summary = cli._run_shard(mode, None, False, size, hi, lo)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block = min(summary.checked, represent._BLOCK_SIZE)
            domain = size // 2 + 8 * cli._q_bound(mode, size)  # the q bits, then the primes
            if mode == represent.Mode.SUN_ODD:
                domain = 0
            assert peak <= cli._BLOCK_BYTES_PER_Q * block + domain, size

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_records_in_small_shards_peak_within_the_estimate(self, tmp_path, fmt):
        # each shard of 2^15 numbers holds 16,384 q, one whole chunk of records,
        # so the formatted chunk, not the shard's scan, sets the peak
        argv = ["verify", "--mode", "sun", "--range", "5:300000", "--workers", "1",
                "--shard-size", "32768", "--format", fmt,
                "--emit-records", str(tmp_path / "rec"), "--out", str(tmp_path / "out")]
        args = cli.build_parser().parse_args(argv)
        estimate = cli._verify_memory(args, represent.Mode.SUN_ODD, 5, 300_000, True)
        tracemalloc.start()
        try:
            code = run_cli(argv)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= estimate

    @pytest.mark.parametrize("command", [
        ["verify", "--mode", "sun", "--emit-records"],
        ["verify", "--mode", "sun", "--format", "jsonl", "--emit-records"],
        ["stats", "--bucket", "1000", "--out"],
    ])
    def test_parent_of_a_pool_peaks_within_its_result_bytes(self, tmp_path, command):
        # the parent's allocations while two workers send it their shards one
        # block at a time, with one formatted chunk where it writes records
        argv = [*command, str(tmp_path / "file"), "--range", "5:2000000", "--workers", "2"]
        args = cli.build_parser().parse_args(argv)
        mode = represent.Mode.SUN_ODD if command[0] == "verify" else represent.Mode.TWIN_MIN
        block = min(cli._q_bound(mode, cli.DEFAULT_SHARD_SIZE), represent._BLOCK_SIZE)
        chunk = (cli._RECORD_ROW_BYTES[args.format] * cli._RECORD_CHUNK_ROWS
                 if args.emit_records else 0)
        tracemalloc.start()
        try:
            code = run_cli(argv)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= cli._RESULT_BYTES_PER_Q * block + chunk

    def test_cache_adds_its_table_once_to_the_same_estimate(self, tmp_path):
        cache = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "200000", "--cache-out", cache])[0] == 0
        args = cli.build_parser().parse_args(["verify", "--mode", "twin", "--range", "5:200000",
                                              "--workers", "2", "--cache", cache])
        twin = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 200_000, False)
        assert cli._verify_memory(args, represent.Mode.ANY_PRIME, 5, 200_000, False) == twin
        args.cache = None
        sieved = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 200_000, False)
        assert twin == sieved + cli._cache_load_bytes(cache)

    @pytest.mark.parametrize("limit", [1000, 2_000_000])
    def test_cache_load_peaks_within_its_bytes(self, tmp_path, limit):
        cache = str(tmp_path / "primes.bin")
        save_prime_table(build_prime_table(limit), cache)
        load_prime_table(cache)  # numpy's first-call set-up is not the load's
        tracemalloc.start()
        try:
            load_prime_table(cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._cache_load_bytes(cache)

    def test_estimate_counts_only_the_processes_and_lanes_the_run_uses(self):
        args = cli.build_parser().parse_args(["verify", "--mode", "twin", "--range", "5:1000",
                                              "--workers", "64"])
        one = cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 1000, False)
        args.workers = 1
        assert cli._verify_memory(args, represent.Mode.TWIN_MIN, 5, 1000, False) == one
        # one shard of 168 primes, its p-bitmap and the freed heap malloc may keep
        assert one < 4 * 2**20 + cli._MALLOC_TRIM
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
    def broken(*args):
        raise ValueError("scan kernel failed")

    def hang(signum, frame):
        pytest.fail("verify did not return")

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

    def slow(*args):
        time.sleep(0.2)
        return scan(*args)

    def interrupt(self, arrays):
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGINT)
        raise KeyboardInterrupt

    def hang(signum, frame):
        pytest.fail("verify did not return")

    monkeypatch.setattr(represent, "_scan_block", slow)  # forked workers inherit it
    monkeypatch.setattr(cli._Sink, "columns", interrupt)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                                  "--shard-size", "5000", "--workers", "2",
                                  "--emit-records", str(tmp_path / "rec")])
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out, err) == (130, "", "interrupted\n")
    assert elapsed < 30
    assert not multiprocessing.active_children()


@_FORKED_WORKERS
def test_killed_worker_exits_3_promptly(monkeypatch):
    # a worker the kernel kills mid-shard (out of memory, say) posts no
    # result: the run must fail rather than wait for that result forever
    scan = represent._scan_block

    def killed(qs, *args):
        if qs[0] > 200_000:  # pool workers alone scan, so this kills one of them
            os.kill(os.getpid(), signal.SIGKILL)
        return scan(qs, *args)

    def hang(signum, frame):
        pytest.fail("verify did not return")

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


@_FORKED_WORKERS
def test_torn_result_exits_3_promptly(tmp_path, monkeypatch):
    # a worker that ends halfway through writing its result, after the length
    # header and half the body: the parent must not wait for the rest
    parent, send = os.getpid(), multiprocessing.connection.Connection._send_bytes

    def torn(self, buf):
        if os.getpid() == parent:
            return send(self, buf)
        self._send(struct.pack("!i", len(buf)) + bytes(buf[: len(buf) // 2]))
        os._exit(9)

    def hang(signum, frame):
        pytest.fail("verify did not return")

    monkeypatch.setattr(multiprocessing.connection.Connection, "_send_bytes", torn)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                                  "--shard-size", "50000", "--workers", "2",
                                  "--emit-records", str(tmp_path / "rec")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (3, "")
    assert err.startswith("resource failure:") and "worker" in err
    assert not multiprocessing.active_children()


@_FORKED_WORKERS
def test_refused_fork_is_a_resource_failure(monkeypatch):
    # the kernel refuses the second fork (out of pids or memory): the run
    # ends the worker already started and reports a resource failure
    fork = multiprocessing.get_context("fork").Process
    start, started = fork.start, []

    def refused_after_one(self):
        if started:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        started.append(self)
        start(self)

    monkeypatch.setattr(fork, "start", refused_after_one)
    code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                              "--shard-size", "50000", "--workers", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("resource failure:") and "Resource temporarily" in err
    assert len(started) == 1 and started[0].exitcode is not None
    assert not multiprocessing.active_children()


@_FORKED_WORKERS
def test_workers_are_forked_whatever_the_default_start_method(monkeypatch):
    # a spawned worker would import represent afresh and miss the patch
    def broken(*args):
        raise ValueError("scan kernel failed")

    monkeypatch.setattr(represent, "_scan_block", broken)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:400000",
                                  "--shard-size", "50000", "--workers", "2"])
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert (code, out) == (2, "")
    assert "scan kernel failed" in err
    assert not multiprocessing.active_children()


def test_without_fork_the_shards_run_in_the_parent(tmp_path, monkeypatch):
    expected = _verify_files(str(tmp_path), "twin", "csv", "1")
    run_shard, pids = cli._run_shard, []

    def spied(*args):
        pids.append(os.getpid())
        return run_shard(*args)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(cli, "_run_shard", spied)
    assert _verify_files(str(tmp_path), "twin", "csv", "2") == expected
    assert pids == [os.getpid()] * 5  # 5:3000 in shards of 700


@_FORKED_WORKERS
@pytest.mark.parametrize("shard_size", ["16384", "65536"])
def test_shards_of_many_blocks_give_the_same_bytes(tmp_path, monkeypatch, cut_checkpoint,
                                                   shard_size):
    # with blocks of 2^10 q every shard spans several blocks (twin shards of
    # 2^14 numbers near 2e5 hold about 1,300 q), each sent to the parent of a
    # pool as a message of its own, and stats buckets of 7 straddle them;
    # forked workers inherit the patch
    out, rec, ck = (str(tmp_path / name) for name in ("out", "rec", "ck"))

    def run(argv, paths):
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)
        code, _, err = run_cli(argv)
        assert code == 0, err
        return [pathlib.Path(path).read_bytes() for path in paths]

    shards = ["--range", "5:200000", "--shard-size", shard_size, "--out", out]
    runs = [(["verify", "--mode", mode, "--format", fmt, *shards, "--emit-records", rec,
              "--checkpoint", ck], [out, rec, ck])
            for mode in ("twin", "sun") for fmt in ("csv", "jsonl")]
    runs.append((["stats", "--bucket", "7", *shards], [out]))
    expected = [run([*argv, "--workers", "1"], paths) for argv, paths in runs]
    monkeypatch.setattr(represent, "_BLOCK_SIZE", 1 << 10)
    for (argv, paths), want in zip(runs, expected):
        for workers in ("1", "2"):
            assert run([*argv, "--workers", workers], paths) == want, (argv, workers)
        if argv[0] == "verify":  # cut after two shards and resumed
            cut_checkpoint(ck, 2, rec)
            os.unlink(out)
            assert run_cli([*argv, "--workers", "2"])[0] == 0
            assert [pathlib.Path(path).read_bytes() for path in paths] == want, argv


@pytest.mark.parametrize("workers", ["1", "2"])
def test_records_run_peak_does_not_grow_with_the_shard(tmp_path, workers):
    # a process holds one block of per-q arrays, so shards of 2^18 and 2^20
    # numbers peak alike, in the one process of a serial run and in the
    # parent of a pool (where whole shards made it grow two- to threefold)
    argv = ["verify", "--mode", "sun", "--range", "5:1100000", "--workers", workers,
            "--emit-records", str(tmp_path / "rec"), "--out", str(tmp_path / "out")]
    assert run_cli(argv)[0] == 0  # the p-bitmap is grown first
    peaks = []
    for shard_size in ("262144", "1048576"):
        tracemalloc.start()
        try:
            code = run_cli([*argv, "--shard-size", shard_size])[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("workers", ["1", "2"])
def test_shard_plan_holds_nothing_per_shard(tmp_path, monkeypatch, workers):
    # the parent's set-up up to its first shard, over 16 and 2,000,000 shards:
    # the shards left are a range of starts, where a list of (lo, hi) tuples
    # traced 273 MB at 2,000,000 shards
    def first_shard(*args):
        raise ValueError("stopped at the first shard")

    monkeypatch.setattr(cli, "_run_shard", first_shard)
    peaks = {}
    for shard_size in ("125000", "1"):
        argv = ["verify", "--mode", "twin", "--range", "5:2000004", "--shard-size", shard_size,
                "--workers", workers, "--out", str(tmp_path / "out")]
        run_cli(argv)  # the modules the run imports are loaded first
        tracemalloc.start()
        try:
            code, _, err = run_cli(argv)
            peaks[shard_size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "stopped at the first shard" in err
    assert peaks["1"] < 2 * 2**20, peaks
    assert abs(peaks["1"] - peaks["125000"]) < 2**19, peaks


@pytest.mark.parametrize("cache", [False, True])
def test_shard_sends_blocks_only_when_asked(tmp_path, monkeypatch, cache):
    table = None
    if cache:
        path = str(tmp_path / "primes.bin")
        assert run_cli(["sieve-cache", "--limit", "20000", "--cache-out", path])[0] == 0
        table = load_prime_table(path)
    shard = (represent.Mode.TWIN_MIN, table, False, cli.DEFAULT_SHARD_SIZE, 20000, 5)
    summary = cli._run_shard(*shard)
    assert summary.checked == 2260  # pi(20000) - 2
    monkeypatch.setattr(represent, "_BLOCK_SIZE", 1000)
    blocks = []
    assert cli._run_shard(*shard, lambda *block: blocks.append(block)) == summary
    assert [len(qs) for qs, _, _ in blocks] == [1000, 1000, 260]
    report = represent.verify_range(5, 20000, represent.Mode.TWIN_MIN, table)
    for whole, part in zip((report.qs, report.ps, report.ns), zip(*blocks)):
        assert np.array_equal(np.concatenate(part), whole)


@pytest.mark.parametrize("flag", ["--out", "--checkpoint", "--emit-records", "--cache"])
def test_path_that_is_a_directory_is_exit_2(tmp_path, flag):
    code, out, err = run_cli(["verify", "--mode", "twin", "--range", "5:1000",
                              "--workers", "1", flag, str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err
    assert list(tmp_path.iterdir()) == []


_VERIFY_20000 = ["verify", "--mode", "twin", "--range", "5:20000", "--workers", "1"]


def _same_file_cases():
    """verify and sieve-cache runs whose path flags F and G name one file (G
    through a symlinked directory where spelled "alias"), then '-' where a
    file is needed; an existing cache is always there to be named."""
    sieve = ["sieve-cache", "--limit", "1000"]
    for first, second in [("--out", "--emit-records"), ("--out", "--checkpoint"),
                          ("--emit-records", "--checkpoint"), ("--cache", "--out"),
                          ("--cache", "--emit-records"), ("--cache", "--checkpoint"),
                          ("--cache-out", "--out")]:
        argv = [*(sieve if first == "--cache-out" else _VERIFY_20000), first, "F", second, "G"]
        spellings = ("existing", "alias") if first == "--cache" else ("new", "existing", "alias")
        for spelling in spellings:
            yield pytest.param(argv, spelling, id=f"{first[2:]}+{second[2:]}-{spelling}")
    for argv in [[*_VERIFY_20000, "--checkpoint"], [*_VERIFY_20000, "--cache"],
                 [*sieve, "--cache-out"]]:
        yield pytest.param([*argv, "-"], "new", id=f"{argv[-1][2:]}-stdout")


@pytest.mark.parametrize("argv, spelling", _same_file_cases())
def test_path_flags_naming_one_file_are_exit_2(tmp_path, monkeypatch, argv, spelling):
    monkeypatch.chdir(tmp_path)  # where a file named '-' would appear
    cache = tmp_path / "primes.bin"
    assert run_cli(["sieve-cache", "--limit", "20000", "--cache-out", str(cache)])[0] == 0
    (tmp_path / "link").symlink_to(tmp_path)
    shared = cache if "--cache" in argv else tmp_path / "f"
    if spelling != "new" and not shared.exists():
        shared.write_bytes(b"kept\n")
    alias = tmp_path / "link" / shared.name if spelling == "alias" else shared
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [{"F": str(shared), "G": str(alias)}.get(a, a) for a in argv]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, ""), err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_devices_and_stdout_may_be_named_twice(tmp_path):
    code, out, err = run_cli([*_VERIFY_20000, "--out", os.devnull, "--emit-records", os.devnull])
    assert (code, out) == (0, ""), err
    code, out, _ = run_cli([*_VERIFY_20000, "--out", "-", "--emit-records", "-"])
    assert code == 0 and out.startswith("q,p,n,") and "\nmode," in out


@_FORKED_WORKERS
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("change", ["removed", "rewritten"])
def test_a_cached_run_survives_its_cache_file_changing(tmp_path, monkeypatch, change, workers):
    # the run's one table is loaded in the parent, and no shard reads the file again
    cache, log = str(tmp_path / "primes.bin"), tmp_path / "loads"
    sieve = ["sieve-cache", "--limit", "40000", "--cache-out", cache, "--out", os.devnull]
    assert run_cli(sieve)[0] == 0
    paths = [str(tmp_path / name) for name in ("out", "rec", "ck")]
    argv = ["verify", "--mode", "sun", "--range", "5:40000", "--shard-size", "7000",
            "--workers", workers, "--cache", cache, "--out", paths[0],
            "--emit-records", paths[1], "--checkpoint", paths[2]]
    assert run_cli(argv)[0] == 0
    expected = [pathlib.Path(path).read_bytes() for path in paths]
    for path in paths:
        os.unlink(path)
    load = cli.load_prime_table

    def spied(path):
        with open(log, "a", encoding="ascii") as fh:  # a worker's call shows here too
            fh.write(f"{os.getpid()}\n")
        table = load(path)
        if change == "removed":
            os.unlink(path)
        else:
            assert main(sieve) == 0
        return table

    monkeypatch.setattr(cli, "load_prime_table", spied)
    code, _, err = run_cli(argv)
    assert code == 0, err
    assert [pathlib.Path(path).read_bytes() for path in paths] == expected
    assert log.read_text().split() == [str(os.getpid())]


def test_full_disk_is_exit_3(monkeypatch):
    def full(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli._Sink, "_write", full)
    code, out, err = run_cli(["mirsky", "--y", "100"])
    assert (code, out) == (3, "")
    assert err.startswith("resource failure: ") and os.strerror(errno.ENOSPC) in err


def test_sink_closes_its_file_when_the_header_write_fails(tmp_path, monkeypatch):
    def full(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli._Sink, "_write", full)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, _ = run_cli(["mirsky", "--y", "100", "--out", str(tmp_path / "out.csv")])
        gc.collect()
    assert (code, out) == (3, "")
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_interrupt_between_shards_resumes_to_identical_bytes(tmp_path, monkeypatch, workers):
    # Ctrl-C after the second shard's records are synced but before its
    # SHARD line: the rerun computes that shard again and cuts its records
    paths = [str(tmp_path / name) for name in ("out", "rec", "ck")]
    argv = ["verify", "--mode", "twin", "--range", "5:3000", "--shard-size", "700",
            "--workers", workers, "--out", paths[0], "--emit-records", paths[1],
            "--checkpoint", paths[2]]
    assert run_cli(argv)[0] == 0
    uninterrupted = [pathlib.Path(path).read_bytes() for path in paths]
    for path in paths:
        os.unlink(path)

    append, shards = cli._Checkpoint.append, []

    def interrupted(self, kind, payload):
        if kind == "SHARD":
            if shards:
                raise KeyboardInterrupt
            shards.append(json.loads(payload)["records_bytes"])
        append(self, kind, payload)
    with monkeypatch.context() as patch:
        patch.setattr(cli._Checkpoint, "append", interrupted)
        code, _, err = run_cli(argv)
    assert (code, err) == (130, f"interrupted: rerun the same command to resume from {paths[2]}\n")
    assert [line.split()[0] for line in pathlib.Path(paths[2]).read_text().splitlines()] == ["META", "SHARD"]
    assert os.path.getsize(paths[1]) > shards[0]  # the second shard's records
    assert not os.path.exists(paths[0])
    code, _, err = run_cli(argv)
    assert code == 0, err
    assert [pathlib.Path(path).read_bytes() for path in paths] == uninterrupted


def test_readme_names_every_flag_and_only_those():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", readme))
    (subcommands,) = [a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    defined = {flag for sub in subcommands.choices.values() for action in sub._actions
               for flag in action.option_strings if flag != "--help" and flag.startswith("--")}
    assert named == defined


def test_readme_command_lines_parse():
    # the union over subcommands in the test above cannot catch an example
    # that gives a flag to a subcommand without it
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("twinrep ")]
    assert len(lines) >= 10
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
