"""perfbench/tracer.py wraps library names by hand and reads verify_range's
report fields in its hooks; a tiny traced run of each subcommand it times
keeps a rename from surfacing only in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from twinrep.cli import main

ROOT = Path(__file__).resolve().parent.parent
SHARD_SPANS = {"cli._run_shard", "represent.absorb_block"}

RUNS = {  # argv, with CACHE for a prime-table cache and TMP/ for a scratch path
    "twin-2-workers": (["verify", "--mode", "twin", "--range", "5:40000",
                        "--shard-size", "9000", "--workers", "2"], SHARD_SPANS),
    "sun-records": (["verify", "--mode", "sun", "--range", "5:3000", "--shard-size", "1000",
                     "--workers", "1", "--cache", "CACHE", "--checkpoint", "TMP/ck",
                     "--emit-records", "TMP/rec"], SHARD_SPANS),
    "variance": (["variance", "--x", "40", "--cutoff", "200"],
                 {"asymptotic.von_mangoldt_table", "sieve.primes"}),
    "singular": (["singular", "--pmax", "10", "--cutoff", "200"], {"sieve.mu_phi_tables"}),
    "sigma": (["sigma", "--qmax", "6", "--pmax", "11"], {"sieve.primes"}),
    "density": (["density", "--x", "3000"], SHARD_SPANS),
    "mirsky": (["mirsky", "--y", "3000"], {"sieve.primes"}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_run_exits_0_with_its_spans(tmp_path, name):
    argv, spans = RUNS[name]
    cache = tmp_path / "primes.bin"
    assert main(["sieve-cache", "--limit", "3000", "--cache-out", str(cache),
                 "--out", str(tmp_path / "cache.csv")]) == 0
    argv = [str(cache) if a == "CACHE" else a.replace("TMP/", f"{tmp_path}/") for a in argv]
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", *argv,
         "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traces = [json.loads(trace.read_text())]
    traces += [json.loads(p.read_text()) for p in tmp_path.glob("trace.json.worker-*")
               if p.suffix != ".tmp"]
    assert traces[0]["exit_code"] == 0
    assert spans <= {key for t in traces for key in t["spans"]}
    if spans == SHARD_SPANS:  # the verify_range hook read the report's fields
        assert sum(t["counts"].get("represent.q_checked", 0) for t in traces) > 0
