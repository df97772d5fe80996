"""The CLI as a process: ``python -m twinrep.cli`` ends without the
interpreter's teardown, so its stdout bytes, files, stderr and exit code
are checked here against an in-process main(), with stdout buffered and
unbuffered, and main() is checked to close every file it opens."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from twinrep import cli
from twinrep.cli import main

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

RECORDS = ["verify", "--mode", "sun", "--range", "5:400001", "--workers", "1",
           "--emit-records", "-"]

REPORTS = {
    "sigma": ["sigma", "--qmax", "30", "--pmax", "20"],
    "singular": ["singular", "--pmax", "20", "--cutoff", "1000"],
    "variance": ["variance", "--x", "40,80", "--cutoff", "500"],
    "density": ["density", "--x", "10000"],
    "mirsky": ["mirsky", "--y", "1000"],
    "sieve-cache": ["sieve-cache", "--limit", "100000", "--cache-out", "table.bin"],
}

BUFFERINGS = ("buffered", "unbuffered")


@pytest.fixture
def spawn():
    """spawn(argv, buffering, cwd=None, shell_prefix=()) starts python -m
    twinrep.cli with PYTHONUNBUFFERED unset or set; every child is ended,
    reaped and its pipes closed when the test ends."""
    children = []

    def start(argv, buffering, cwd=None, shell_prefix=()):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen([*shell_prefix, sys.executable, "-m", "twinrep.cli", *argv],
                                 cwd=cwd, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        children.append(child)
        return child
    yield start
    for child in children:
        with child:  # closes the pipes and waits
            child.kill()  # one a failed test left running; a no-op once it has ended


def finish(child):
    out, err = child.communicate(timeout=120)
    return child.returncode, out, err.decode()


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


def files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


# each test below starts its children first, so they run beside one another
# and beside the in-process reference


def test_records_to_stdout_match_in_process(spawn):
    children = {buffering: spawn(RECORDS, buffering) for buffering in BUFFERINGS}
    want = in_process(RECORDS)
    assert want[0] == 0 and len(want[1]) > 2**20
    for buffering, child in children.items():
        assert finish(child) == want, buffering


@pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS)
def test_report_bytes_match_in_process(tmp_path, monkeypatch, spawn, argv):
    # each run in a directory of its own: sieve-cache's row names its relative path
    runs = {"stdout": argv, "out": argv + ["--out", "report"]}
    children = {}
    for name, run_argv in runs.items():
        for buffering in BUFFERINGS:
            (tmp_path / f"{name}-{buffering}").mkdir()
            children[name, buffering] = spawn(run_argv, buffering,
                                              cwd=tmp_path / f"{name}-{buffering}")
    for name, run_argv in runs.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        want = (*in_process(run_argv), files(tmp_path / name))
        assert want[0] == 0
        for buffering in BUFFERINGS:
            got = (*finish(children[name, buffering]), files(tmp_path / f"{name}-{buffering}"))
            assert got == want, (name, buffering)


@pytest.mark.parametrize("code, argv", [
    (1, ["verify", "--mode", "twin", "--range", "2:4", "--include-small"]),
    (2, ["verify", "--mode", "twin", "--range", "50:10"]),
    (2, ["verify", "--mode", "twin", "--range", "50"]),  # argparse's SystemExit
    (3, ["verify", "--mode", "twin", "--range", "1000000000000000:2000000000000000",
         "--workers", "1"]),
])
def test_exit_codes_come_through_the_process(spawn, code, argv):
    if code == 3 and cli._memory_budget() is None:
        pytest.skip("no memory limit or MemAvailable to refuse the range with")
    children = {buffering: spawn(argv, buffering) for buffering in BUFFERINGS}

    def stable(result):  # the free memory exit 3 reports moves between reads
        code, out, err = result
        return code, out, re.sub(r"only \d+ MiB", "only N MiB", err)
    want = stable(in_process(argv))
    assert want[0] == code
    for buffering, child in children.items():
        assert stable(finish(child)) == want, buffering


def test_closed_reader_reports_the_broken_pipe(spawn):
    # a buffered stdout still holds bytes at exit, so the interpreter's
    # teardown fails to flush them too, and exits 120
    children = {buffering: spawn(RECORDS, buffering) for buffering in BUFFERINGS}
    for child in children.values():
        child.stdout.close()
    for buffering, child in children.items():
        code, err = child.wait(timeout=120), child.stderr.read().decode()
        if buffering == "unbuffered":
            assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")
        else:
            lines = err.splitlines()
            assert (code, lines[0], lines[-1]) == (
                120, "error: [Errno 32] Broken pipe", "BrokenPipeError: [Errno 32] Broken pipe")
            assert lines[1].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


def test_closed_stdout_descriptor_is_no_error(tmp_path, monkeypatch, spawn):
    # a process started with fd 1 closed has sys.stdout None
    argv = REPORTS["mirsky"] + ["--out", "report"]
    children = {}
    for buffering in BUFFERINGS:
        (tmp_path / buffering).mkdir()
        children[buffering] = spawn(argv, buffering, cwd=tmp_path / buffering,
                                    shell_prefix=["sh", "-c", 'exec "$0" "$@" >&-'])
    (tmp_path / "ref").mkdir()
    monkeypatch.chdir(tmp_path / "ref")
    want = in_process(argv)
    assert want == (0, b"", "")
    for buffering, child in children.items():
        assert finish(child) == want, buffering
        assert files(tmp_path / buffering) == files(tmp_path / "ref"), buffering


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_main_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # run() ends the process with os._exit, so nothing may rely on the
    # teardown to close or flush a file: every subcommand closes its own
    monkeypatch.chdir(tmp_path)
    shards = ["--shard-size", "8000", "--workers", "2"]
    runs = [
        REPORTS["sieve-cache"] + ["--out", "cache.csv"],
        ["verify", "--mode", "twin", "--range", "5:30000", *shards, "--out", "v.csv",
         "--emit-records", "v.rec", "--checkpoint", "v.ck"],
        ["verify", "--mode", "twin", "--range", "5:30000", *shards, "--out", "w.csv",
         "--emit-records", "v.rec", "--checkpoint", "v.ck"],  # resumed from DONE
        ["verify", "--mode", "sun", "--range", "5:30001", *shards, "--cache", "table.bin",
         "--format", "jsonl", "--emit-records", "-"],
        ["stats", "--range", "5:30000", "--bucket", "10000", *shards, "--out", "s.csv"],
        REPORTS["sigma"] + ["--out", "sigma.csv"],
        REPORTS["singular"] + ["--out", "singular.csv"],
        ["variance", "--x", "40", "--cutoff", "500", "--emit-records", "terms", "--out", "var"],
        REPORTS["density"] + ["--workers", "2", "--cache", "table.bin", "--out", "d.csv"],
        REPORTS["mirsky"] + ["--format", "jsonl", "--out", "m.jsonl"],
    ]
    for argv in runs:
        before = sorted(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)  # a file closed only when freed
            code, _, err = in_process(argv)
        assert code == 0, (argv, err)
        assert sorted(os.listdir("/proc/self/fd")) == before, argv
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == [], argv
