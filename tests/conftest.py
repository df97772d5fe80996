import contextlib
import glob
import json
import multiprocessing
import os
import time

import pytest

from twinrep import represent
from twinrep.sieve import build_prime_table, twin_segment


@pytest.fixture(scope="session")
def table_1e5():
    return build_prime_table(100_000)


@pytest.fixture(scope="session")
def table_2e5():
    return build_prime_table(200_000)


@pytest.fixture(scope="session")
def table_1e6():
    return build_prime_table(1_000_001)


@pytest.fixture(scope="session")
def twins_1e6(table_1e6):
    """Twin bits of every odd p <= 999_999, indexed like table_1e6.odd_bits."""
    return twin_segment(0, table_1e6.limit - 2, table_1e6.segment)


@contextlib.contextmanager
def _pieces(width):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(represent, "_PIECE", width)
        represent._pbits.cache_clear()
        try:
            yield
        finally:
            represent._pbits.cache_clear()


@pytest.fixture(scope="session")
def pieces():
    """pieces(width) is a context in which fresh p-bitmaps are sieved in
    pieces of width odd numbers, so a scan grows them many times; forked
    workers inherit it."""
    return _pieces


def _cut_checkpoint(checkpoint, shards, records=None):
    with open(checkpoint, "rb") as fh:
        lines = fh.readlines()[: 1 + shards]
    assert len(lines) == 1 + shards and all(line.startswith(b"SHARD ") for line in lines[1:])
    with open(checkpoint, "wb") as fh:
        fh.writelines(lines)
    if records is not None:
        os.truncate(records, json.loads(lines[-1].split(b" ", 1)[1])["records_bytes"])


@pytest.fixture(scope="session")
def cut_checkpoint():
    """cut_checkpoint(checkpoint, k, records=None) leaves a finished run's
    checkpoint as a run stopped after k shards does: its META line and first
    k SHARD lines.  With records, that file is cut to the k-th shard's
    records_bytes; without, it stays longer, as after a crash between a
    shard's records sync and its SHARD line."""
    return _cut_checkpoint


def _children() -> set[int]:
    """Pids of this process's children, from each thread's /proc children
    file where the kernel has one, else multiprocessing's children."""
    files = glob.glob("/proc/self/task/*/children")
    if not files:
        return {p.pid for p in multiprocessing.active_children()}
    pids = set()
    for path in files:
        with contextlib.suppress(OSError), open(path, encoding="ascii") as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Fail a test whose child processes, of any kind, are still there 0.5 s
    after it ends, naming each by pid and command line; a child that was
    there before the test is an earlier test's."""
    earlier = _children()
    yield
    deadline = time.monotonic() + 0.5
    while True:
        multiprocessing.active_children()  # reaps the workers that ended
        alive = _children() - earlier
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    assert not alive, "processes outlived the test: " + "; ".join(
        f"{pid} {_cmdline(pid)!r}" for pid in sorted(alive))


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {verdict}", flush=True)
