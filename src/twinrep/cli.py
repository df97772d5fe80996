"""Command-line front end.

Subcommands map one-to-one onto the library's bulk operations:

    verify       representability of a q-range (twin | prime | sun)
    sigma        exponential-sum grid: brute force next to closed form
    singular     truncated singular-series values with tail diagnostics
    variance     averaged squared residual at one or more x
    density      representability census over primes up to x
    stats        bucketed growth statistics of the minimal twin map
    mirsky       squarefree 4p-1 census (s(y), pi(y))
    sieve-cache  build a prime table and write its binary cache

Exit codes are a contract: 0 success, 1 a mathematical failure was
found, 2 invalid input or insufficient coverage, 3 resource
exhaustion.  Output is CSV (default) or JSONL with identical values;
floats carry six decimals.  verify runs are sharded over the range,
optionally across worker processes, and fold shard digests in range
order, so output is byte-identical for every worker count and across
checkpoint interruptions.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import signal
import sys
from typing import NamedTuple

import numpy as np

from .asymptotic import variance_sweep
from .expsum import evaluate_sigma_row
from .represent import (
    _PIECE,
    Mode,
    ShardSummary,
    _growth_ratios,
    growth_rows_from_arrays,
    merge_summaries,
    summary_stats,
    verify_range,
)
from .sieve import (
    _CACHE_HEADER,
    CoverageError,
    PrimeTable,
    ResourceLimitError,
    build_prime_table,
    load_prime_table,
    prime_count,
    save_prime_table,
    squarefree_kappa_census,
)
from .singular import singular_series, tail_partial

__all__ = ["main"]

DEFAULT_CUTOFF = 10**5
DEFAULT_SHARD_SIZE = 1 << 20

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# report formatting


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _json_cell(value):
    if isinstance(value, float):
        return float(f"{value:.6f}")
    if isinstance(value, tuple):
        return list(value)
    return value


def _format_row(header: list[str], values: dict, fmt: str) -> str:
    """One CSV or JSONL line: the scalar rule every writer's output follows."""
    if fmt == "csv":
        return ",".join(_fmt_cell(values[k]) for k in header) + "\n"
    return json.dumps({k: _json_cell(values[k]) for k in header}) + "\n"


# Rows per chunk of the column formatter.  A chunk's byte matrix and digit
# temporaries stay near a megabyte, where one buffer per shard would double
# the peak RSS of a records run, and numpy's per-call cost stays small.
_RECORD_CHUNK_ROWS = 1 << 14


def _micro_units(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, exact): r = rint(x * 1e6) as int64, and where r * 1e-6 is f"{x:.6f}".

    1e6 is a double, so y = x * 1e6 lies within half a spacing of the exact
    product.  Where y is more than one spacing from the half-integer between
    its neighbouring integers (and below 2**52, where that spacing is at most
    1/2), the exact product lies strictly inside the same half-open unit as
    y, so rint(y) is its correctly rounded value, which is what Python's
    formatting prints.  A set sign bit (-0.0 prints "-0.000000"), a NaN or an
    infinity is never exact.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        y = x * 1e6
        exact = (
            ~np.signbit(x)
            & (y < 2.0**52)
            & (np.abs(y - (np.floor(y) + 0.5)) > np.spacing(y))
        )
    return np.rint(np.where(exact, y, 0.0)).astype(np.int64), exact


# digit field kinds: a whole number, six zero-padded decimals, and six
# decimals without their trailing zeros (one kept)
_WHOLE, _SIX, _SIX_TRIMMED = range(3)


def _format_rows(header: list[str], columns: list[np.ndarray], fmt: str) -> bytes:
    """The bytes _format_row writes for each row of int64 / float64 columns.

    Each row is laid out as literals and right-aligned digit fields in one
    uint8 matrix of fixed width; a mask of the bytes each row keeps (not a
    leading or trimmed zero) compacts the matrix into the rows' bytes.  A
    float prints as r // 10**6, '.' and the six digits of r % 10**6 (CSV),
    or those digits trimmed (JSONL, which prints repr(float) of the
    6-decimal value: for values in [1e-4, 1e9) that value has at most 15
    significant digits, so its trimmed string is the shortest that
    round-trips).  A row with a negative int, a float _micro_units cannot
    round exactly, or a JSONL float outside that interval is formatted by
    _format_row and spliced in place.
    """
    rows = len(columns[0])
    scalar = np.zeros(rows, dtype=bool)
    parts: list = []  # literal bytes alternating with (values, kind) fields
    for i, (key, col) in enumerate(zip(header, columns)):
        if fmt == "csv":
            parts.append(b"," if i else b"")
        else:
            parts.append(("{" if i == 0 else ", ").encode() + json.dumps(key).encode() + b": ")
        if col.dtype.kind != "f":
            scalar |= col < 0
            parts.append((col, _WHOLE))
            continue
        r, exact = _micro_units(col)
        if fmt == "csv":
            scalar |= ~exact
        else:
            scalar |= ~(exact & (r >= 100) & (r < 10**15))
        whole, frac = np.divmod(r, 10**6)
        parts += [(whole, _WHOLE), b".", (frac, _SIX if fmt == "csv" else _SIX_TRIMMED)]
    parts.append(b"\n" if fmt == "csv" else b"}\n")

    spans = [
        len(p) if isinstance(p, bytes)
        else 6 if p[1] != _WHOLE
        else len(str(max(int(p[0].max(initial=0)), 0)))
        for p in parts
    ]
    # one template row holds every literal; digit fields overwrite the rest
    template = b"".join(p if isinstance(p, bytes) else b"0" * n for p, n in zip(parts, spans))
    matrix = np.empty((rows, len(template)), dtype=np.uint8)
    matrix[:] = np.frombuffer(template, dtype=np.uint8)
    keep = np.ones(matrix.shape, dtype=bool)
    at = 0
    for part, span in zip(parts, spans):
        if not isinstance(part, bytes):
            values, kind = part
            for k in range(span):  # the k-th least significant digit
                col = at + span - 1 - k
                if kind == _WHOLE and k:
                    keep[:, col] = values > 0
                quotient = values // 10  # numpy divides by a scalar far faster than divmod
                digit = values - 10 * quotient
                if kind == _SIX_TRIMMED and k < span - 1:
                    nonzero = digit != 0 if k == 0 else nonzero | (digit != 0)
                    keep[:, col] = nonzero
                digit += 48
                matrix[:, col] = digit
                values = quotient
        at += span

    keep[scalar] = False
    fast = matrix[keep]
    if not scalar.any():
        return fast.tobytes()
    ends = np.cumsum(keep.sum(axis=1))  # a scalar row adds nothing to fast
    out, start = [], 0
    for i in np.flatnonzero(scalar):
        row = {k: col[i].item() for k, col in zip(header, columns)}
        out += [fast[start : ends[i]].tobytes(), _format_row(header, row, fmt).encode()]
        start = ends[i]
    out.append(fast[start:].tobytes())
    return b"".join(out)


class _Sink:
    """Every CLI output file: rows as CSV or JSONL to a path or, for None or
    '-', to stdout.  A file is opened in binary mode, so tell() and
    truncate() are plain byte offsets.

    row() formats one row by _format_row: reports hold few rows, and numpy's
    per-call cost would outweigh any vector formatting.  columns() formats
    int64 / float64 columns by _format_rows, one write per chunk.  With
    resume_bytes, the file is cut back to that length and appended to,
    with no header; stdout is never resumed.
    """

    def __init__(self, path: str | None, header: list[str], fmt: str,
                 resume_bytes: int | None = None):
        self.header = header
        self.fmt = fmt
        self._own = path is not None and path != "-"
        if not self._own:
            self._fh = sys.stdout
        elif resume_bytes is None:
            self._fh = open(path, "wb")
        else:
            size = os.path.getsize(path)
            if size < resume_bytes:
                raise ValueError(
                    f"records file {path} has {size} bytes, checkpoint expects {resume_bytes}"
                )
            self._fh = open(path, "r+b")
            self._fh.truncate(resume_bytes)
            self._fh.seek(0, os.SEEK_END)
        if resume_bytes is None and fmt == "csv":
            self._write((",".join(header) + "\n").encode())

    def _write(self, data: bytes) -> None:
        # stdout may be a text stream with no binary buffer, such as an io.StringIO;
        # a CSV cell can hold a non-ASCII path
        self._fh.write(data if self._own else data.decode("utf-8"))

    def row(self, values: dict) -> None:
        self._write(_format_row(self.header, values, self.fmt).encode())

    def columns(self, arrays: list[np.ndarray]) -> None:
        for start in range(0, len(arrays[0]), _RECORD_CHUNK_ROWS):
            chunk = [a[start : start + _RECORD_CHUNK_ROWS] for a in arrays]
            self._write(_format_rows(self.header, chunk, self.fmt))

    def sync(self) -> int:
        """Make the rows written so far durable; returns the file's byte length."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return self._fh.tell()

    def close(self) -> None:
        if self._own:
            self._fh.close()
        else:
            self._fh.flush()


def _write_rows(path: str | None, header: list[str], fmt: str, rows) -> None:
    """Write each row, a dict holding header's keys, to path or stdout."""
    sink = _Sink(path, header, fmt)
    try:
        for row in rows:
            sink.row(row)
    finally:
        sink.close()


# ---------------------------------------------------------------------------
# memory budget and prime-table acquisition


# cgroup v2 ("0::path") and the v1 memory controller ("N:memory:path"), keyed
# by the controller field of /proc/self/cgroup: the hierarchy's root, its
# limit and usage files, and memory.stat's key for the inactive file pages
_CGROUP_MEMORY = {
    "": ("/sys/fs/cgroup", "memory.max", "memory.current", "inactive_file"),
    "memory": ("/sys/fs/cgroup/memory", "memory.limit_in_bytes", "memory.usage_in_bytes",
               "total_inactive_file"),
}


def _memory_budget() -> int | None:
    """Bytes the run may still allocate: MemAvailable, or less where the
    process's cgroup sets a memory limit (v2 memory.max or v1
    memory.limit_in_bytes).  None when none of them can be read.

    The cgroup's inactive file pages count as free: its usage includes
    page cache, which the kernel reclaims before it fails an allocation."""
    limits = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            groups = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        groups = []
    for _, controllers, group in (g for g in groups if len(g) == 3):
        if controllers not in _CGROUP_MEMORY:
            continue
        root, limit_file, usage_file, inactive_key = _CGROUP_MEMORY[controllers]
        base = os.path.join(root, group.lstrip("/"))
        try:
            with open(os.path.join(base, limit_file), encoding="ascii") as fh:
                limit = fh.read().strip()
            with open(os.path.join(base, usage_file), encoding="ascii") as fh:
                usage = int(fh.read())
            with open(os.path.join(base, "memory.stat"), encoding="ascii") as fh:
                stat = dict(line.split() for line in fh)
            if limit != "max":
                limits.append(int(limit) - usage + int(stat.get(inactive_key, 0)))
        except (OSError, ValueError):
            pass
    return min(limits) if limits else None


def _check_memory(estimate: int, what: str) -> None:
    """Raise ResourceLimitError, before anything is allocated, when the
    estimated bytes exceed what the machine or cgroup has left."""
    budget = _memory_budget()
    if budget is not None and estimate > budget:
        raise ResourceLimitError(
            f"{what} needs about {estimate / 2**20:.0f} MiB, only {budget / 2**20:.0f} MiB available"
        )


def _cache_bits(path: str) -> int:
    """Odd-number bits a TPT1 cache holds, from its size (8 per payload byte)."""
    return 8 * max(os.path.getsize(path) - _CACHE_HEADER.size, 0)


def _cached_table(path: str) -> PrimeTable:
    """The table of a cache file, loaded once per process while the file is unchanged."""
    stat = os.stat(path)
    return _load_table(path, stat.st_mtime_ns, stat.st_size)


@functools.lru_cache(maxsize=1)
def _load_table(path: str, mtime_ns: int, size: int) -> PrimeTable:
    return load_prime_table(path)


def _table_bytes(args, needed_limit: int) -> int:
    """Bytes _acquire_table allocates: with --cache the packed payload, its
    unpacked bytes and the bool table; otherwise the sieved bool table."""
    return _cache_bits(args.cache) * 2 if args.cache else (needed_limit + 1) // 2


def _acquire_table(args, needed_limit: int) -> PrimeTable:
    if args.cache:
        _check_memory(_table_bytes(args, needed_limit), f"loading {args.cache}")
        table = _cached_table(args.cache)
        if table.limit < needed_limit:
            raise ValueError(
                f"cache {args.cache} covers only {table.limit}, need {needed_limit}"
            )
        return table
    _check_memory(_table_bytes(args, needed_limit), f"a prime table to {needed_limit}")
    return build_prime_table(needed_limit)


# ---------------------------------------------------------------------------
# verify: sharded, checkpointable range verification


def _shard_bounds(lo: int, hi: int, shard_size: int) -> list[tuple[int, int]]:
    return [(a, min(a + shard_size - 1, hi)) for a in range(lo, hi + 1, shard_size)]


class _ShardTask(NamedTuple):
    """Everything a shard needs, so a pool task carries its whole context."""

    mode: Mode
    lo: int
    hi: int
    include_small: bool
    cache: str | None  # TPT1 path; None sieves the shard and its p-bitmap
    keep_arrays: bool  # return the per-q arrays (records, a fold)


def _run_shard(task: _ShardTask):
    table = None if task.cache is None else _cached_table(task.cache)
    report = verify_range(task.lo, task.hi, task.mode, table, task.include_small)
    arrays = (report.qs, report.ps, report.ns) if task.keep_arrays else None
    return report.summary, arrays


def _worker_init() -> None:
    # Ctrl-C reaches the workers with the parent, which stops the run; a
    # worker it killed while writing a result would leave the pool waiting
    # for the rest of that message forever
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextlib.contextmanager
def _shard_results(tasks: list[_ShardTask], workers: int):
    """An iterator of _run_shard(task) for each task, in order.

    With two or more tasks and workers, min(workers, tasks) forked processes
    run at most two tasks per process ahead of the consumer.  A worker that
    ends mid-run (killed by the kernel when memory runs out, say) posts no
    result: the pool sees it gone, ends the other workers, and the run
    fails with ResourceLimitError instead of waiting for that result
    forever.  On any exit, Ctrl-C too, the tasks not yet started are
    dropped and the running ones waited for.
    """
    processes = min(workers, len(tasks))
    if processes <= 1:
        yield map(_run_shard, tasks)
        return
    # imported here, so runs that fork no workers do not load it
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes, initializer=_worker_init)
    try:
        yield _results_ahead(pool, tasks, 2 * processes)
    except BrokenProcessPool as exc:
        raise ResourceLimitError("a verify worker ended before its shard was done") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _results_ahead(pool, tasks: list[_ShardTask], ahead: int):
    todo = iter(tasks)
    running = collections.deque(
        pool.submit(_run_shard, task) for task in itertools.islice(todo, ahead)
    )
    while running:
        result = running.popleft().result()
        running.extend(pool.submit(_run_shard, task) for task in itertools.islice(todo, 1))
        yield result


# Peak bytes of one shard's verify_range per admissible q: its q domain,
# the scan lanes, the block digests and the per-q arrays it joins.
# tracemalloc read 58-62 bytes a lane for _scan_block alone and 60-75 bytes
# a q for whole shards of 2^17 to 2^22 numbers, in all three modes, at
# 1.6e7 and 2e8.
_SHARD_BYTES_PER_Q = 80


def _q_bound(mode: Mode, span: int) -> int:
    """At most how many admissible q a range of span integers holds."""
    odd = span // 2 + 1
    if mode == Mode.SUN_ODD or span < 2:
        return odd
    # Brun-Titchmarsh (Montgomery-Vaughan): pi(x + y) - pi(x) < 2y / log y
    return min(odd, int(2 * span / math.log(span)) + 1)


def _verify_memory(args, mode: Mode, lo: int, hi: int, keep_arrays: bool) -> int:
    """Bytes a verify run needs beyond the interpreter, estimated from the run.

    Each of min(workers, shards) processes holds one shard at a time, its
    q bits and _SHARD_BYTES_PER_Q a q, and keeps its own p-bitmap: the
    filled pieces below a bound on the largest p_q of 8 sqrt(hi) log(hi)^2,
    one piece being sieved, and while the bitmap doubles, an eighth of the
    filled pieces packed; the measured largest p_q is about half the bound
    (4.59e6 to 1.6e7, 2.22e7 to 2e8).  With --cache the table and its load
    temporaries come once, since forked workers share them.  With
    keep_arrays (records or a fold), the per-q arrays a shard returns, 24
    bytes a q, wait in the parent for up to two shards a process.
    """
    span = min(args.shard_size, hi - lo + 1)
    processes = min(args.workers, -(-(hi - lo + 1) // args.shard_size))  # shards
    p_bound = min(hi, 8 * math.isqrt(hi) * math.ceil(math.log(max(hi, 3))) ** 2)
    filled = -(-(p_bound // 2 + 1) // _PIECE) * _PIECE
    pbits = filled + _PIECE + filled // 8
    total = (_SHARD_BYTES_PER_Q * _q_bound(mode, span) + span // 2 + pbits) * processes
    if args.cache:
        total += _cache_bits(args.cache) * 2
    if keep_arrays and processes > 1:
        total += 2 * processes * 24 * _q_bound(mode, span)
    return total


_RECORD_HEADER = ["q", "p", "n", "p_over_cbrt_q", "n_over_log_q"]


class _Checkpoint:
    """Plain-text checkpoint: META line, one JSON line per completed shard,
    and a final DONE line carrying a digest of the merged summary.

    Each line is appended with fsync.  A last line without its newline is
    an append torn by a crash: load ignores it and the next append
    overwrites it."""

    def __init__(self, path: str):
        self.path = path
        self.meta: dict | None = None
        self.shards: list[dict] = []
        self.done_hash: str | None = None
        self.size = 0  # bytes of complete lines

    @classmethod
    def load(cls, path: str) -> "_Checkpoint":
        cp = cls(path)
        if not os.path.exists(path):
            return cp
        with open(path, "rb") as fh:
            data = fh.read()
        cp.size = data.rfind(b"\n") + 1
        for line in data[: cp.size].decode("utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            kind, _, payload = line.partition(" ")
            if kind == "META":
                cp.meta = json.loads(payload)
            elif kind == "SHARD":
                cp.shards.append(json.loads(payload))
            elif kind == "DONE":
                cp.done_hash = payload.strip()
            else:
                raise ValueError(f"{path}: unrecognized checkpoint line {kind!r}")
        return cp

    def _append(self, line: str) -> None:
        data = line.encode("utf-8")
        with open(self.path, "r+b" if self.size else "wb") as fh:
            fh.truncate(self.size)
            fh.seek(self.size)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self.size += len(data)

    def start(self, meta: dict) -> None:
        self.meta = meta
        self.size = 0
        self._append("META " + json.dumps(meta, sort_keys=True) + "\n")

    def append_shard(self, entry: dict) -> None:
        self.shards.append(entry)
        self._append("SHARD " + json.dumps(entry, sort_keys=True) + "\n")

    def finish(self, digest: str) -> None:
        self.done_hash = digest
        self._append("DONE " + digest + "\n")


_VERIFY_HEADER = [
    "mode",
    "lo",
    "hi",
    "checked",
    "represented",
    "failures",
    "failure_list",
    "min_p_over_cbrt_q",
    "min_p_over_cbrt_q_at",
    "max_n_over_log_q",
    "max_n_over_log_q_at",
    "dichotomy_violations",
    "same_n_order_violations",
    "sqrt_bound_violations",
]


def _summary_row(mode: Mode, total: ShardSummary) -> dict:
    return {
        **summary_stats(total),
        "mode": mode.value,
        "lo": total.lo,
        "hi": total.hi,
        "checked": total.checked,
        "represented": total.represented,
        "failures": len(total.failures),
        "failure_list": total.failures[:32],
    }


def _summary_digest(total: ShardSummary) -> str:
    blob = json.dumps(total.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _run_sharded_verify(args, mode: Mode, lo: int, hi: int, fold=None, fold_bytes: int = 0):
    """Shared engine of verify, stats and density: returns the merged
    summary, or None when --stop-after-shards ended the run early.

    Shards are processed in ascending range order; with workers > 1 the
    pool computes them concurrently but folding still happens in order,
    so the result is identical for every worker count.  fold(qs, ps, ns)
    is called with each shard's representations, in range order, and may
    keep up to fold_bytes until the run ends.  Without --cache no
    whole-range table exists: each shard sieves its own q-range.
    """
    keep_arrays = fold is not None or bool(args.emit_records)
    _check_memory(_verify_memory(args, mode, lo, hi, keep_arrays) + fold_bytes,
                  f"verify over {lo}:{hi}")
    if args.cache:
        # loaded once here, so forked workers inherit it; the floor of 7 is
        # part of the exit-code contract: a cache below 7 exits 2
        _acquire_table(args, max(hi, 7))
    bounds = _shard_bounds(lo, hi, args.shard_size)

    checkpoint = _Checkpoint.load(args.checkpoint) if args.checkpoint else None
    meta = {
        "mode": mode.value,
        "lo": lo,
        "hi": hi,
        "shard_size": args.shard_size,
        "include_small": bool(args.include_small),
        "emit_records": bool(args.emit_records),
        "format": args.format,
    }
    completed: list[dict] = []
    if checkpoint is not None and checkpoint.meta is not None:
        if checkpoint.meta != meta:
            raise ValueError(
                f"checkpoint {args.checkpoint} was created with different parameters"
            )
        completed = checkpoint.shards
        for entry, expect in zip(completed, bounds):
            if (entry["summary"]["lo"], entry["summary"]["hi"]) != expect:
                raise ValueError(f"checkpoint shard {entry['summary']['lo']} misaligned")
    summaries = [ShardSummary.from_json_dict(e["summary"]) for e in completed]

    resume_bytes = completed[-1]["records_bytes"] if completed else None
    sink = None
    if checkpoint is not None and checkpoint.done_hash is not None:
        # a complete checkpoint must still fold to the digest it recorded
        if len(completed) != len(bounds) or checkpoint.done_hash != _summary_digest(
            merge_summaries(summaries)
        ):
            raise ValueError(
                f"checkpoint {args.checkpoint} shards do not match its DONE digest"
            )
        # nothing is left to write, so the records file is only checked, never opened
        if args.emit_records and os.path.getsize(args.emit_records) != resume_bytes:
            raise ValueError(
                f"records file {args.emit_records} has {os.path.getsize(args.emit_records)} "
                f"bytes, complete checkpoint expects {resume_bytes}"
            )
    elif args.emit_records:
        sink = _Sink(args.emit_records, _RECORD_HEADER, args.format, resume_bytes)
    if checkpoint is not None and checkpoint.meta is None:
        checkpoint.start(meta)

    pending = bounds[len(completed) :]
    if args.stop_after_shards is not None:
        # submit only the shards to run, so no worker computes one to discard
        pending = pending[: max(args.stop_after_shards, 1)]
    tasks = [
        _ShardTask(mode, a, b, bool(args.include_small), args.cache, keep_arrays)
        for a, b in pending
    ]
    try:
        with _shard_results(tasks, args.workers) as results:
            for summary, shard_arrays in results:
                if sink is not None:
                    sink.columns([*shard_arrays, *_growth_ratios(*shard_arrays)])
                if fold is not None:
                    fold(*shard_arrays)
                summaries.append(summary)
                if checkpoint is not None:
                    records_bytes = sink.sync() if sink is not None else 0
                    checkpoint.append_shard(
                        {"summary": summary.to_json_dict(), "records_bytes": records_bytes}
                    )
                del shard_arrays  # free this shard's arrays before the next one arrives
    finally:
        if sink is not None:
            sink.close()

    if len(summaries) < len(bounds):
        return None  # interrupted (stop_after): caller exits without summary

    total = merge_summaries(summaries)
    if checkpoint is not None and checkpoint.done_hash is None:
        checkpoint.finish(_summary_digest(total))
    return total


def _cmd_verify(args) -> int:
    lo, hi = args.range
    mode = Mode(args.mode)
    if hi < 5 and not args.include_small:
        print(
            f"error: no admissible q in range {lo}:{hi} (q >= 5 needed; "
            "use --include-small to count small q as failures)",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    total = _run_sharded_verify(args, mode, lo, hi)
    if total is None:
        return EXIT_OK  # interrupted by --stop-after-shards; checkpoint holds progress
    _write_rows(args.out, _VERIFY_HEADER, args.format, [_summary_row(mode, total)])
    return EXIT_MATH_FAILURE if total.failures else EXIT_OK


# Bytes a growth row takes while stats holds it: tracemalloc holds 276 a
# GrowthRow, and stats --range 5:10000000 --bucket 1 (664,577 rows) peaks
# 239 MB, 377 bytes a row, above the same run with --bucket 1000.
_GROWTH_ROW_BYTES = 400


def _cmd_stats(args) -> int:
    lo, hi = args.range
    rows = []  # growth rows in ascending bucket order

    def fold(qs, ps, ns):
        if len(qs) == 0:
            return
        shard_rows = growth_rows_from_arrays(qs, ps, ns, args.bucket)
        if rows and rows[-1].q_bucket == shard_rows[0].q_bucket:  # a bucket across shards
            rows[-1] = rows[-1].merge(shard_rows.pop(0))
        rows.extend(shard_rows)

    # every shard runs, and each bucket holding a representation keeps its row to the end
    buckets = min(hi // args.bucket - lo // args.bucket + 1, _q_bound(Mode.TWIN_MIN, hi - lo + 1))
    total = _run_sharded_verify(args, Mode.TWIN_MIN, lo, hi, fold, _GROWTH_ROW_BYTES * buckets)
    if not rows:
        print("error: no representations found in range", file=sys.stderr)
        return EXIT_BAD_INPUT
    header = ["q_bucket", "count", "max_n", "min_p", "min_p_over_cbrt_q", "max_n_over_log_q"]
    _write_rows(args.out, header, args.format, [vars(row) for row in rows])
    return EXIT_MATH_FAILURE if total.failures else EXIT_OK


def _cmd_sigma(args) -> int:
    if args.qmax < 1 or args.pmax < 2:
        print(f"error: invalid grid qmax={args.qmax} pmax={args.pmax}", file=sys.stderr)
        return EXIT_BAD_INPUT
    table = _acquire_table(args, max(args.pmax, 2))
    primes = [int(p) for p in table.primes() if p <= args.pmax]
    rows = (
        {
            "q": q,
            "p": ev.p,
            "kappa": ev.kappa,
            "brute": ev.brute_value,
            "closed": ev.closed_value,
            "match": ev.match,
        }
        for q in range(1, args.qmax + 1)
        for ev in evaluate_sigma_row(q, primes)
    )
    _write_rows(args.out, ["q", "p", "kappa", "brute", "closed", "match"], args.format, rows)
    return EXIT_OK


def _cmd_singular(args) -> int:
    table = _acquire_table(args, max(args.cutoff, args.pmax, 5))
    primes = [int(p) for p in table.primes() if p <= args.pmax]
    q1 = max(3, args.cutoff // 10)
    # every row exists before the writer opens, so a rejected cutoff
    # leaves stdout and --out untouched
    rows = []
    for p in primes:
        kappa = 4 * p - 1
        sv = singular_series(kappa, args.cutoff, table)
        tail = tail_partial(kappa, q1, args.cutoff, table)
        rows.append({**vars(sv), "p": p, "tail_partial": tail})
    header = ["kappa", "p", "cutoff", "value", "last_factor_deviation", "tail_partial"]
    _write_rows(args.out, header, args.format, rows)
    return EXIT_OK


def _cmd_variance(args) -> int:
    xs = args.x
    if args.emit_records and len(xs) != 1:
        print("error: --emit-records needs a single --x value", file=sys.stderr)
        return EXIT_BAD_INPUT
    runs = [(x, args.y if args.y is not None else x * x) for x in xs]
    # size the tables for 0 <= y <= x^2 only: the sweep rejects a run outside
    # that region before any output exists, and no table is built for it
    clamped = [(x, min(max(y, 0), x * x)) for x, y in runs]
    needed = max(max(args.cutoff, (y + 1) // 4, math.isqrt(y) + 1) for _, y in clamped)
    # the sweep's von Mangoldt table: 8 bytes an integer up to x^2 + x + p for
    # the largest p <= (y + 1) // 4 of each run holding a kappa = 4p - 1 (y >= 7),
    # with the bool table and the int64 primes it sieves to that limit
    top = max((x * x + x + (y + 1) // 4 for x, y in clamped if y >= 7), default=0)
    lam = 8 * (top + 1) + (top + 1) // 2 + 8 * _q_bound(Mode.ANY_PRIME, top)
    # singular_series_many's scratch: its r^2, mark and factor buffers and
    # the ell, 17 bytes an integer up to the cutoff under tracemalloc (20
    # counted), and four 8-byte arrays over the kappa = 4p - 1, one a prime
    # p <= (y + 1) // 4
    p_top = max((y + 1) // 4 for _, y in clamped)
    kernel = 20 * args.cutoff + 32 * _q_bound(Mode.ANY_PRIME, p_top)
    _check_memory(_table_bytes(args, needed) + lam + kernel,
                  f"a prime table to {needed}, a von Mangoldt table to {top} "
                  f"and the singular series to {args.cutoff}")
    table = _acquire_table(args, needed)
    reports = variance_sweep(
        runs, args.cutoff, table,
        baier_zhao=args.baier_zhao, keep_terms=bool(args.emit_records),
    )
    header = ["x", "y", "cutoff", "term_count", "lhs", "ratio"]
    _write_rows(args.out, header, args.format, [vars(report) for report in reports])
    if args.emit_records:
        (report,) = reports  # a single --x
        terms = (
            {
                "p": term.p,
                "kappa": term.kappa,
                "psi": term.psi_value,
                "s_trunc": term.singular_value,
                "main_term": term.main_term,
                "residual": term.residual,
                "residual_sq": term.residual_sq,
            }
            for term in report.terms
        )
        header = ["p", "kappa", "psi", "s_trunc", "main_term", "residual", "residual_sq"]
        _write_rows(args.emit_records, header, args.format, terms)
    return EXIT_OK


def _cmd_density(args) -> int:
    """Representability of every prime q <= x in both modes: one sharded
    verify over [2, x] a mode, which counts q = 2 and q = 3 as exceptions."""
    if args.x < 2:
        raise ValueError(f"density requires x >= 2, got {args.x}")
    any_prime = _run_sharded_verify(args, Mode.ANY_PRIME, 2, args.x)
    twin = _run_sharded_verify(args, Mode.TWIN_MIN, 2, args.x)
    header = [
        "x",
        "total_primes",
        "representable_any_prime",
        "representable_twin",
        "density_any_prime",
        "exceptions_any_prime",
        "exceptions_twin",
    ]
    row = {
        "x": args.x,
        "total_primes": any_prime.checked,
        "representable_any_prime": any_prime.represented,
        "representable_twin": twin.represented,
        "density_any_prime": any_prime.represented / any_prime.checked,
        "exceptions_any_prime": any_prime.failures[:32],
        "exceptions_twin": twin.failures[:32],
    }
    _write_rows(args.out, header, args.format, [row])
    return EXIT_OK


def _cmd_mirsky(args) -> int:
    needed = max(args.y, math.isqrt(4 * args.y) + 1)
    table = _acquire_table(args, needed)
    count, total = squarefree_kappa_census(table, args.y)
    row = {
        "y": args.y,
        "s_y": count,
        "pi_y": total,
        "fraction": count / total if total else 0.0,
    }
    _write_rows(args.out, ["y", "s_y", "pi_y", "fraction"], args.format, [row])
    return EXIT_OK


def _cmd_sieve_cache(args) -> int:
    _check_memory((args.limit + 1) // 2, f"a prime table to {args.limit}")
    table = build_prime_table(args.limit, args.segment_size)
    save_prime_table(table, args.cache_out)
    row = {
        "limit": table.limit,
        "segment_size": table.segment_size,
        "pi": prime_count(table, table.limit),
        "path": args.cache_out,
    }
    _write_rows(args.out, ["limit", "segment_size", "pi", "path"], args.format, [row])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be LO:HI, got {text!r}")


def _parse_xs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"x must be an integer or comma list, got {text!r}")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default=None, help="report path ('-' or omitted: stdout)")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    # the CPUs this process may run on, not every CPU of the machine
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sub.add_argument("--workers", type=int, default=cpus or 1)


def _add_shard_flags(sub) -> None:
    """The range, sharding, checkpoint and record flags shared by verify and stats."""
    sub.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI")
    sub.add_argument("--include-small", action="store_true",
                     help="count q in {2,3} (no admissible n) as failures")
    sub.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    sub.add_argument("--checkpoint", default=None, help="checkpoint file for resumable runs")
    sub.add_argument("--emit-records", default=None, metavar="PATH",
                     help="stream per-q records to PATH ('-': stdout)")
    sub.add_argument("--stop-after-shards", type=int, default=None,
                     help="stop after N shards (testing aid for checkpoint resume)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinrep",
        description="Representations q = p + n^2 + n: verification and numerics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify representability over a q-range")
    p.add_argument("--mode", choices=("twin", "prime", "sun"), required=True)
    _add_shard_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="bucketed growth statistics of the minimal twin map")
    p.add_argument("--bucket", type=int, required=True)
    _add_shard_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sigma", help="exponential-sum grid report")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("singular", help="truncated singular-series report")
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("variance", help="averaged squared-residual report")
    p.add_argument("--x", type=_parse_xs, required=True,
                   help="x value or comma list of x values")
    p.add_argument("--y", type=int, default=None, help="default: x^2 per x")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--baier-zhao", action="store_true",
                   help="use the S*x main-term normalization for comparison")
    p.add_argument("--emit-records", default=None, metavar="PATH",
                   help="per-kappa term rows (single --x only)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("density", help="representability census over primes <= x")
    p.add_argument("--x", type=int, required=True)
    _add_output_flags(p)
    # the verify engine's settings, fixed; --workers runs each pass in that
    # many processes, one by default: at --x 5000000 a pool costs more than it saves
    p.set_defaults(func=_cmd_density, workers=1, include_small=True,
                   shard_size=DEFAULT_SHARD_SIZE, checkpoint=None, emit_records=None,
                   stop_after_shards=None)

    p = sub.add_parser("mirsky", help="squarefree 4p-1 census (s(y), pi(y))")
    p.add_argument("--y", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_mirsky)

    # no abbreviations here: "--cache" must not silently stand for "--cache-out"
    p = sub.add_parser("sieve-cache", help="build and cache a prime table", allow_abbrev=False)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--segment-size", type=int, default=1 << 20)
    p.add_argument("--cache-out", required=True, metavar="PATH")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sieve_cache)

    for name, p in sub.choices.items():
        if name != "sieve-cache":  # every other subcommand reads primes via _acquire_table
            p.add_argument("--cache", default=None, help="binary prime-table cache to load")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # bounds no library call enforces, checked before any table or file exists
        if args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        lo, hi = getattr(args, "range", (1, 1))
        if lo < 1 or hi < lo:
            raise ValueError(f"bad range {lo}:{hi}")
        if getattr(args, "cutoff", 3) < 3:
            raise ValueError(f"cutoff must be >= 3, got {args.cutoff}")
        if args.subcommand == "singular" and args.cutoff < 4:
            # the tail_partial column needs Q1 = max(3, cutoff // 10) < cutoff
            raise ValueError(f"singular needs cutoff >= 4 for its tail, got {args.cutoff}")
        if getattr(args, "shard_size", 1) < 1:
            raise ValueError("shard-size must be positive")
        if getattr(args, "checkpoint", None) and args.emit_records == "-":
            raise ValueError("cannot resume records emitted to stdout; use a file path")
        if getattr(args, "bucket", 1) < 1:
            raise ValueError(f"bucket must be positive, got {args.bucket}")
        if args.subcommand == "stats" and (args.checkpoint or args.stop_after_shards is not None):
            # a checkpoint keeps shard digests, not the growth rows folded so far
            raise ValueError("stats does not resume: drop --checkpoint and --stop-after-shards")
        return args.func(args)
    except (ValueError, CoverageError, OverflowError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
