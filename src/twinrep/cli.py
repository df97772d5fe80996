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
exhaustion, 130 interrupted by Ctrl-C.  Output is CSV (default) or
JSONL with identical values; floats carry six decimals.  verify runs are
sharded over the range, optionally across worker processes, and fold
shard digests in range order, so output is byte-identical for every
worker count and across checkpoint interruptions.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import signal
import sys

import numpy as np

# represent and sieve, which every command uses, are imported here; the other
# library modules, json and hashlib are imported where a command reaches them,
# so a process compiles only what its command runs
from .represent import (
    _PIECE,
    MAX_Q,
    Mode,
    ShardSummary,
    _growth_ratios,
    growth_columns,
    n_max,
    verify_range,
)
from .sieve import (
    _CACHE_HEADER,
    _SQUAREFREE_SEGMENT,
    SEGMENT_SIZE,
    CoverageError,
    PrimeTable,
    ResourceLimitError,
    build_prime_table,
    load_prime_table,
    prime_count,
    save_prime_table,
    squarefree_kappa_census,
)

__all__ = ["main", "run"]

DEFAULT_CUTOFF = 10**5
DEFAULT_SHARD_SIZE = 1 << 20

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


# ---------------------------------------------------------------------------
# report formatting


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _json_cell(value):
    if isinstance(value, float):
        return float(f"{value:.6f}")
    return value


def _format_row(header: list[str], values: dict, fmt: str) -> str:
    """One CSV or JSONL line: the scalar rule every writer's output follows."""
    if fmt == "csv":
        return ",".join(_fmt_cell(values[k]) for k in header) + "\n"
    import json
    return json.dumps({k: _json_cell(values[k]) for k in header}) + "\n"


# Rows per chunk of the column formatter.  A chunk of the five record columns
# of 5:1000001 peaks at 2.4 MB (CSV) to 5.2 MB (JSONL) under tracemalloc, where
# one buffer a shard would double a records run's peak RSS, and numpy's
# per-call cost is small.
_RECORD_CHUNK_ROWS = 1 << 14

# Peak bytes a row of one such chunk: tracemalloc read 148 (CSV) and 314
# (JSONL) over the records of 5:1000001, and 346 and 564 over rows as wide as
# any below 2^61 (a 19-digit q, a 13-digit p and a 10-digit n).
_RECORD_ROW_BYTES = {"csv": 384, "jsonl": 640}


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


def _format_rows(header: list[str], columns: list[np.ndarray], fmt: str) -> bytes:
    """The bytes _format_row writes for each row of int64 / float64 columns.

    The rows are laid out in one uint8 matrix, one contiguous row of it for
    each byte position: literals, and right-aligned digit fields whose
    digits come from uint32 limbs of up to nine.  A float prints as the
    fixed-point field r = rint(x * 1e6), '.' before its last six digits;
    JSONL, which prints repr(float) of the 6-decimal value, trims its
    trailing zeros but one (for values in [1e-4, 1e9) that value has at
    most 15 significant digits, so its trimmed string is the shortest that
    round-trips).  A dropped byte, a leading or trimmed zero, is 0, so one
    transpose and matrix[matrix != 0] give the rows' bytes.  A row with a
    negative int, a float _micro_units cannot round exactly, or a JSONL
    float outside that interval is formatted by _format_row and spliced in
    place.
    """
    rows = len(columns[0])
    scalar = np.zeros(rows, dtype=bool)
    parts: list = []  # literal bytes alternating with (values, decimals) fields
    for i, (key, col) in enumerate(zip(header, columns)):
        if fmt == "csv":
            parts.append(b"," if i else b"")
        else:
            import json
            parts.append(("{" if i == 0 else ", ").encode() + json.dumps(key).encode() + b": ")
        if col.dtype.kind != "f":
            scalar |= col < 0
            parts.append((col, 0))
            continue
        r, exact = _micro_units(col)
        scalar |= ~exact if fmt == "csv" else ~(exact & (r >= 100) & (r < 10**15))
        parts.append((r, 6))
    parts.append(b"\n" if fmt == "csv" else b"}\n")

    spans = [  # a field's digits (of its largest value, one whole at least) and its '.'
        len(p) if isinstance(p, bytes)
        else max(len(str(int(p[0].max(initial=0)))), p[1] + 1) + (p[1] > 0)
        for p in parts
    ]
    matrix = np.zeros((sum(spans), rows), dtype=np.uint8)
    end = 0
    for part, span in zip(parts, spans):
        end += span
        if isinstance(part, bytes):
            matrix[end - span : end] = np.frombuffer(part, dtype=np.uint8)[:, None]
            continue
        values, point = part
        if point:
            matrix[end - 1 - point] = ord(".")
        digits, nonzero = span - (point > 0), 0  # nonzero: JSONL's decimals so far, ORed
        for k in range(digits):  # the place of the digit, 0 the least significant
            if k % 9 == 0:
                rest = values // 10**9 if digits - k > 9 else 0
                # 10^9 more where a higher limb is not 0 keeps this limb's leading zeros
                limb = (values - np.maximum(rest - 1, 0) * 10**9).astype(np.uint32)
                values = rest
            quotient = limb // 10
            digit = limb - 10 * quotient
            byte = digit + 48
            if k > point:  # a leading zero is dropped
                byte *= np.minimum(limb, 1)
            elif fmt != "csv" and k < point - 1:  # so is a trailing decimal zero
                nonzero = digit | nonzero
                byte *= np.minimum(nonzero, 1)
            matrix[end - 1 - k - (0 < point <= k)] = byte
            limb = quotient

    matrix = np.ascontiguousarray(matrix.T)
    matrix[scalar] = 0
    fast = matrix[matrix != 0].tobytes()
    if not scalar.any():
        return fast
    ends = np.cumsum(np.count_nonzero(matrix, axis=1))  # a scalar row adds nothing to fast
    out, start = [], 0
    for i in np.flatnonzero(scalar):
        row = {k: col[i].item() for k, col in zip(header, columns)}
        out += [fast[start : ends[i]], _format_row(header, row, fmt).encode()]
        start = ends[i]
    out.append(fast[start:])
    return b"".join(out)


class _Sink:
    """Every CLI output file: rows as CSV or JSONL to a path or, for None or
    '-', to stdout.  A file is opened in binary mode, so tell() and
    truncate() are plain byte offsets.

    row() formats one row by _format_row: reports hold few rows, and numpy's
    per-call cost would outweigh any vector formatting.  columns() formats
    int64 / float64 columns by _format_rows, one write per chunk.  With
    resume_bytes, the file is cut back to that length and appended to,
    with no header; stdout is never resumed.  Each sink is used in a with
    block, which closes the file or flushes stdout.
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
        try:
            if resume_bytes is None:
                if fmt == "csv":
                    self._write((",".join(header) + "\n").encode())
            elif self._own:
                self._fh.truncate(resume_bytes)
                self._fh.seek(0, os.SEEK_END)
        except BaseException:
            self.close()  # no caller holds the sink to close it
            if self._own and resume_bytes is None and os.path.isfile(path):
                os.unlink(path)  # the empty file this sink made; never a device or pipe
            raise

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

    def __enter__(self) -> _Sink:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_rows(path: str | None, header: list[str], fmt: str, rows) -> None:
    """Write each row, a dict holding header's keys, to path or stdout."""
    with _Sink(path, header, fmt) as sink:
        for row in rows:
            sink.row(row)


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


def _cache_load_bytes(path: str) -> int:
    """Bytes load_prime_table holds for a TPT1 cache, from the file's size:
    the packed payload, the bool table of 8 bits a payload byte, and 16 KiB
    for the file object and its read buffer (6.5 KB under tracemalloc)."""
    return 9 * max(os.path.getsize(path) - _CACHE_HEADER.size, 0) + (1 << 14)


def _load_cache(path: str, needed_limit: int) -> PrimeTable:
    """The table of a cache file; ValueError when it stops below needed_limit."""
    table = load_prime_table(path)
    if table.limit < needed_limit:
        raise ValueError(f"cache {path} covers only {table.limit}, need {needed_limit}")
    return table


def _acquire_table(cache: str | None, needed_limit: int, extra: int = 0,
                   extra_what: str = "") -> PrimeTable:
    """The command's prime table to needed_limit, loaded from the cache path
    or, with None, sieved, after the command's one memory check: the
    table's bytes plus extra, the bytes of what else the command allocates
    (extra_what).  A cache load takes the packed payload and the bool
    table; a sieve the bool table."""
    if cache:
        table_bytes, what = _cache_load_bytes(cache), f"loading {cache}"
    else:
        table_bytes, what = (needed_limit + 1) // 2, f"a prime table to {needed_limit}"
    _check_memory(table_bytes + extra, f"{what} and {extra_what}" if extra_what else what)
    return _load_cache(cache, needed_limit) if cache else build_prime_table(needed_limit)


# ---------------------------------------------------------------------------
# verify: sharded, checkpointable range verification


def _shard_bounds(lo: int, hi: int, shard_size: int) -> list[tuple[int, int]]:
    return [(a, min(a + shard_size - 1, hi)) for a in range(lo, hi + 1, shard_size)]


def _run_shard(mode: Mode, table: PrimeTable | None, include_small: bool,
               keep_arrays: bool, bounds: tuple[int, int]):
    """One shard's summary and, with keep_arrays (records, a fold), its per-q
    arrays.  Without a table the shard sieves its own p-bitmap."""
    report = verify_range(*bounds, mode, table, include_small)
    arrays = (report.qs, report.ps, report.ns) if keep_arrays else None
    return report.summary, arrays


def _shard_worker(fn, tasks: list, pipe) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent ends its workers
    try:
        for task in tasks:
            pipe.send((True, fn(task)))
    except Exception as exc:
        pipe.send((False, exc))


@contextlib.contextmanager
def _shard_results(fn, tasks: list, workers: int):
    """An iterator of fn(task) for each task, in order.  Where fork exists, worker
    i of P = min(workers, tasks) > 1 runs tasks i, i + P, ..., ahead as far as its
    pipe buffers, and alone writes that pipe: its end mid-result reads as EOF.  A
    worker inherits fn and its tasks from the fork, so nothing is pickled to it."""
    processes = min(workers, len(tasks))
    if processes > 1:
        import multiprocessing  # here, so runs that fork no workers do not load it
    if processes <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield map(fn, tasks)
        return
    fork, pool = multiprocessing.get_context("fork"), []
    try:
        for i in range(processes):
            reader, writer = fork.Pipe(duplex=False)
            worker = fork.Process(target=_shard_worker, args=(fn, tasks[i::processes], writer))
            with writer:  # closed before the next fork, so worker i holds the only write end
                worker.start()
            pool.append((worker, reader))
        yield (_received(pool[k % processes][1]) for k in range(len(tasks)))
    finally:
        for worker, _ in pool:
            worker.terminate()
            worker.join()


def _received(pipe):
    """The next result on pipe; ResourceLimitError where its worker ended."""
    try:
        ok, result = pipe.recv()
    except (EOFError, OSError) as exc:
        raise ResourceLimitError("a verify worker ended before its shard was done") from exc
    if not ok:
        raise result
    return result


# Peak bytes of one shard's verify_range per admissible q: its q domain,
# one block's scan lanes, the block digests and the p and n arrays it fills.
# tracemalloc (p-bitmap grown first; shards of 2^17 to 2^22 numbers, all three
# modes, at 1.6e7 and 2e8; blocks of 2^17 lanes) read 75 where the shard is one
# block, 27-55 where it is two or more (sun shards of 2^19 numbers and more,
# twin and prime shards of 2^22), and up to 108 with the q bits in twin and
# prime shards of 2^17 numbers, which hold a third of the 2y / log y bound.
_SHARD_BYTES_PER_Q = 80


# Peak bytes a q of the one result the parent of a pool reads at a time: the
# pickled message and the arrays unpickled from it, 24 bytes a q each, then
# the ratios records take and a formatted chunk.  tracemalloc in the parent
# of 2-worker runs, shards of 2^20: 51.3 (verify --mode sun --emit-records,
# 5:4200000), 57.8 (the same in JSONL at 1e8) and 32.3 (stats, 5:4200000).
_RESULT_BYTES_PER_Q = 64


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
    filled pieces below a bound on the largest p_q of 8 sqrt(hi) log(hi)^2
    and one piece being sieved; the measured largest p_q is a half to a
    third of the bound (4.59e6 to 1.6e7 and 2.22e7 to 2e8, about half;
    2.08e9 at 1e12, a third).  With --cache the table and the payload
    it is unpacked from come once, since forked workers share them.  With
    keep_arrays (records or a fold) and a pool, the parent holds the one
    result it is reading, _RESULT_BYTES_PER_Q a q; with records, it formats
    them one chunk at a time, _RECORD_ROW_BYTES a row.
    """
    span = min(args.shard_size, hi - lo + 1)
    processes = min(args.workers, -(-(hi - lo + 1) // args.shard_size))  # shards
    p_bound = min(hi, 8 * math.isqrt(hi) * math.ceil(math.log(max(hi, 3))) ** 2)
    filled = -(-(p_bound // 2 + 1) // _PIECE) * _PIECE
    total = (_SHARD_BYTES_PER_Q * _q_bound(mode, span) + span // 2 + filled + _PIECE) * processes
    if args.cache:
        total += _cache_load_bytes(args.cache)
    if keep_arrays and processes > 1:
        total += _RESULT_BYTES_PER_Q * _q_bound(mode, span)
    if args.emit_records:
        total += _RECORD_ROW_BYTES[args.format] * min(_RECORD_CHUNK_ROWS, _q_bound(mode, span))
    return total


_RECORD_HEADER = ["q", "p", "n", "p_over_cbrt_q", "n_over_log_q"]


class _Checkpoint:
    """Plain-text checkpoint: META line, one JSON line per completed shard,
    and a final DONE line carrying a digest of the folded summary.

    Each line is appended with fsync.  A last line without its newline is
    an append torn by a crash: shards() ignores it and the next append
    overwrites it.  No shard is kept: shards() reads one line at a time,
    and the engine folds each shard as it arrives."""

    def __init__(self, path: str):
        self.path = path
        self.done_hash: str | None = None
        self.size = 0  # bytes of complete lines; 0 until a META line

    def shards(self, meta: dict):
        """Yield (summary, records_bytes) for each complete SHARD line, in
        file order.  The META line must come first and equal meta; a DONE
        line sets done_hash."""
        if not os.path.exists(self.path):
            return
        import json
        with open(self.path, "rb") as fh:
            for number, raw in enumerate(fh, 1):
                if not raw.endswith(b"\n"):
                    return  # a torn append
                kind, _, payload = raw.decode("utf-8").strip().partition(" ")
                if kind == "META" and not self.size:
                    if json.loads(payload) != meta:
                        raise ValueError(
                            f"checkpoint {self.path} was created with different parameters"
                        )
                elif kind == "SHARD" and self.size:
                    yield self._shard(payload, number)
                elif kind == "DONE" and self.size:
                    self.done_hash = payload.strip()
                else:
                    raise ValueError(f"{self.path}: unexpected checkpoint line {number} ({kind!r})")
                self.size += len(raw)

    def _shard(self, payload: str, number: int) -> tuple[ShardSummary, int]:
        import json
        try:
            entry = json.loads(payload)
            summary = ShardSummary.from_json_dict(entry["summary"])
            records_bytes = entry["records_bytes"]
            if type(records_bytes) is not int or records_bytes < 0:
                raise ValueError(f"records_bytes {records_bytes!r}")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"checkpoint {self.path}: bad SHARD line {number}: {exc!r}") from exc
        return summary, records_bytes

    def append(self, kind: str, payload: str) -> None:
        """Write one line after the complete ones, over any torn line, and fsync it."""
        data = f"{kind} {payload}\n".encode("utf-8")
        with open(self.path, "r+b" if self.size else "wb") as fh:
            fh.truncate(self.size)
            fh.seek(self.size)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        self.size += len(data)


def _summary_row(mode: Mode, total: ShardSummary) -> dict:
    """The verify report's one row; its keys, in order, are the header."""
    return {
        "mode": mode.value,
        "lo": total.lo,
        "hi": total.hi,
        "checked": total.checked,
        "represented": total.represented,
        "failures": len(total.failures),
        "failure_list": total.failures[:32],
        "min_p_over_cbrt_q": total.min_ratio,
        "min_p_over_cbrt_q_at": total.min_ratio_q,
        "max_n_over_log_q": total.max_nlog,
        "max_n_over_log_q_at": total.max_nlog_q,
        "dichotomy_violations": total.dichotomy_violations,
        "same_n_order_violations": total.same_n_order_violations,
        "sqrt_bound_violations": total.sqrt_bound_violations,
    }


def _sorted_json(obj) -> str:
    """obj as JSON with sorted keys: a META or SHARD line's payload, and what
    the DONE digest hashes."""
    import json
    return json.dumps(obj, sort_keys=True)


def _summary_digest(total: ShardSummary) -> str:
    import hashlib
    return hashlib.sha256(_sorted_json(total.to_json_dict()).encode()).hexdigest()[:16]


def _run_sharded_verify(args, mode: Mode, lo: int, hi: int, fold=None, fold_bytes: int = 0):
    """Shared engine of verify, stats and density: returns the summary of
    [lo, hi] or raises.  A run cut short, by Ctrl-C or a crash, leaves a
    checkpoint that a rerun of the same command resumes to identical bytes.

    Shards are processed in ascending range order; with workers > 1 the
    pool computes them concurrently but folding still happens in order,
    so the result is identical for every worker count.  Each shard, read
    from the checkpoint or computed, is folded into one running summary as
    it arrives, so the parent holds one shard digest at a time however
    many shards the range has.  fold(qs, ps, ns) is called with each
    computed shard's representations, in range order, and may keep up to
    fold_bytes until the run ends.  Without --cache no whole-range table
    exists: each shard sieves its own q-range.
    """
    keep_arrays = fold is not None or bool(args.emit_records)
    _check_memory(_verify_memory(args, mode, lo, hi, keep_arrays) + fold_bytes,
                  f"verify over {lo}:{hi}")
    # loaded once a run, so forked workers inherit it, and counted by
    # _verify_memory; the floor of 7 is part of the exit-code contract: a
    # cache below 7 exits 2
    table = _load_cache(args.cache, max(hi, 7)) if args.cache else None
    bounds = _shard_bounds(lo, hi, args.shard_size)

    checkpoint = _Checkpoint(args.checkpoint) if args.checkpoint else None
    meta = {
        "mode": mode.value,
        "lo": lo,
        "hi": hi,
        "shard_size": args.shard_size,
        "include_small": bool(args.include_small),
        "emit_records": bool(args.emit_records),
        "format": args.format,
    }
    total = ShardSummary(lo=lo, hi=lo - 1)
    folded = 0  # shards read back from the checkpoint
    resume_bytes = None  # records bytes of the last shard read from the checkpoint
    if checkpoint is not None:
        for summary, resume_bytes in checkpoint.shards(meta):
            if folded == len(bounds):
                raise ValueError(f"checkpoint {args.checkpoint} has more shards than the run")
            if (summary.lo, summary.hi) != bounds[folded]:
                raise ValueError(f"checkpoint shard {summary.lo} misaligned")
            total.merge(summary)
            folded += 1

    complete = checkpoint is not None and checkpoint.done_hash is not None
    if complete:
        # a complete checkpoint must still fold to the digest it recorded
        if folded != len(bounds) or checkpoint.done_hash != _summary_digest(total):
            raise ValueError(
                f"checkpoint {args.checkpoint} shards do not match its DONE digest"
            )
        # nothing is left to write, so the records file is only checked, never opened
        if args.emit_records and os.path.getsize(args.emit_records) != resume_bytes:
            raise ValueError(
                f"records file {args.emit_records} has {os.path.getsize(args.emit_records)} "
                f"bytes, complete checkpoint expects {resume_bytes}"
            )

    # _run_shard is looked up here, so a wrapper set on cli runs in every shard
    run = functools.partial(_run_shard, mode, table, bool(args.include_small), keep_arrays)
    records = (_Sink(args.emit_records, _RECORD_HEADER, args.format, resume_bytes)
               if args.emit_records and not complete else contextlib.nullcontext())
    with records as sink:  # None without records
        if checkpoint is not None and not checkpoint.size:
            checkpoint.append("META", _sorted_json(meta))
        with _shard_results(run, bounds[folded:], args.workers) as results:
            for summary, shard_arrays in results:
                if sink is not None:
                    sink.columns([*shard_arrays, *_growth_ratios(*shard_arrays)])
                if fold is not None:
                    fold(*shard_arrays)
                if checkpoint is not None:
                    records_bytes = sink.sync() if sink is not None else 0
                    entry = {"summary": summary.to_json_dict(), "records_bytes": records_bytes}
                    checkpoint.append("SHARD", _sorted_json(entry))
                total.merge(summary)
                # free this shard's digest and arrays before the next one arrives
                del summary, shard_arrays

    if checkpoint is not None and checkpoint.done_hash is None:
        checkpoint.append("DONE", _summary_digest(total))
    return total


def _cmd_verify(args) -> int:
    lo, hi = args.range
    mode = Mode(args.mode)
    if hi < 5 and not args.include_small:
        raise ValueError(
            f"no admissible q in range {lo}:{hi} (q >= 5 needed; "
            "use --include-small to count small q as failures)"
        )
    total = _run_sharded_verify(args, mode, lo, hi)
    row = _summary_row(mode, total)
    _write_rows(args.out, list(row), args.format, [row])
    return EXIT_MATH_FAILURE if total.failures else EXIT_OK


# Bytes a growth row takes while stats holds it, six 8-byte column values,
# and bytes a shard's part of the rows takes beyond them: six array headers
# and their list, up to twice over where a view drops the part's first row
# (tracemalloc reads 833 and 1,569).
_GROWTH_ROW_BYTES = 48
_GROWTH_PART_BYTES = 1600

# How a bucket that spans two shards joins the columns after q_bucket.
_GROWTH_JOINS = (np.add, np.maximum, np.minimum, np.minimum, np.maximum)


def _cmd_stats(args) -> int:
    lo, hi = args.range
    parts = []  # each shard's growth columns, in ascending bucket order

    def fold(qs, ps, ns):
        if len(qs) == 0:
            return
        part = growth_columns(qs, ps, ns, args.bucket)
        if parts and parts[-1][0][-1] == part[0][0]:  # a bucket across shards
            for held, new, join in zip(parts[-1][1:], part[1:], _GROWTH_JOINS):
                held[-1] = join(held[-1], new[0])
            part = [col[1:] for col in part]
        if len(part[0]):
            parts.append(part)

    # every shard runs, and each bucket holding a representation keeps its row to the end
    buckets = min(hi // args.bucket - lo // args.bucket + 1, _q_bound(Mode.TWIN_MIN, hi - lo + 1))
    shards = -(-(hi - lo + 1) // args.shard_size)
    held = _GROWTH_ROW_BYTES * buckets + _GROWTH_PART_BYTES * min(buckets, shards)
    total = _run_sharded_verify(args, Mode.TWIN_MIN, lo, hi, fold, held)
    if not parts:
        raise ValueError("no representations found in range")
    header = ["q_bucket", "count", "max_n", "min_p", "min_p_over_cbrt_q", "max_n_over_log_q"]
    with _Sink(args.out, header, args.format) as sink:
        for part in parts:
            sink.columns(part)
    return EXIT_MATH_FAILURE if total.failures else EXIT_OK


# Bytes a prime p <= pmax that sigma holds beyond its prime table and a row's
# gather: the int64 primes and their list, and one grid row's p mod q and its
# brute and closed values.  tracemalloc reads 81-89 at qmax 2 (pmax 2e5 to
# 5e6), where the values are small cached ints, and 174-196 at qmax 300 and
# 400, where they are not.  The gather adds 16 bytes a cell, up to _ROW_CELLS.
_SIGMA_BYTES = 192


def _cmd_sigma(args) -> int:
    from .arithmetic import is_squarefree
    from .expsum import _ROW_CELLS, _bruteforce_row, _closed_row
    if args.qmax < 1 or args.pmax < 2:
        raise ValueError(f"invalid grid qmax={args.qmax} pmax={args.pmax}")
    table = _acquire_table(args.cache, args.pmax,
                           _SIGMA_BYTES * _q_bound(Mode.ANY_PRIME, args.pmax) + 16 * _ROW_CELLS,
                           f"the sigma grid over the primes to {args.pmax}")
    # the table's primes: no row of the grid tests them again
    ps = table.primes(args.pmax).tolist()
    with _Sink(args.out, ["q", "p", "kappa", "brute", "closed", "match"], args.format) as sink:
        for q in range(1, args.qmax + 1):
            brute = _bruteforce_row(q, ps).tolist()
            closed = _closed_row(q, ps) if is_squarefree(q) else [None] * len(ps)
            for p, b, c in zip(ps, brute, closed):
                sink.row({"q": q, "p": p, "kappa": 4 * p - 1, "brute": b, "closed": c,
                          "match": None if c is None else b == c})
    return EXIT_OK


# Bytes an integer up to the cutoff that singular holds beyond its prime
# table: the mu and phi tables, kept for every row, and a row's tail terms.
# tracemalloc reads 42-44 at cutoffs 4e4 and 1e6.
_SINGULAR_BYTES = 48


def _cmd_singular(args) -> int:
    from .singular import singular_series, tail_partial
    needed = max(args.cutoff, args.pmax, 5)
    table = _acquire_table(args.cache, needed, _SINGULAR_BYTES * args.cutoff,
                           f"mu, phi tables to {args.cutoff}")
    primes = table.primes(args.pmax).tolist()
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


def _variance_memory(runs: list[tuple[int, int]], cutoff: int) -> int:
    """Bytes variance_sweep needs beyond the prime table for runs with
    0 <= y <= x^2 (larger y are rejected before any table is built)."""
    from .singular import singular_series_many_scratch
    # the von Mangoldt units, 8 bytes an odd integer up to x^2 + x + p for the
    # largest p <= (y + 1) // 4 of each run holding an odd p (y >= 11), with
    # the bool table and the int64 primes it sieves to that limit, and the
    # psi kernel's two limb accumulators and two cell buffers, one 8-byte slot
    # each an odd p of the widest run
    top = max((x * x + x + (y + 1) // 4 for x, y in runs if y >= 11), default=0)
    p_top = max((y + 1) // 4 for _, y in runs)
    lam = 4 * (top + 1) + (top + 1) // 2 + 8 * _q_bound(Mode.ANY_PRIME, top)
    psi = 32 * _q_bound(Mode.ANY_PRIME, p_top)
    # singular_series_many over the kappa = 4p - 1, one a prime p <= (y + 1) // 4
    kernel = singular_series_many_scratch(_q_bound(Mode.ANY_PRIME, p_top), cutoff)
    # the table's int64 primes, cached to the larger of the cutoff and p_top:
    # 16 bytes a prime under tracemalloc while they are built
    primes = 16 * _q_bound(Mode.ANY_PRIME, max(cutoff, p_top))
    # each run's report keeps four 8-byte columns over its kappa: psi,
    # main_term, residual and residual_sq (the others are views)
    kept = sum(32 * _q_bound(Mode.ANY_PRIME, (y + 1) // 4) for _, y in runs)
    return lam + psi + kernel + primes + kept


def _cmd_variance(args) -> int:
    from .asymptotic import VarianceTerms, variance_sweep
    xs = args.x
    if args.emit_records and len(xs) != 1:
        raise ValueError("--emit-records needs a single --x value")
    runs = [(x, args.y if args.y is not None else x * x) for x in xs]
    # size the tables for 0 <= y <= x^2 only: the sweep rejects a run outside
    # that region before any output exists, and no table is built for it
    clamped = [(x, min(max(y, 0), x * x)) for x, y in runs]
    needed = max(max(args.cutoff, (y + 1) // 4, math.isqrt(y) + 1) for _, y in clamped)
    top = max((x * x + x + (y + 1) // 4 for x, y in clamped if y >= 11), default=0)
    table = _acquire_table(args.cache, needed, _variance_memory(clamped, args.cutoff),
                           f"a von Mangoldt table to {top}, the singular series to "
                           f"{args.cutoff} and the terms of {len(runs)} runs")
    reports = variance_sweep(runs, args.cutoff, table, baier_zhao=args.baier_zhao)
    header = ["x", "y", "cutoff", "term_count", "lhs", "ratio"]
    _write_rows(args.out, header, args.format, [vars(report) for report in reports])
    if args.emit_records:
        (report,) = reports  # a single --x
        with _Sink(args.emit_records, list(VarianceTerms._fields), args.format) as sink:
            sink.columns(list(report.terms))
    return EXIT_OK


def _cmd_density(args) -> int:
    """Representability of every prime q <= x in both modes from one sharded
    twin verify over [2, x], which counts q = 2 and q = 3 as failures.  A twin
    prime is a prime, so a q lacks a prime representation only if the pass
    fails it and q < 5 or no n in 1..n_max(q) makes q - n(n+1) prime."""
    from .arithmetic import is_prime_64
    if args.x < 2:
        raise ValueError(f"density requires x >= 2, got {args.x}")
    twin = _run_sharded_verify(args, Mode.TWIN_MIN, 2, args.x)
    exceptions = [
        q for q in twin.failures
        if q < 5 or not any(is_prime_64(q - n * (n + 1)) for n in range(1, n_max(q) + 1))
    ]
    represented = twin.checked - len(exceptions)
    row = {
        "x": args.x,
        "total_primes": twin.checked,
        "representable_any_prime": represented,
        "representable_twin": twin.represented,
        "density_any_prime": represented / twin.checked,
        "exceptions_any_prime": exceptions[:32],
        "exceptions_twin": twin.failures[:32],
    }
    _write_rows(args.out, list(row), args.format, [row])
    return EXIT_OK


# Bytes a prime p <= y that the mirsky census holds beyond its prime table:
# the int64 primes, 4p - 1 and the mask.  tracemalloc reads 20.3 at y = 1e7.
_CENSUS_BYTES = 24


def _cmd_mirsky(args) -> int:
    needed = max(args.y, math.isqrt(4 * args.y) + 1, 2)
    # and one segment of the squarefree sieve's marks
    census = _CENSUS_BYTES * _q_bound(Mode.ANY_PRIME, args.y) + _SQUAREFREE_SEGMENT
    table = _acquire_table(args.cache, needed, census, f"the squarefree census to {args.y}")
    count, total = squarefree_kappa_census(table, args.y)
    row = {
        "y": args.y,
        "s_y": count,
        "pi_y": total,
        "fraction": count / total if total else 0.0,
    }
    _write_rows(args.out, list(row), args.format, [row])
    return EXIT_OK


def _cmd_sieve_cache(args) -> int:
    table = _acquire_table(None, args.limit)
    save_prime_table(table, args.cache_out)
    row = {
        "limit": table.limit,
        "segment_size": SEGMENT_SIZE,
        "pi": prime_count(table, table.limit),
        "path": args.cache_out,
    }
    _write_rows(args.out, list(row), args.format, [row])
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


def _add_shard_flags(sub) -> None:
    """The range, sharding and pool flags of verify and stats; --workers
    defaults to the CPUs this process may run on, not every CPU of the machine."""
    sub.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI")
    sub.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sub.add_argument("--workers", type=int, default=cpus or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinrep",
        description="Representations q = p + n^2 + n: verification and numerics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify representability over a q-range")
    p.add_argument("--mode", choices=("twin", "prime", "sun"), required=True)
    _add_shard_flags(p)
    p.add_argument("--include-small", action="store_true",
                   help="count q in {2,3} (no admissible n) as failures")
    p.add_argument("--emit-records", default=None, metavar="PATH",
                   help="stream per-q records to PATH ('-': stdout)")
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resumable runs")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="bucketed growth statistics of the minimal twin map")
    p.add_argument("--bucket", type=int, required=True)
    _add_shard_flags(p)
    _add_output_flags(p)
    # verify alone emits records and resumes: a checkpoint keeps no growth rows
    p.set_defaults(func=_cmd_stats, include_small=False, emit_records=None, checkpoint=None)

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
    # one process by default; on 2 vCPUs a second one made no clear difference
    # at --x 5000000 (medians 0.239 and 0.229 s) and saved 16% at 5e7 (0.833 s
    # and 0.696 s)
    p.add_argument("--workers", type=int, default=1)
    _add_output_flags(p)
    # the verify engine's other settings, fixed
    p.set_defaults(func=_cmd_density, include_small=True, shard_size=DEFAULT_SHARD_SIZE,
                   checkpoint=None, emit_records=None)

    p = sub.add_parser("mirsky", help="squarefree 4p-1 census (s(y), pi(y))")
    p.add_argument("--y", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_mirsky)

    # no abbreviations here: "--cache" must not silently stand for "--cache-out"
    p = sub.add_parser("sieve-cache", help="build and cache a prime table", allow_abbrev=False)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--cache-out", required=True, metavar="PATH")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sieve_cache)

    for name, p in sub.choices.items():
        if name != "sieve-cache":  # every other subcommand reads primes via _acquire_table
            p.add_argument("--cache", default=None, help="binary prime-table cache to load")
    return parser


def _check_paths(args) -> None:
    """ValueError where two path flags name one file, or '-' names a file that
    is not stdout's.  Only regular files and paths not yet made are compared,
    so /dev/null may be named twice, as may '-' (stdout) by --out and --emit-records."""
    seen = {}  # a file's device and inode, os.path.samefile's test, or a new path's realpath
    for name in ("out", "emit_records", "checkpoint", "cache", "cache_out"):
        path, flag = getattr(args, name, None), "--" + name.replace("_", "-")
        if path == "-" and name not in ("out", "emit_records"):
            raise ValueError(f"{flag} needs a file path, not '-'")
        if path in (None, "-") or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        stat = os.stat(path) if os.path.exists(path) else None
        key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {flag} name one file, {path}")
        seen[key] = flag


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # bounds no library call enforces, checked before any table or file exists
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        lo, hi = getattr(args, "range", (1, 1))
        if lo < 1 or hi < lo:
            raise ValueError(f"bad range {lo}:{hi}")
        if hi > MAX_Q:
            raise ValueError(f"range end {hi} exceeds the highest supported q, 2^61")
        if args.subcommand == "density" and args.x > MAX_Q:
            raise ValueError(f"--x {args.x} exceeds the highest supported q, 2^61")
        if getattr(args, "cutoff", 3) < 3:
            raise ValueError(f"cutoff must be >= 3, got {args.cutoff}")
        if args.subcommand == "singular" and args.cutoff < 4:
            # the tail_partial column needs Q1 = max(3, cutoff // 10) < cutoff
            raise ValueError(f"singular needs cutoff >= 4 for its tail, got {args.cutoff}")
        if getattr(args, "shard_size", 1) < 1:
            raise ValueError("shard-size must be positive")
        if getattr(args, "checkpoint", None) and args.emit_records == "-":
            raise ValueError("cannot resume records emitted to stdout; use a file path")
        if args.subcommand == "mirsky" and args.y < 0:
            raise ValueError(f"--y must be >= 0, got {args.y}")
        if getattr(args, "bucket", 1) < 1:
            raise ValueError(f"bucket must be positive, got {args.bucket}")
        _check_paths(args)
        return args.func(args)
    except (ValueError, CoverageError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:  # a path that is a directory, a full disk, ...
        resource = exc.errno in (errno.ENOSPC, errno.EDQUOT, errno.ENOMEM, errno.EAGAIN)
        print(f"{'resource failure' if resource else 'error'}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if resource else EXIT_BAD_INPUT
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        resume = f": rerun the same command to resume from {checkpoint}" if checkpoint else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED


def run() -> None:
    """The entry point of ``twinrep`` and ``python -m twinrep.cli``: main(),
    then os._exit, which skips the interpreter's teardown (about 20 ms, mostly
    a final collection over numpy's import-time objects).  It has nothing to
    do: main() has closed every file it wrote and joined every worker, and no
    thread runs.  A flush that fails is not reported again: every stdout
    sink flushes as it closes, so main() has already turned a stdout whose
    reader has gone into exit 2.  In-process callers call main(), which
    returns the exit code."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's errors and --help, already printed
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the process started with that fd closed
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
