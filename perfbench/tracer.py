"""Outside-in span tracer for one twinrep CLI invocation.

Run as a child process from the root of a checkout:

    python3 perfbench/tracer.py OUT.json -- verify --mode twin --range 5:300000

It imports twinrep from ``src/``, replaces the library functions that
``twinrep.cli``, ``twinrep.asymptotic``, ``twinrep.singular`` and
``twinrep.expsum`` import (plus ``PrimeTable.primes``,
``ShardSummary.absorb_block`` and the module-level helpers the numerics call
by name) with timing wrappers, and runs ``twinrep.cli.main``.  Nothing in the
library changes on disk; the wrappers live only in this process and in the
pool workers it forks.

Each wrapper keeps a span stack so every call's self time (its duration minus
the part its wrapped callees cover) is charged to one ``layer.function`` key.
Only per-key aggregates (calls, total, self) are kept, which keeps the
overhead per call small even for the ~10^6 Jacobi symbols of the reports
workload.  Forked pool workers reset the tracer at fork and rewrite their own
aggregates to ``OUT.json.worker-<pid>`` after every shard, because the pool
terminates its workers without running exit handlers.
"""

from __future__ import annotations

import time

STARTED_AT = time.time()  # wall clock at interpreter hand-over, before any import

import functools
import inspect
import json
import multiprocessing.pool
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# modules whose imported library names are wrapped
WRAPPED_MODULES = ("cli", "asymptotic", "singular", "expsum")


def n_max_exact(qs):
    """Largest n with n(n+1) <= q - 3, exactly, for an int64 array of q >= 5.

    (2n+1)^2 <= 4(q-3)+1, so n = (isqrt(4(q-3)+1) - 1) // 2; the float
    square root is corrected by one in either direction to make isqrt exact.
    """
    v = 4 * (qs - 3) + 1
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= v, r + 1, r)
    r = np.where(r * r > v, r - 1, r)
    return (r - 1) >> 1


class Tracer:
    """Span aggregates, counters and byte figures for one process."""

    def __init__(self, out_path: str):
        self.out_path = out_path
        self.role = "main"
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.spans: dict[str, list[float]] = {}  # key -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.depth_hist: list[int] = []
        self.table_arrays: dict[int, int] = {}  # id -> nbytes of sieve-layer arrays
        self.lambda_bytes = 0
        self.pool_start: float | None = None

    def after_fork_in_child(self) -> None:
        self.role = "worker"
        self.reset()

    # -- spans -------------------------------------------------------------

    def _close(self, key: str, start: float, child: float) -> float:
        dur = time.perf_counter() - start
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        return dur

    def wrap(self, fn, key: str, hook=None, pre=None):
        """Timing wrapper for fn; hook(result, args) runs as a trace.hook span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self._close(key, frame[0], frame[1])
            if hook is not None:
                t = time.perf_counter()
                hook(result, args)
                self._close("trace.hook", t, 0.0)
            return result

        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- hooks: work counts and computed bytes -----------------------------

    def on_verify(self, report, args) -> None:
        self.count("represent.shards")
        self.count("represent.q_checked", report.checked)
        self.count("represent.q_represented", len(report.qs))
        if len(report.qs):
            depth = n_max_exact(report.qs) - report.ns + 1
            self.count("represent.scan_steps", int(depth.sum()))
            hist = np.bincount(depth)
            if len(hist) > len(self.depth_hist):
                self.depth_hist.extend([0] * (len(hist) - len(self.depth_hist)))
            for d in np.flatnonzero(hist):
                self.depth_hist[d] += int(hist[d])
        unfound = [q for q in report.failures if q >= 5]
        if unfound:  # a failed q was scanned over every n from n_max down to 1
            self.count("represent.scan_steps",
                       int(n_max_exact(np.array(unfound, dtype=np.int64)).sum()))

    def on_table(self, table, args) -> None:
        self.table_arrays[id(table.odd_bits)] = table.odd_bits.nbytes

    def on_twins(self, twins, args) -> None:
        self.table_arrays[id(twins.odd_mask)] = twins.odd_mask.nbytes
        self.table_arrays[id(twins.twins)] = twins.twins.nbytes

    def on_primes(self, primes, args) -> None:
        self.table_arrays[id(primes)] = primes.nbytes

    def pre_primes(self, args) -> None:
        if args[0]._primes is None:
            self.count("sieve.primes_builds")

    def on_many(self, values, args) -> None:
        kappas, cutoff, table = args[0], args[1], args[2]
        ells = int(np.count_nonzero(table.odd_bits[: (cutoff - 1) // 2 + 1]))
        self.count("singular.many_kappas", len(kappas))
        self.count("singular.factor_ops", len(kappas) * ells)

    def on_variance(self, report, args) -> None:
        self.count("asymptotic.psi_terms", report.term_count * report.x)

    def on_lambda(self, lam, args) -> None:
        self.lambda_bytes = max(self.lambda_bytes, lam.nbytes)

    def on_sigma(self, ev, args) -> None:
        self.count("expsum.cells")
        self.count("expsum.ramanujan_terms", ev.q)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import twinrep
        from twinrep import asymptotic, cli, represent, sieve, singular

        hooks = {
            "verify_range": self.on_verify,
            "build_prime_table": self.on_table,
            "load_prime_table": self.on_table,
            "build_twin_index": self.on_twins,
            "singular_series_many": self.on_many,
            "variance_sum": self.on_variance,
            "evaluate_sigma": self.on_sigma,
        }
        for short in WRAPPED_MODULES:
            mod = getattr(twinrep, short)
            for name, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and owner.startswith("twinrep.")
                        and owner != mod.__name__):
                    key = f"{owner.split('.')[1]}.{name}"
                    setattr(mod, name, self.wrap(obj, key, hooks.get(name)))
        cli.main = self.wrap(cli.main, "cli.main")
        # pool workers unpickle _run_shard by name, so the wrapper must keep it
        cli._run_shard = self.wrap(cli._run_shard, "cli._run_shard",
                                   self._flush_if_worker)
        asymptotic.von_mangoldt_table = self.wrap(
            asymptotic.von_mangoldt_table, "asymptotic.von_mangoldt_table", self.on_lambda)
        singular._mu_phi_cached = self.wrap(singular._mu_phi_cached, "sieve.mu_phi_tables")
        sieve.PrimeTable.primes = self.wrap(
            sieve.PrimeTable.primes, "sieve.primes", self.on_primes, self.pre_primes)
        represent.ShardSummary.absorb_block = self.wrap(
            represent.ShardSummary.absorb_block, "represent.absorb_block")
        self._install_pool_wait()
        os.register_at_fork(after_in_child=self.after_fork_in_child)

    def _install_pool_wait(self) -> None:
        """Time the parent's blocking waits for pool results as cli.worker_wait."""
        orig_next = multiprocessing.pool.IMapIterator.__next__
        tracer = self

        def __next__(it):
            if tracer.pool_start is None and it._pool is not None:
                tracer.count("cli.pool_processes", it._pool._processes)
                tracer.pool_start = time.perf_counter()
            frame = [time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                return orig_next(it)
            except StopIteration:
                tracer.count("cli.pool_window_s", time.perf_counter() - tracer.pool_start)
                tracer.pool_start = None
                raise
            finally:
                tracer.stack.pop()
                tracer._close("cli.worker_wait", frame[0], frame[1])

        multiprocessing.pool.IMapIterator.__next__ = __next__

    # -- output ------------------------------------------------------------

    def snapshot(self, **extra) -> dict:
        return {
            "role": self.role,
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": self.counts,
            "depth_hist": self.depth_hist,
            "table_bytes": sum(self.table_arrays.values()),
            "lambda_bytes": self.lambda_bytes,
            **extra,
        }

    def _flush_if_worker(self, result, args) -> None:
        if self.role == "worker":
            path = f"{self.out_path}.worker-{os.getpid()}"
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(self.snapshot(), fh)
            os.replace(path + ".tmp", path)

    def dump(self, **extra) -> None:
        with open(self.out_path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(**extra), fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

LAYERS = ("cli", "sieve", "represent", "singular", "asymptotic", "expsum", "arithmetic")


def _output_bytes(args: list[str], flag: str) -> int:
    """Size of the file the CLI wrote to the path after ``flag``, 0 without it."""
    return Path(args[args.index(flag) + 1]).stat().st_size if flag in args else 0


def _percentile(hist: list[int], q: float) -> int:
    """Smallest depth d with at least a share q of all scans ending at depth <= d."""
    total, seen = sum(hist), 0
    for depth, n in enumerate(hist):
        seen += n
        if seen >= q * total:
            return depth
    return 0


def layer_metrics(runs: list[tuple[Path, list[str], float, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``runs`` holds, per invocation, its trace file, its CLI arguments, the
    wall-clock time the benchmark spawned it and the wall time it measured.
    Self times sum over the CLI process and its forked workers.
    ``process.startup_s`` runs from the spawn to the installed tracer
    (interpreter start and imports).  ``trace.accounted`` compares start-up
    plus the CLI processes' own self times with the traced wall, so time the
    parent spends blocked on workers counts once, as ``cli.worker_wait_s``;
    the rest is interpreter shutdown.
    """
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    hist: list[int] = []
    wall = parent_self = startup_s = busy = capacity = table_mb = lambda_mb = 0.0
    records_mb = checkpoint_kb = 0.0
    for path, args, spawned_at, run_wall in runs:
        main = json.loads(path.read_text(encoding="utf-8"))
        workers = [json.loads(p.read_text(encoding="utf-8"))
                   for p in sorted(path.parent.glob(path.name + ".worker-*"))
                   if p.suffix != ".tmp"]
        wall += run_wall
        startup_s += main["ready_at"] - spawned_at
        parent_self += sum(agg[2] for agg in main["spans"].values())
        capacity += main["counts"].get("cli.pool_processes", 0) * main["counts"].get(
            "cli.pool_window_s", 0.0)
        table_mb = max(table_mb, sum(d["table_bytes"] for d in [main, *workers]) / 1e6)
        for d in (main, *workers):
            for key, agg in d["spans"].items():
                acc = spans.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += agg[i]
            for key, value in d["counts"].items():
                counts[key] = counts.get(key, 0) + value
            hist.extend([0] * (len(d["depth_hist"]) - len(hist)))
            for depth, n in enumerate(d["depth_hist"]):
                hist[depth] += n
            lambda_mb = max(lambda_mb, d["lambda_bytes"] / 1e6)
        busy += sum(w["spans"].get("cli._run_shard", [0, 0.0, 0.0])[1] for w in workers)
        records_mb += _output_bytes(args, "--emit-records") / 1e6
        checkpoint_kb += _output_bytes(args, "--checkpoint") / 1e3

    def self_s(key: str) -> float:
        return spans.get(key, [0, 0.0, 0.0])[2]

    def total_s(key: str) -> float:
        return spans.get(key, [0, 0.0, 0.0])[1]

    def layer_self(layer: str) -> float:
        return sum(agg[2] for key, agg in spans.items()
                   if key.startswith(layer + ".") and key != "cli.worker_wait")

    steps = counts.get("represent.scan_steps", 0)
    m = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS if layer != "arithmetic"}
    m.update({
        "cli.worker_wait_s": self_s("cli.worker_wait"),
        "cli.worker_busy_s": busy,
        "cli.worker_util": busy / capacity if capacity else 0.0,
        "cli.records_mb": records_mb,
        "cli.checkpoint_kb": checkpoint_kb,
        "sieve.build_s": self_s("sieve.build_prime_table"),
        "sieve.twin_index_s": self_s("sieve.build_twin_index"),
        "sieve.load_s": self_s("sieve.load_prime_table"),
        "sieve.primes_s": self_s("sieve.primes"),
        "sieve.primes_builds": counts.get("sieve.primes_builds", 0),
        "sieve.squarefree_s": self_s("sieve.squarefree_mask"),
        "sieve.mu_phi_s": self_s("sieve.mu_phi_tables"),
        "sieve.census_s": self_s("sieve.squarefree_kappa_census"),
        "sieve.table_mb": table_mb,
        "represent.verify_s": self_s("represent.verify_range"),
        "represent.absorb_s": self_s("represent.absorb_block"),
        "represent.merge_s": self_s("represent.merge_summaries"),
        "represent.scan_block_s": self_s("represent._scan_block"),
        "represent.ns_per_step": self_s("represent.verify_range") * 1e9 / steps if steps else 0.0,
        "represent.scan_steps": steps,
        "represent.hit_ratio": counts.get("represent.q_represented", 0) / steps if steps else 0.0,
        "represent.depth_p50": _percentile(hist, 0.50),
        "represent.depth_p99": _percentile(hist, 0.99),
        "represent.depth_max": len(hist) - 1 if hist else 0,
        "represent.q_checked": counts.get("represent.q_checked", 0),
        "represent.shards": counts.get("represent.shards", 0),
        "singular.many_s": self_s("singular.singular_series_many"),
        "singular.many_kappas": counts.get("singular.many_kappas", 0),
        "singular.factor_ops": counts.get("singular.factor_ops", 0),
        "singular.scalar_s": self_s("singular.singular_series"),
        "singular.tail_s": self_s("singular.tail_partial"),
        "asymptotic.variance_self_s": self_s("asymptotic.variance_sum"),
        "asymptotic.psi_terms": counts.get("asymptotic.psi_terms", 0),
        "asymptotic.lambda_s": self_s("asymptotic.von_mangoldt_table"),
        "asymptotic.lambda_mb": lambda_mb,
        "asymptotic.density_s": total_s("asymptotic.density_report"),
        "expsum.sigma_s": self_s("expsum.evaluate_sigma"),
        "expsum.cells": counts.get("expsum.cells", 0),
        "expsum.ramanujan_terms": counts.get("expsum.ramanujan_terms", 0),
        "arithmetic.s": layer_self("arithmetic"),
        "arithmetic.jacobi_calls": spans.get("arithmetic.jacobi", [0])[0],
        "process.startup_s": startup_s,
        "trace.hook_s": self_s("trace.hook"),
        "trace.wall_s": wall,
        "trace.accounted": (parent_self + startup_s) / wall,
    })
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <twinrep arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    sys.path.insert(0, str(SRC))
    import twinrep
    import twinrep.cli

    if Path(twinrep.__file__).resolve().parent != SRC / "twinrep":
        print(f"error: twinrep imported from {twinrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer(out_path)
    tracer.install()
    ready_at = time.time()
    code = twinrep.cli.main(cli_argv)
    tracer.dump(started_at=STARTED_AT, ready_at=ready_at, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
