"""twinrep benchmark: closed-loop CLI workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload twin-verify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, every metric
    python3 perfbench/run.py --smoke               # self-test on tiny inputs

One run prepares the workload's inputs from ``--seed`` (untimed), then
repeats passes until ``--seconds`` are used up; the interquartile mean drops
the slow first pass of a fresh checkout with the other outliers.  An
untraced pass times the calibration task (calibrate.py), a ``setup_s`` probe
(setup_probe.py), the workload's ``twinrep`` invocations and the calibration
task again, and checks the invocations' outputs.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes (tracer.py) and reports
the per-layer metrics, the tracing overhead among them.  Human-readable
lines come first; the last line of stdout is one JSON object.  Work files go
to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
INVOCATION_LIMIT_S = 120  # a process still running after this is killed and counted failed
# Time figures are reported in reference seconds: each pass's raw seconds
# scaled by CALIBRATION_REF_S / (the mean calibration time at the start and
# the end of the pass).  CALIBRATION_REF_S is a round figure near the calibration task's time
# on the reference VM (2-vCPU Xeon, 0.35-0.55 s observed), so reference and
# raw seconds are comparable.
CALIBRATION_REF_S = 0.45
# smoke: unaccounted traced time may be this share of the wall plus this much per invocation
ACCOUNT_SHARE, ACCOUNT_PER_INVOCATION = 0.05, 0.06

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
# reported by name next to the gated metrics, where the workload defines them
EXTRA_UNITS = {"q_per_s": "1/s", "terms_per_s": "1/s", "sigma_cells_per_s": "1/s",
               "scaling_eff": "ratio", "fail_ratio": "ratio", "raw_wall_s": "s",
               "raw_setup_s": "s", "calibration_s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_mb", "MB"), ("_kb", "KB"),
                         ("ns_per_step", "ns"), ("_util", "ratio"), ("hit_ratio", "ratio"),
                         ("accounted", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run argv to completion.

    Returns the exit code, the wall seconds, the peak RSS in MB of the process
    and the children it reaped (forked workers included) and the wall-clock
    time it was spawned.
    """
    with open(log, "wb") as err:
        spawned_at = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, spawned_at


def run_cli(args: list[str], work: Path, label: str) -> int:
    return spawn([sys.executable, "-m", "twinrep.cli", *args], work / f"{label}.err")[0]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_meta() -> dict:
    """Machine and toolchain facts printed with every result."""
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")), "?")
    llc = "?"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            llc = (index / "size").read_text().strip()
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "llc": llc,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.wl = WORKLOADS[name](seed, smoke)
        self.use_digests = seed == 0 and not smoke
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.wl.prepare(self.work, lambda args: run_cli(args, self.work, "prepare"))
        self.invocations = self.wl.invocations(self.work)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup_s(self) -> float:
        plan = json.dumps(self.wl.setup_plan(self.work))
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), plan], cwd=ROOT,
                             env=child_env(), capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        return json.loads(out.stdout)["setup_s"]

    def calibration_s(self) -> float:
        code, wall, _, _ = spawn([sys.executable, str(HERE / "calibrate.py")],
                                 self.work / "calibrate.err")
        if code != 0:
            raise RuntimeError(f"calibration task exited {code}")
        return wall

    def digests(self) -> dict[str, str]:
        return {name: sha256(path) for inv in self.invocations for name, path in inv.outputs.items()}

    def run_pass(self, traced: bool) -> dict | None:
        """One pass; returns its metrics, or None when it failed its checks."""
        walls, peak, codes, traces = {}, 0.0, {}, []
        if not traced:
            calibration_before = self.calibration_s()
            setup_s = self.setup_s()
        for inv in self.invocations:
            for path in inv.outputs.values():
                path.unlink(missing_ok=True)
            if traced:
                trace = self.work / f"trace-{inv.label}.json"
                for old in self.work.glob(trace.name + "*"):
                    old.unlink()
                argv = [sys.executable, str(HERE / "tracer.py"), str(trace), "--", *inv.args]
            else:
                argv = [sys.executable, "-m", "twinrep.cli", *inv.args]
            codes[inv.label], walls[inv.label], rss, spawned_at = spawn(
                argv, self.work / f"{inv.label}.err")
            peak = max(peak, rss)
            if traced:
                traces.append((trace, inv.args, spawned_at, walls[inv.label]))
        if not traced:  # bracket the pass: the mean of both ends tracks the host's speed
            calibration_s = (calibration_before + self.calibration_s()) / 2
        self.attempted += len(self.invocations)
        problems = [f"{label} exited {code}: "
                    + (self.work / f"{label}.err").read_text(errors="replace").strip()[-500:]
                    for label, code in codes.items() if code != 0]
        if not problems:
            try:
                problems = self.wl.check(self.work)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"output check raised {exc!r}"]
        if not problems and self.use_digests:
            want = json.loads(DIGESTS.read_text()).get(self.wl.name, {})
            problems = [f"{name} digest {got[:12]} != recorded {want.get(name, '?')[:12]}"
                        for name, got in self.digests().items() if want.get(name) != got]
        if problems:
            self.failed += len(self.invocations)
            self.problems += problems
            return None
        if traced:
            return layer_metrics(traces)
        return {"wall_s": sum(walls.values()), "peak_rss_mb": peak, "walls": walls,
                "calibration_s": calibration_s, "setup_s": setup_s}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples (all of them when fewer than four)."""
    ordered, cut = sorted(values), len(values) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def spread(values: list[float]) -> str:
    """Median, then the highest percentile with ten samples beyond it (else the maximum)."""
    n, ordered = len(values), sorted(values)
    top = f"max {ordered[-1]:.6g}" if n < 20 else f"p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"
    return f"median {statistics.median(values):.6g}, {top}, n={n}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    run = Run(name, seed, smoke)
    kinds = (False, True) if trace else (False,)
    samples: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for traced in kinds:
            metrics = run.run_pass(traced)
            if metrics is not None:
                samples[traced].append(metrics)
        if smoke or time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    passes, e2e, e2e_cols = samples[False], {}, {}
    if passes:
        # Single invocations on a shared 2-vCPU VM vary by ~10%, and the whole
        # host slows by up to 2x in phases of minutes.  Each pass's times are
        # scaled by the calibration task timed at both its ends, which removes
        # the phases, and reduced over passes by the interquartile mean, which
        # moved less between runs than the median did.  Raw figures are
        # printed next to them.
        def wall(*labels: str) -> float:
            return interquartile_mean([
                sum(p["walls"][label] for label in labels or p["walls"])
                * CALIBRATION_REF_S / p["calibration_s"] for p in passes])

        setups = [p["setup_s"] for p in passes]
        e2e_cols = {"raw_wall_s": [p["wall_s"] for p in passes],
                    "raw_setup_s": setups,
                    "calibration_s": [p["calibration_s"] for p in passes],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
        e2e = {"wall_s": wall(),
               "setup_s": statistics.median(
                   [p["setup_s"] * CALIBRATION_REF_S / p["calibration_s"] for p in passes]),
               "peak_rss_mb": statistics.median(e2e_cols["peak_rss_mb"]),
               **run.wl.rates(run.work, wall),
               "raw_wall_s": interquartile_mean(e2e_cols["raw_wall_s"]),
               "raw_setup_s": statistics.median(setups),
               "calibration_s": interquartile_mean(e2e_cols["calibration_s"])}
    e2e["fail_ratio"] = run.failed / run.attempted
    layer_cols = {k: [r[k] for r in samples[True]] for k in (samples[True] or [{}])[0]}
    layers = {k: statistics.median(v) for k, v in layer_cols.items()}
    if layers and passes:
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - statistics.median(e2e_cols["raw_wall_s"]))
    return {"workload": name, "seed": seed, "params": run.wl.params,
            "invocations": len(run.invocations), "correct": run.failed == 0,
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
            "end_to_end": e2e, "end_to_end_samples": e2e_cols,
            "per_layer": layers, "per_layer_samples": layer_cols}


def print_report(result: dict, trace: bool) -> None:
    print(f"# workload {result['workload']} seed {result['seed']} params {result['params']}")
    for problem in result["problems"]:
        print(f"# FAILED CHECK: {problem}")
    units = {**END_TO_END_UNITS, **EXTRA_UNITS}
    scaled = f"reference seconds: raw x {CALIBRATION_REF_S} s / the pass's calibration time"
    notes = {"wall_s": scaled, "setup_s": scaled, "work_per_s": "per reference second",
             "raw_wall_s": "interquartile mean over passes", "raw_setup_s": "median over passes",
             "calibration_s": "interquartile mean over passes",
             "peak_rss_mb": "median over passes"}
    for name, value in result["end_to_end"].items():
        samples = result["end_to_end_samples"].get(name)
        note = "; ".join(filter(None, (notes.get(name), samples and spread(samples))))
        print(f"{name:<20} {value:>14.6g} {units[name]}" + (f"  ({note})" if note else ""))
    if trace:
        for name, value in sorted(result["per_layer"].items()):
            note = "  (computed from array sizes)" if name in ("sieve.table_mb",
                                                              "asymptotic.lambda_mb") else ""
            print(f"{name:<28} {value:>14.6g} {layer_unit(name)}{note}")


def result_line(result: dict, metric_specs: list[dict], source: str) -> dict:
    values = result[source]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metric_specs if m["name"] in values}}


def smoke(bench: dict) -> int:
    """Run every workload path on tiny inputs and check the benchmark's own contract."""
    errors = []
    for name in WORKLOADS:
        result = run_workload(name, 0, 0, trace=True, smoke=True)
        print_report(result, trace=True)
        for source, specs in (("end_to_end", bench["end_to_end"]), ("per_layer", bench["per_layer"])):
            for spec in specs:
                unit = END_TO_END_UNITS.get(spec["name"]) or layer_unit(spec["name"])
                if spec["name"] not in result[source]:
                    errors.append(f"{name}: {spec['name']} not emitted")
                elif unit != spec["unit"]:
                    errors.append(f"{name}: {spec['name']} unit {unit} != {spec['unit']}")
        if result["end_to_end"]["fail_ratio"] != 0:
            errors.append(f"{name}: fail_ratio {result['end_to_end']['fail_ratio']}")
        layers = result["per_layer"]
        if layers:
            wall = layers["trace.wall_s"]
            unaccounted = wall * (1 - layers["trace.accounted"])
            allowed = ACCOUNT_SHARE * wall + ACCOUNT_PER_INVOCATION * result["invocations"]
            if abs(unaccounted) > allowed:
                errors.append(f"{name}: layer self times leave {unaccounted:.3f} s of "
                              f"{wall:.3f} s traced wall unaccounted")
    for error in errors:
        print(f"# SMOKE FAILURE: {error}")
    print(f"# smoke: {'FAILED' if errors else 'passed'}")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test on tiny inputs")
    parser.add_argument("--write-digests", action="store_true",
                        help="record the seed-0 output digests of --workload")
    args = parser.parse_args()
    # exit through the normal path on SIGTERM, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "twinrep" / "cli.py").is_file():
        print(f"error: no twinrep sources at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    print("# meta " + json.dumps(run_meta()))
    if args.smoke:
        return smoke(bench)
    if args.workload is None:
        parser.error("--workload is required")
    if args.write_digests:
        run = Run(args.workload, 0, smoke=False)
        run.use_digests = False
        if run.run_pass(False) is None:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests[args.workload] = run.digests()
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = "per_layer" if args.trace else "end_to_end"
    lines = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        (WORK / name / "result.json").write_text(json.dumps(result, indent=1, default=str))
        print_report(result, bool(args.trace))
        line = result_line(result, specs, source)
        missing = [m["name"] for m in specs if m["name"] not in line["metrics"]]
        if missing:
            print(f"error: {name}: no clean pass produced {', '.join(missing)}", file=sys.stderr)
            return 1
        lines.append((name, line))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}:{metric}": value for name, line in lines
                        for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
