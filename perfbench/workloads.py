"""The four benchmark workloads: inputs from a seed, CLI invocations, checks.

Every workload is a closed loop with one client: each ``twinrep``
invocation is a fresh process started after the previous one exits, and no
invocation uses more than two worker processes.  Seed 0 gives the inputs
listed in perfbench/README.md; any other seed scales each size parameter by
its own factor drawn uniformly from [0.99, 1.01], so a later claim can be
rechecked on inputs no one tuned for.  The band is narrow because figures
from different seeds are pooled when the run-to-run spread is judged, and
every workload's cost grows at least linearly with its sizes.

Correctness is checked on every pass by invariants that the benchmark works
out itself (prime counts from its own sieve, row counts, byte identity across
worker counts), and for seed 0 also by the SHA-256 of every output file
against ``digests.json``.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHARD_SIZE = 1 << 20  # the CLI's default --shard-size
MILLIONTH_PRIME = 15_485_863
TWIN_DICHOTOMY_EXCEPTIONS = 11  # 2n^2 dichotomy exceptions, all below the millionth prime


def prime_flags(limit: int) -> np.ndarray:
    """flags[m] is True iff m is prime, 0 <= m <= limit (plain Eratosthenes)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def prime_pi(flags: np.ndarray, x: int) -> int:
    return int(np.count_nonzero(flags[: x + 1]))


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Invocation:
    """One twinrep CLI process of a pass."""

    label: str
    args: list[str]
    outputs: dict[str, Path]  # files the invocation writes, removed before each pass


class Workload:
    """One workload at the inputs of one seed; subclasses define the rest."""

    name: str
    why: str

    def __init__(self, seed: int, smoke: bool):
        rng = None if seed == 0 else random.Random(f"{self.name}:{seed}")
        self.params = self.make_params(rng, smoke)
        self.ref: dict = {}  # reference values worked out by prepare()

    def make_params(self, rng: random.Random | None, smoke: bool) -> dict:
        raise NotImplementedError

    def prepare(self, work: Path, run_cli) -> None:
        """Untimed preparation: reference values and input files."""

    def invocations(self, work: Path) -> list[Invocation]:
        raise NotImplementedError

    def setup_plan(self, work: Path) -> list:
        raise NotImplementedError

    def check(self, work: Path) -> list[str]:
        """Problems found in the outputs of the last pass; empty when correct."""
        raise NotImplementedError

    def rates(self, work: Path, wall) -> dict:
        """work_per_s and the workload's own rates, under its own names.

        ``wall(*labels)`` is the benchmark's statistic, over the passes of a
        run, of the summed wall time of the named invocations (all of them
        when none is named).
        """
        raise NotImplementedError


def _scaled(rng: random.Random | None, base: int) -> int:
    return base if rng is None else round(base * rng.uniform(0.99, 1.01))


class TwinVerify(Workload):
    name = "twin-verify"
    why = ("verify --mode twin, 1 then 2 workers; scan-bound headline use, "
           "serial baseline and 2-worker scaling of one problem")

    def make_params(self, rng, smoke):
        return {"hi": 300_000 if smoke else _scaled(rng, 16_000_000)}

    def prepare(self, work, run_cli):
        self.ref["pi"] = prime_pi(prime_flags(self.params["hi"]), self.params["hi"])

    def invocations(self, work):
        hi = self.params["hi"]
        return [
            Invocation(f"w{w}", ["verify", "--mode", "twin", "--range", f"5:{hi}",
                                 "--workers", str(w), "--out", str(work / f"summary-w{w}.csv")],
                       {f"summary-w{w}.csv": work / f"summary-w{w}.csv"})
            for w in (1, 2)
        ]

    def setup_plan(self, work):
        return [["build", self.params["hi"], True]]  # both invocations build this table

    def check(self, work):
        hi, problems = self.params["hi"], []
        one, two = work / "summary-w1.csv", work / "summary-w2.csv"
        if one.read_bytes() != two.read_bytes():
            problems.append("1-worker and 2-worker summaries differ")
        row = read_rows(one)[0]
        expect = {"mode": "twin", "lo": "5", "hi": str(hi), "checked": str(self.ref["pi"] - 2),
                  "represented": str(self.ref["pi"] - 2), "failures": "0",
                  "sqrt_bound_violations": "0"}
        if hi >= MILLIONTH_PRIME:
            expect["dichotomy_violations"] = str(TWIN_DICHOTOMY_EXCEPTIONS)
        problems += [f"summary {k}={row[k]}, expected {v}" for k, v in expect.items() if row[k] != v]
        return problems

    def rates(self, work, wall):
        checked = int(read_rows(work / "summary-w2.csv")[0]["checked"])
        return {"work_per_s": checked / wall("w2"), "q_per_s": checked / wall("w2"),
                "scaling_eff": wall("w1") / (2 * wall("w2"))}


class SunRecords(Workload):
    name = "sun-records"
    why = ("verify --mode sun from a table cache with checkpoint and per-q records; "
           "the record writer dominates, primes() is bypassed")

    def make_params(self, rng, smoke):
        return {"hi": 100_001 if smoke else _scaled(rng, 1_000_001)}

    def prepare(self, work, run_cli):
        hi = self.params["hi"]
        self.ref["flags"] = prime_flags(hi)
        self.ref["odd_q"] = (hi - 5) // 2 + 1
        code = run_cli(["sieve-cache", "--limit", str(hi), "--cache-out", str(work / "primes.bin"),
                        "--out", str(work / "cache.csv")])
        if code != 0:
            raise RuntimeError(f"sieve-cache exited {code}")

    def invocations(self, work):
        hi = self.params["hi"]
        return [Invocation("sun", [
            "verify", "--mode", "sun", "--range", f"5:{hi}", "--workers", "1",
            "--cache", str(work / "primes.bin"), "--checkpoint", str(work / "sun.ck"),
            "--emit-records", str(work / "records.csv"), "--out", str(work / "summary.csv")],
            {name: work / name for name in ("summary.csv", "sun.ck", "records.csv")})]

    def setup_plan(self, work):
        return [["load", str(work / "primes.bin")]]

    def check(self, work):
        hi, problems = self.params["hi"], []
        row = read_rows(work / "summary.csv")[0]
        expect = {"mode": "sun", "hi": str(hi), "checked": str(self.ref["odd_q"]),
                  "represented": str(self.ref["odd_q"]), "failures": "0"}
        problems += [f"summary {k}={row[k]}, expected {v}" for k, v in expect.items() if row[k] != v]
        lines = (work / "sun.ck").read_text(encoding="utf-8").splitlines()
        shards = -(-(hi - 4) // SHARD_SIZE)
        if not (lines[0].startswith("META ") and lines[-1].startswith("DONE ")
                and sum(l.startswith("SHARD ") for l in lines) == shards):
            problems.append(f"checkpoint is not META, {shards} SHARD lines, DONE")
        with open(work / "records.csv", "rb") as fh:
            header = fh.readline()
            head = [line for line in (fh.readline() for _ in range(1000)) if line]
            rows = len(head) + sum(1 for _ in fh)
        if header != b"q,p,n,p_over_cbrt_q,n_over_log_q\n":
            problems.append("records header changed")
        if rows != self.ref["odd_q"]:
            problems.append(f"{rows} record rows, expected checked = {self.ref['odd_q']}")
        flags, prev = self.ref["flags"], 3
        for line in head:  # the first rows: q ascending odd from 5, p prime, q = p + n(n+1)
            q, p, n = (int(v) for v in line.split(b",")[:3])
            if q != prev + 2 or q != p + n * (n + 1) or not flags[p]:
                problems.append(f"bad record row {line!r}")
                break
            prev = q
        return problems

    def rates(self, work, wall):
        checked = int(read_rows(work / "summary.csv")[0]["checked"])
        return {"work_per_s": checked / wall("sun"), "q_per_s": checked / wall("sun")}


class VarianceSweep(Workload):
    name = "variance-sweep"
    why = ("variance at two x; the singular-series product and the psi loop dominate, "
           "no represent work")

    def make_params(self, rng, smoke):
        if smoke:
            return {"xs": (50, 100), "cutoff": 1000}
        x1 = _scaled(rng, 400)
        return {"xs": (x1, round(1.4 * x1)), "cutoff": 40_000}

    def _needed(self):
        y = self.params["xs"][-1] ** 2
        return max(self.params["cutoff"], (y + 1) // 4, math.isqrt(y) + 1)

    def prepare(self, work, run_cli):
        flags = prime_flags(self._needed())
        counts = []
        for x in self.params["xs"]:
            ps = np.flatnonzero(flags[: (x * x + 1) // 4 + 1]).astype(np.int64)
            kappas = 4 * ps - 1
            squarefree = np.ones(len(ps), dtype=bool)
            for ell in np.flatnonzero(flags[: math.isqrt(x * x) + 1]):
                squarefree &= kappas % (int(ell) ** 2) != 0
            counts.append(int(np.count_nonzero(squarefree)))
        self.ref["term_counts"] = counts

    def invocations(self, work):
        xs = ",".join(str(x) for x in self.params["xs"])
        return [Invocation("variance", ["variance", "--x", xs, "--cutoff", str(self.params["cutoff"]),
                                        "--out", str(work / "variance.csv")],
                           {"variance.csv": work / "variance.csv"})]

    def setup_plan(self, work):
        return [["build", self._needed(), False]]

    def check(self, work):
        rows, problems = read_rows(work / "variance.csv"), []
        got = [(int(r["x"]), int(r["y"]), int(r["term_count"])) for r in rows]
        want = [(x, x * x, c) for x, c in zip(self.params["xs"], self.ref["term_counts"])]
        if got != want:
            problems.append(f"variance rows (x, y, terms) {got}, expected {want}")
        ratios = [float(r["ratio"]) for r in rows]
        if not all(b < a for a, b in zip(ratios, ratios[1:])) or float(rows[0]["lhs"]) <= 0:
            problems.append(f"variance ratio not decreasing: {ratios}")
        return problems

    def rates(self, work, wall):
        terms = sum(int(r["term_count"]) for r in read_rows(work / "variance.csv"))
        return {"work_per_s": terms / wall("variance"), "terms_per_s": terms / wall("variance")}


class Reports(Workload):
    name = "reports"
    why = ("singular, sigma, density and mirsky reports; the only workload reaching "
           "expsum, arithmetic, scalar singular series and tails")

    def make_params(self, rng, smoke):
        if smoke:
            return {"pmax": 10, "qmax": 20, "cutoff": 2000, "density_x": 100_000, "mirsky_y": 100_000}
        return {"pmax": _scaled(rng, 60), "qmax": _scaled(rng, 300), "cutoff": 40_000,
                "density_x": _scaled(rng, 5_000_000), "mirsky_y": _scaled(rng, 1_000_000)}

    def _mirsky_limit(self):
        y = self.params["mirsky_y"]
        return max(y, math.isqrt(4 * y) + 1)

    def prepare(self, work, run_cli):
        p = self.params
        flags = prime_flags(max(p["density_x"], self._mirsky_limit(), p["cutoff"]))
        self.ref.update(
            pi_pmax=prime_pi(flags, p["pmax"]), pi_x=prime_pi(flags, p["density_x"]),
            pi_y=prime_pi(flags, p["mirsky_y"]),
            top_ell=int(np.flatnonzero(flags[: p["cutoff"] + 1])[-1]),
        )

    def invocations(self, work):
        p = self.params
        runs = [
            ("singular", ["--pmax", p["pmax"], "--cutoff", p["cutoff"]]),
            ("sigma", ["--qmax", p["qmax"], "--pmax", p["pmax"]]),
            ("density", ["--x", p["density_x"]]),
            ("mirsky", ["--y", p["mirsky_y"]]),
        ]
        return [Invocation(cmd, [cmd, *map(str, args), "--out", str(work / f"{cmd}.csv")],
                           {f"{cmd}.csv": work / f"{cmd}.csv"}) for cmd, args in runs]

    def setup_plan(self, work):
        p = self.params
        return [["build", max(p["pmax"], 2), False], ["build", max(p["cutoff"], 5), False],
                ["build", max(p["density_x"], 7), True], ["build", self._mirsky_limit(), False]]

    def check(self, work):
        p, ref, problems = self.params, self.ref, []
        singular = read_rows(work / "singular.csv")
        if len(singular) != ref["pi_pmax"] or any(
                float(r["value"]) <= 0 or int(r["cutoff"]) != ref["top_ell"] for r in singular):
            problems.append("singular report rows wrong")
        sigma = read_rows(work / "sigma.csv")
        if len(sigma) != p["qmax"] * ref["pi_pmax"]:
            problems.append(f"sigma grid has {len(sigma)} cells")
        if any(int(r["q"]) % 2 and r["closed"] and r["match"] != "true" for r in sigma):
            problems.append("sigma closed form disagrees with brute force at odd squarefree q")
        density = read_rows(work / "density.csv")[0]
        if int(density["total_primes"]) != ref["pi_x"] or not density["exceptions_twin"].startswith("2;3"):
            problems.append(f"density row {density}")
        mirsky = read_rows(work / "mirsky.csv")[0]
        if int(mirsky["pi_y"]) != ref["pi_y"] or not 0 < int(mirsky["s_y"]) <= ref["pi_y"]:
            problems.append(f"mirsky row {mirsky}")
        return problems

    def rates(self, work, wall):
        cells = self.params["qmax"] * self.ref["pi_pmax"]
        return {"work_per_s": len(self.invocations(work)) / wall(),
                "sigma_cells_per_s": cells / wall("sigma")}


WORKLOADS = {cls.name: cls for cls in (TwinVerify, SunRecords, VarianceSweep, Reports)}
