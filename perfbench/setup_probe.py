"""Set-up probe: time import plus prime-table acquisition in a fresh process.

    python3 perfbench/setup_probe.py '<plan as JSON>'

The plan is a list of steps, one per distinct table the workload's invocations acquire:
``["build", limit, twins]`` sieves [2, limit] (and builds the twin index when
``twins`` is true), ``["load", path]`` reads a binary table cache.  The probe
prints ``{"setup_s": ...}``: the seconds from its first statement, before
``import twinrep.cli``, to the last table, so interpreter start-up is excluded.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(plan: list) -> int:
    sys.path.insert(0, str(SRC))
    import twinrep
    import twinrep.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from twinrep.sieve import build_prime_table, build_twin_index, load_prime_table

    if Path(twinrep.__file__).resolve().parent != SRC / "twinrep":
        print(f"error: twinrep imported from {twinrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for step in plan:
        if step[0] == "build":
            table = build_prime_table(step[1])
            if step[2]:
                build_twin_index(table)
        else:
            load_prime_table(step[1])
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
