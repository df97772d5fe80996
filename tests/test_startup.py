"""What a CLI process compiles: ``import twinrep`` loads no submodule, and
each command loads only the library modules it runs.  Each case runs in a
fresh interpreter, which first imports numpy, so whatever the interpreter's
site set-up and numpy load themselves is never counted against twinrep."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

LIBRARY = {"arithmetic", "asymptotic", "expsum", "represent", "sieve", "singular"}
HEAVY = {"hashlib", "json", "multiprocessing"}

# the child prints the modules the case loaded beyond the interpreter and numpy
CHILD = """
import sys
import numpy
before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def loaded_by(code: str, cwd) -> set[str]:
    """The library modules (short names) and HEAVY stdlib modules code loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD.format(code=code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = done.stdout.split()
    return ({n.split(".", 1)[1] for n in names if n.startswith("twinrep.")} & LIBRARY
            | set(names) & HEAVY)


def main_code(*argv: str) -> str:
    return f"from twinrep.cli import main\nassert main({list(argv)!r}) == 0"


VERIFY = ("verify", "--mode", "twin", "--range", "5:20000", "--workers", "1", "--out", "v.csv")

CASES = {  # code, and the modules it loads of LIBRARY | HEAVY
    "import twinrep": ("import twinrep", set()),
    "import twinrep.cli": ("import twinrep.cli", {"represent", "sieve"}),
    "verify": (main_code(*VERIFY), {"represent", "sieve"}),
    "verify --checkpoint": (main_code(*VERIFY, "--checkpoint", "v.ck"),
                            {"represent", "sieve", "hashlib", "json"}),
    "verify --format jsonl": (main_code(*VERIFY, "--format", "jsonl"),
                              {"represent", "sieve", "json"}),
    "sigma": (main_code("sigma", "--qmax", "6", "--pmax", "11", "--out", "s.csv"),
              {"represent", "sieve", "expsum", "arithmetic"}),
    "singular": (main_code("singular", "--pmax", "10", "--cutoff", "200", "--out", "s.csv"),
                 {"represent", "sieve", "singular", "arithmetic"}),
    "variance": (main_code("variance", "--x", "40", "--cutoff", "200", "--out", "v.csv"),
                 {"represent", "sieve", "asymptotic", "singular", "arithmetic"}),
    "density": (main_code("density", "--x", "3000", "--out", "d.csv"),
                {"represent", "sieve", "arithmetic"}),
    "mirsky": (main_code("mirsky", "--y", "3000", "--out", "m.csv"), {"represent", "sieve"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_command_loads_only_what_it_runs(tmp_path, case):
    code, expected = CASES[case]
    assert loaded_by(code, tmp_path) == expected


def test_a_public_name_loads_its_module_alone(tmp_path):
    code = "import twinrep\nassert twinrep.verify_range is twinrep.represent.verify_range"
    assert loaded_by(code, tmp_path) == {"represent", "sieve"}
