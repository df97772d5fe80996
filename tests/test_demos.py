"""Every demo script, and README's quick tour, runs to completion against
the package source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinrep

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(twinrep.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_tour_runs_and_its_comments_hold():
    # a comment after an expression starts with the value's repr, or with
    # its head where the comment has "..." for the rest
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    lines, namespace, shown = block.splitlines(), {}, 0
    body = ast.parse(block).body
    for stmt, nxt in zip(body, body[1:] + [None]):
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        following = lines[stmt.end_lineno - 1 : nxt.lineno - 1 if nxt else len(lines)]
        comment = " ".join(line.split("#", 1)[1].strip() for line in following if "#" in line)
        if "..." in comment:
            assert value.startswith(comment.split("...")[0]), (value, comment)
        elif comment:
            assert re.match(re.escape(value) + r"(?!\w)", comment), (value, comment)
        shown += bool(comment)
    assert shown == 6
