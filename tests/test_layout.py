"""Package layout: the bundled solver child loads only its own modules, and
every demo runs against the package as laid out in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_solver_child_imports_only_itself():
    # The child that answers every solver call parses SMT-LIB text and
    # solves it; loading the encoders, the CLI or the runner is waste.
    proc = run_fresh(
        "-c",
        "import sys, bppcheck.refsolver\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'bppcheck'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "bppcheck",
        "bppcheck.errors",
        "bppcheck.refsolver",
        "bppcheck.refsolver.omega",
        "bppcheck.sexpr",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_fresh(str(demo))
    assert proc.returncode == 0, proc.stderr
