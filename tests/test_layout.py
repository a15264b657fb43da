"""Package layout: the bundled solver child loads only its own modules, a
check loads only the engine it runs, every demo runs against the package
as laid out in this checkout, and the README lists the CLI's flags."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_solver_child_imports_only_itself():
    # The child that answers every solver call parses SMT-LIB text and
    # solves it; loading the encoders, the CLI or the runner is waste, and
    # the Omega test waits for the first leaf that hands it literals.
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
        "bppcheck.refsolver.search",
        "bppcheck.sexpr",
    ]


@pytest.mark.parametrize("args, unused", [
    ([DATA / "reach.bpp"], {"acs", "eg", "oracle"}),
    ([DATA / "liveness.bpp"], {"ef", "acs", "oracle", "refsolver.omega"}),
    ([DATA / "pingpong.acs", DATA / "q0_twice.prop", "--acs"], {"eg", "oracle"}),
], ids=["ef", "eg", "acs"])
def test_check_loads_only_its_engine(args, unused):
    # Every module a check imports adds to each start, and creating a
    # dataclass costs about a millisecond, so the package uses neither.
    proc = run_fresh(
        "-c",
        "import contextlib, io, sys\n"
        "from bppcheck import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({[str(a) for a in args]!r})\n"
        "print(code, *sorted(sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code in ("0", "1")
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("bppcheck.")}
    assert loaded & unused == set()
    assert {"dataclasses", "inspect"}.isdisjoint(modules)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_fresh(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_flags_match_the_cli():
    # The README's "Flags:" paragraph names each option in backticks
    # (`-k N`, `--format text|json`); argparse's own --help is left out.
    from bppcheck.cli import build_parser

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text[text.index("\nFlags: "):].split("\n\n", 1)[0]
    spans = re.findall(r"`(-[^`]*)`", paragraph)
    documented = {span.split()[0] for span in spans}
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert documented == options - {"-h", "--help"}
