"""Package layout: the bundled solver child loads only its own modules, a
CLI run that never reaches a check loads only the CLI, a check loads only
the engines its formula's nodes need, every demo runs against the package as laid out in this
checkout, the package imports only the standard library, and the README lists the CLI's
flags."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


#: What a CLI run that stops before the pipeline may load: without a
#: bytecode cache every module it loads is compiled on each start.
CLI_ONLY = {"bppcheck", "bppcheck.__main__", "bppcheck.cli", "bppcheck.errors"}


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BPPCHECK_SOLVER", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def run_cli_fresh(*args) -> tuple[subprocess.CompletedProcess, set[str]]:
    """``python -m bppcheck`` in a fresh interpreter, and the package modules
    it imported as ``-X importtime`` lists them on stderr."""
    proc = run_fresh("-X", "importtime", "-m", "bppcheck", *map(str, args))
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, {name for name in names if name.split(".")[0] == "bppcheck"}


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


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["-k", "-1", DATA / "reach.bpp"], 3),
    ([DATA / "no-such-file.bpp"], 4),
], ids=["help", "usage-error", "missing-input"])
def test_runs_without_a_check_load_only_the_cli(args, code):
    proc, loaded = run_cli_fresh(*args)
    assert proc.returncode == code, proc.stderr
    assert "bppcheck.cli" in loaded
    assert loaded <= CLI_ONLY


def test_parse_error_loads_no_back_end(tmp_path):
    bad = tmp_path / "bad.bpp"
    bad.write_text("rules:\n  X -> \n", encoding="utf-8")
    proc, loaded = run_cli_fresh(bad)
    assert proc.returncode == 3, proc.stderr
    assert "parse error" in proc.stderr
    assert "bppcheck.parsing" in loaded
    back_end = {"bppcheck.smt", "bppcheck.sexpr", "bppcheck.ef", "bppcheck.eg",
                "bppcheck.refsolver"}
    assert loaded & back_end == set()


def test_batch_parent_loads_only_the_cli():
    # The workers check and render; the parent only prints what they return.
    proc = run_fresh(
        "-c",
        "import sys\n"
        "from bppcheck import cli\n"
        f"code = cli.main([{str(DATA / 'reach.bpp')!r}, {str(DATA / 'unreach.bpp')!r},"
        " '--jobs', '2'])\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'bppcheck'))",
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    assert report[0].endswith("reach.bpp ==") and "result: holds" in report
    assert any(line.endswith("unreach.bpp ==") for line in report)
    assert "result: not-holds" in report
    code, *modules = last.split()
    assert code == "1"
    assert set(modules) == CLI_ONLY - {"bppcheck.__main__"}


def test_bundled_solver_is_loaded_at_the_first_call():
    # A check that calls no solver never compiles the bundled one, and
    # compiling it counts in no call's wall time or deadline: it is loaded
    # inside the first call, before that call's clock starts.
    proc = run_fresh(
        "-c",
        "import contextlib, io, sys, time, types\n"
        "from bppcheck import cli, smt\n"
        "from bppcheck.smt import runner\n"
        "smt.default_solver_command = lambda: smt.BUNDLED_COMMAND\n"
        "first, real = [], runner.run_solver\n"
        "def clock():\n"
        "    if len(first) == 2:\n"
        "        first.append('bppcheck.refsolver' in sys.modules)\n"
        "    return time.perf_counter()\n"
        "runner.time = types.SimpleNamespace(perf_counter=clock)\n"
        "def spy(script, config):\n"
        "    if not first:\n"
        "        first.append(config.command == runner.BUNDLED_COMMAND)\n"
        "        first.append('bppcheck.refsolver' in sys.modules)\n"
        "    return real(script, config)\n"
        "smt.run_solver = runner.run_solver = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main([{str(DATA / 'reach.bpp')!r}])\n"
        "print(code, *first)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False", "True"]


def test_solving_time_leaves_out_loading_the_omega_test():
    # The first search leaf that hands the Omega test literals loads it. A
    # finder that makes that take 0.3 s shows the load in the call's wall
    # time and not in the solving time the solver reports as :time.
    proc = run_fresh(
        "-c",
        "import contextlib, io, json, sys, time\n"
        "class Slow:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'bppcheck.refsolver.omega':\n"
        "            time.sleep(0.3)\n"
        "sys.meta_path.insert(0, Slow())\n"
        "from bppcheck import cli, smt\n"
        "smt.default_solver_command = lambda: smt.BUNDLED_COMMAND\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main([{str(DATA / 'reach.bpp')!r}, '--format', 'json'])\n"
        "stats = json.loads(out.getvalue())['stats']\n"
        "print(code, stats['solver_omega_calls'], stats['solver_ms'], stats['solver_wall_ms'])",
    )
    assert proc.returncode == 0, proc.stderr
    code, omega_calls, solver_ms, wall_ms = proc.stdout.split()
    assert code == "0" and int(omega_calls) >= 1
    assert float(solver_ms) < 300.0 <= float(wall_ms)


#: What a check that makes a script loads: the terms and serializer its
#: encoder builds the script with, and the runner with its S-expression
#: reader at the first solver call.
BACK_END = {"smt.terms", "smt.script", "smt.runner", "sexpr"}
BUNDLED = {"refsolver", "refsolver.search", "refsolver.omega"}


@pytest.mark.parametrize("args, engines, used, unused", [
    ([DATA / "reach.bpp"], {"ef"}, BACK_END, {"acs", "oracle"}),
    # The lasso window decides the liveness demo at k = 10 with no script.
    ([DATA / "liveness.bpp"], {"lasso"}, set(), {"acs", "oracle"} | BACK_END | BUNDLED),
    # At k <= WINDOW the node goes to the unrolling and the solver.
    ([DATA / "liveness.bpp", "-k", "3"], {"lasso", "eg"}, BACK_END, {"acs", "oracle"}),
    ([DATA / "pingpong.acs", DATA / "q0_twice.prop", "--acs"], {"ef"}, {"acs"} | BACK_END,
     {"oracle"}),
    ([DATA / "mixed.bpp"], {"ef", "lasso"}, BACK_END, {"acs", "oracle"}),
], ids=["ef", "eg", "eg-unrolled", "acs", "mixed"])
def test_check_loads_only_its_engine(args, engines, used, unused):
    # Every module a check imports adds to each start, and creating a
    # dataclass costs about a millisecond, so the package uses neither.
    # An engine is loaded where evaluation first meets one of its nodes,
    # the unrolling encoder at an EG node's first unrolling, the back end
    # at the first script and the actor front end only for --acs.
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
    assert loaded & {"ef", "eg", "lasso"} == engines
    assert used <= loaded
    assert loaded & unused == set()
    assert {"dataclasses", "inspect"}.isdisjoint(modules)


def test_actor_front_end_is_readable_from_parsing():
    # parse_acs and parse_property live in acs; parsing resolves both names
    # there at first use, for callers that import them from parsing.
    from bppcheck import acs, parsing

    assert parsing.parse_acs is acs.parse_acs
    assert parsing.parse_property is acs.parse_property


def test_back_end_star_import_is_its_api():
    # bppcheck.smt resolves most of its names at first use; a star import
    # brings in every one of them and none of the module's own imports.
    from bppcheck import smt

    names: dict = {}
    exec("from bppcheck.smt import *", names)
    assert {"conj", "lin", "to_smtlib", "run_solver", "resolve_solver"} <= names.keys()
    assert names.keys() - {"__builtins__"} == set(smt.__all__)
    assert {"conj", "run_solver"} <= set(dir(smt))


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


def test_package_imports_only_the_standard_library():
    # The checker, its bundled solver and the Omega test need nothing to be
    # installed: every absolute import names a standard-library module.
    outside = set()
    for path in (ROOT / "src" / "bppcheck").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
