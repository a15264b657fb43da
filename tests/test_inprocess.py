"""The bundled solver solves in the checker's process: no child per call,
the same printed answer as its pipe driver, and the limits a killed child
used to have (a deadline, stack depth) enforced by the solver itself."""

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bppcheck import refsolver
from bppcheck.cli import main
from bppcheck.ctl import EF, EG, And, ENext, FormulaClass, check, classify
from bppcheck.eg import encode_eg
from bppcheck.errors import SolverProtocolError
from bppcheck.parsing import parse_problem
from bppcheck.refsolver import solve_text
from bppcheck.refsolver.omega import OmegaBudgetExceeded, omega_solve
from bppcheck.sexpr import parse_all, tokenize
from bppcheck.smt.runner import BUNDLED_COMMAND, SolverConfig

from .conftest import pipe_driver, random_atom, random_bpp, random_marking

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
DEMO_INPUTS = sorted((ROOT / "demos" / "inputs").glob("*.bpp"))
BUNDLED = SolverConfig(BUNDLED_COMMAND, 30.0)


def without_time(printed: str) -> str:
    return re.sub(r"(:time) [0-9.]+", r"\1", printed)


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


def unrolled_liveness(tmp_path, body: str, k: int) -> Path:
    """The liveness demo's system with the formula
    EG(Conj(X + Y + Z <= k + 1, body)). No path of k steps breaks the
    added conjunct, since a step adds at most one token. No lasso keeps it
    either: every rule but Z -> X adds a token, and a loop of Z -> X alone
    drains Z. So the window finds no lasso and the k-step unrolling decides."""
    problem = tmp_path / "liveness.bpp"
    problem.write_text(
        (DATA / "liveness.bpp").read_text(encoding="utf-8").split("formula")[0]
        + f"formula\nEG(Conj(X + Y + Z <= {k + 1}, {body}))\n"
    )
    return problem


def demo_scripts() -> list[str]:
    texts = []
    for path in DEMO_INPUTS:
        problem = parse_problem(path.read_text(encoding="utf-8"))
        if classify(problem.formula) == FormulaClass.EF_CLASS:
            check(
                problem.bpp, problem.initial, problem.formula, 0, BUNDLED,
                on_script=lambda script: texts.append(script.text),
            )
        else:
            texts.append(encode_eg(problem.bpp, problem.initial, problem.formula, 10).script.text)
    return texts


def random_scripts(count: int) -> list[str]:
    rng = random.Random(2024)
    texts = []
    while len(texts) < count:
        bpp = random_bpp(rng, max_symbols=4, max_rules=5)
        init = random_marking(rng, bpp)
        if len(texts) % 2 == 0:
            check(
                bpp, init, EF(random_atom(rng, bpp)), 0, BUNDLED,
                on_script=lambda script: texts.append(script.text),
            )
        else:
            body = random_atom(rng, bpp)
            if rng.random() < 0.5:
                body = And(body, ENext(rng.choice("ab"), random_atom(rng, bpp)))
            texts.append(encode_eg(bpp, init, EG(body), rng.randint(1, 5)).script.text)
    return texts


class TestTransport:
    def test_default_config_spawns_no_process(self, capsys, monkeypatch):
        def no_spawn(*args, **kwargs):
            raise AssertionError("a solver process was started")

        monkeypatch.delenv("BPPCHECK_SOLVER", raising=False)
        monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
        monkeypatch.setattr(subprocess, "run", no_spawn)
        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        code, out = run_cli(capsys, ROOT / "demos" / "inputs" / "reach.bpp")
        assert code == 0
        assert "result: holds" in out

    def test_same_output_as_the_pipe_driver(self):
        texts = demo_scripts() + random_scripts(30)
        assert len(texts) >= 32
        for text in texts:
            proc = pipe_driver(text)
            assert proc.returncode == 0, proc.stderr
            assert without_time(solve_text(text)) == without_time(proc.stdout), text


class TestDeadline:
    def test_deep_unrolling_stops_at_the_timeout(self, capsys, tmp_path):
        # A bounded check the solver cannot finish within seconds: avoiding
        # Z = 3 at every one of 100 steps splits each position into Z < 3
        # and Z > 3, and the search tries tens of thousands of such paths.
        # Nothing kills an in-process solve, so the solver must stop itself.
        # One solver call, the unrolling's (the window calls none), shows the
        # encoder finished in time and the solver, not the encoder's own
        # deadline check, gave up.
        problem = unrolled_liveness(tmp_path, "Neg(Z == 3)", 100)
        start = time.perf_counter()
        code, out = run_cli(
            capsys, problem, "-k", "100", "--timeout", "2", "--format", "json", "--stats",
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        stats = json.loads(out)["stats"]
        assert stats["reason_unknown"] == "timeout"
        assert stats["solver_calls"] == 1
        assert elapsed < 2.5

    def test_long_unrolling_stops_the_encoder(self, capsys, tmp_path):
        # At k = 100,000 the path block alone has 300,003 names; the encoder
        # checks the deadline at every step, so it gives up close to it and
        # never starts the solver on it; the window calls none.
        problem = unrolled_liveness(tmp_path, "EX(a, Y + Z >= 2)", 100_000)
        start = time.perf_counter()
        code, out = run_cli(
            capsys, problem, "-k", "100000",
            "--timeout", "0.5", "--format", "json", "--stats",
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        stats = json.loads(out)["stats"]
        assert stats["reason_unknown"] == "timeout"
        assert stats["solver_calls"] == 0
        assert elapsed < 1.5

    def test_long_lasso_stops_at_the_timeout(self, capsys):
        # The window finds the liveness demo's lasso at once; pumping it to
        # ten million steps and replaying them checks the deadline at every
        # step, so the check ends as unknown close to it, with no solver call.
        start = time.perf_counter()
        code, out = run_cli(
            capsys, ROOT / "demos" / "inputs" / "liveness.bpp", "-k", "10000000",
            "--timeout", "0.5", "--format", "json", "--stats",
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        stats = json.loads(out)["stats"]
        assert stats["reason_unknown"] == "timeout"
        assert stats["solver_calls"] == 0
        assert elapsed < 1.5

    def test_past_deadline_is_timeout(self):
        text = (
            "(declare-const x Int)\n(assert (>= x 0))\n(check-sat)\n"
            "(get-info :reason-unknown)\n"
        )
        printed = solve_text(text, deadline=time.perf_counter() - 1.0)
        assert printed == 'unknown\n(:reason-unknown "timeout")\n'
        assert solve_text(text).startswith("sat\n")

    def test_omega_checks_the_deadline(self):
        lits = [("eq", {"x": 3, "y": 5}, -4)]
        with pytest.raises(OmegaBudgetExceeded, match="timeout"):
            omega_solve(lits, deadline=time.perf_counter() - 1.0)
        assert omega_solve(lits) is not None


class TestDepth:
    def test_deep_unrolling_holds(self, capsys, monkeypatch, tmp_path):
        # The search and the Omega test are loops, so the thousand-odd
        # branches of this bound need no stack per level: it holds under
        # Python's default limit of 1,000. The raised limit serves the formula
        # builder and nested sub-solves only.
        monkeypatch.setattr(refsolver, "RECURSION_LIMIT", 1_000)
        problem = unrolled_liveness(tmp_path, "EX(a, Y + Z >= 2)", 700)
        code, out = run_cli(capsys, problem, "-k", "700")
        assert code == 0, out
        assert "result: holds" in out
        assert "bound: 700" in out

    DEEP = 100_000
    DEEP_SCRIPT = (
        "(declare-const x Int)\n(assert " + "(not " * DEEP + "(>= x 0)" + ")" * DEEP + ")\n"
        "(check-sat)\n(get-info :reason-unknown)\n"
    )

    def test_reader_is_iterative(self):
        form = parse_all("(a " * self.DEEP + ")" * self.DEEP)[0]
        depth = 0
        while form[1:]:
            form = form[1]
            depth += 1
        assert depth == self.DEEP - 1
        with pytest.raises(SolverProtocolError, match="unbalanced parenthesis"):
            parse_all("(a (b)")
        with pytest.raises(SolverProtocolError, match="unexpected '\\)'"):
            parse_all("(a) b)")

    @pytest.mark.parametrize("text, tokens", [
        ('(assert (> x 0))', ["(", "assert", "(", ">", "x", "0", ")", ")"]),
        ('(echo "a (b) c")', ["(", "echo", '"a (b) c"', ")"]),
        ('"say ""hi""" x', ['"say ""hi"""', "x"]),
        ("(|a b| |;|)", ["(", "|a b|", "|;|", ")"]),
        ("a ; note (|\nb;c\n", ["a", "b"]),
        ('(x "open (', ["(", "x", '"open (']),
        ("\tx\x0cy\r\n", ["x\x0cy"]),
    ], ids=["atoms", "string", "escaped-quote", "bar-symbol", "comment",
            "unterminated-string", "whitespace"])
    def test_tokens(self, text, tokens):
        assert tokenize(text) == tokens

    def test_unterminated_bar_symbol(self):
        with pytest.raises(SolverProtocolError, match="unterminated \\|symbol\\|"):
            tokenize("(a |b c)")

    def test_deep_script_in_process(self):
        limit = sys.getrecursionlimit()
        printed = solve_text(self.DEEP_SCRIPT)
        assert printed == 'unknown\n(:reason-unknown "recursion depth exceeded")\n'
        assert sys.getrecursionlimit() == limit

    def test_deep_script_through_the_pipe_driver(self):
        proc = pipe_driver(self.DEEP_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert without_time(proc.stdout) == without_time(solve_text(self.DEEP_SCRIPT))


class TestBatchWorkers:
    def test_order_kept_and_errors_come_back(self, tmp_path, capsys):
        inputs = [DATA / "unreach.bpp", DATA / "reach.bpp", DATA / "liveness.bpp"]
        code, out = run_cli(capsys, *inputs, "--jobs", "2")
        assert code == 1
        headers = [line for line in out.splitlines() if line.startswith("== ")]
        assert headers == [f"== {path} ==" for path in inputs]

        bad = tmp_path / "bad.bpp"
        bad.write_text("initial rules formula X >= 1\n")
        code = main([str(DATA / "reach.bpp"), str(bad), "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3
        # The message names the input it came from.
        assert captured.err == (
            f"parse error: {bad}: line 1, column 9: expected a symbol name, found rules\n")
