import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bppcheck.cli import main
from bppcheck.parsing import MAX_FORMULA_DEPTH
from bppcheck.smt.runner import KILL_GRACE_S

DATA = Path(__file__).parent / "data"


def run(capsys, *args) -> tuple[int, str, str]:
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, out, _ = run(capsys, DATA / "reach.bpp")
        assert code == 0
        assert "result: holds" in out

    def test_not_holds_is_one(self, capsys):
        code, out, _ = run(capsys, DATA / "unreach.bpp")
        assert code == 1
        assert "result: not-holds" in out

    def test_dead_generator_is_refuted(self, capsys):
        # Dead-generator 4x4 seed 2: a siphon cut that asserted its inside
        # rules as one zero sum sent the bundled solver to the Omega test,
        # which ran out of budget.
        code, out, _ = run(capsys, DATA / "dead4x4_seed2.bpp", "--format", "json")
        assert code == 1
        assert json.loads(out)["result"] == "not-holds"

    def test_unknown_is_two(self, capsys):
        fake = f"{sys.executable} -c \"print('unknown')\""
        code, out, _ = run(capsys, DATA / "reach.bpp", "--solver", fake)
        assert code == 2
        assert "result: unknown" in out

    def test_unknown_carries_the_solver_reason(self, capsys, tmp_path):
        fake = (
            f"{sys.executable} -c \"print('unknown'); "
            "print('(:reason-unknown incomplete)')\""
        )
        # No lasso keeps X + Y + Z <= 3, so the unrolling calls the solver.
        problem = tmp_path / "bounded.bpp"
        problem.write_text(
            (DATA / "liveness.bpp").read_text().split("formula")[0]
            + "formula\nEG(X + Y + Z <= 3)\n"
        )
        code, out, _ = run(capsys, problem, "--solver", fake, "--stats")
        assert code == 2
        assert "reason_unknown: incomplete" in out
        assert "reason_unknown=incomplete" in out
        code, out, _ = run(capsys, DATA / "reach.bpp", "--solver", fake, "--format", "json")
        assert code == 2
        assert json.loads(out)["stats"]["reason_unknown"] == "incomplete"

    @pytest.mark.parametrize("name", ["reach.bpp", "unreach.bpp", "no-such-file.bpp"],
                             ids=["holds", "not-holds", "missing-input"])
    def test_closed_pipes_never_read_as_not_holds(self, name):
        # Nobody reads stdout or stderr: the report cannot be written and
        # the error message is lost, which is an environment failure, never
        # exit code 1.
        ends = []
        for _ in range(2):
            read, write = os.pipe()
            os.close(read)
            ends.append(write)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        try:
            proc = subprocess.run([sys.executable, "-m", "bppcheck", str(DATA / name)],
                                  stdout=ends[0], stderr=ends[1], env=env, timeout=120)
        finally:
            for fd in ends:
                os.close(fd)
        assert proc.returncode == 4

    def test_eg_encoding_stops_at_the_timeout(self, tmp_path):
        # AF nested 50 deep allocates (k+1)^50 path blocks; encoding shares
        # the solver's deadline, so the check ends as unknown instead.
        problem = tmp_path / "deep.bpp"
        problem.write_text(
            "initial\nX\nrules\nX -> a -> X, Y\nY -> a -> nil\nformula\n"
            + "AF(" * 50 + "Y >= 2" + ")" * 50 + "\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        timeout = 1.0
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bppcheck", str(problem), "-k", "3",
             "--timeout", str(timeout), "--format", "json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["result"] == "unknown"
        assert payload["stats"]["reason_unknown"] == "timeout"
        assert payload["stats"]["solver_calls"] == 0
        assert elapsed < timeout + KILL_GRACE_S

    def test_parse_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.bpp"
        bad.write_text("initial rules formula X >= 1\n")
        code, _, err = run(capsys, bad)
        assert code == 3
        assert "parse error" in err
        assert "line 1" in err

    @pytest.mark.parametrize("front, old, new, where", [
        ("problem", "EF(Y == 1)", "EF(Y == \u00b2)", "line 7, column 9"),
        ("acs", "init q0:1", "init q0:\u2460", "line 8, column 9"),
        ("property", "EF(q0 >= 2)", "EF(q0 >= 1\u00b2)", "line 1, column 11"),
        ("problem", "X -> X, Y", "X\u00e9 -> X, Y", "line 5, column 2"),
        ("acs", "states q0, q1", "states q0, q1, q\u00e9", "line 2, column 17"),
        ("property", "EF(q0 >= 2)", "EF(q\u00e9 >= 2)", "line 1, column 5"),
    ], ids=["problem", "acs", "property", "problem-letter", "acs-letter", "property-letter"])
    def test_non_ascii_digit_is_parse_error(self, capsys, tmp_path, front, old, new, where):
        # str.isdigit accepts superscript and circled digits, which int()
        # refuses, and str.isalpha accepts accented letters; numbers and
        # identifiers are read from ASCII characters only.
        files = {"problem": DATA / "reach.bpp", "acs": DATA / "pingpong.acs",
                 "property": DATA / "q0_twice.prop"}
        text = files[front].read_text()
        assert old in text
        files[front] = tmp_path / files[front].name
        files[front].write_text(text.replace(old, new))
        args = (files["problem"],) if front == "problem" else (
            files["acs"], files["property"], "--acs")
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert err.startswith(f"parse error: {where}:")
        assert "Traceback" not in err

    def test_mixed_formula_is_three(self, capsys, tmp_path):
        # An EF inside an EG body: no engine compiles it.
        problem = tmp_path / "ef_under_eg.bpp"
        problem.write_text("initial\nX\nrules\nX -> X\nformula\nEG(EF(X >= 1))\n")
        code, _, err = run(capsys, problem)
        assert code == 3
        assert "no engine decides it exactly" in err

    def test_ef_beside_eg_holds(self, capsys):
        # Conj(EF(X >= 1), EG(X >= 1)): each node is decided at the initial
        # marking by its own engine, and the check reports the bounded one.
        code, out, _ = run(capsys, DATA / "mixed.bpp", "--format", "json", "--stats")
        assert code == 0
        payload = json.loads(out)
        assert (payload["result"], payload["engine"], payload["k"]) == ("holds", "eg-bounded", 10)
        assert payload["stats"]["ef_rounds"] == 1
        assert payload["stats"]["bound"] == "unbounded"

    def test_solver_not_found_is_four(self, capsys):
        code, _, err = run(capsys, DATA / "reach.bpp", "--solver", "no-such-solver-cmd")
        assert code == 4
        assert "solver error" in err

    def test_usage_error_is_three(self, capsys):
        code, _, err = run(capsys, DATA / "pingpong.acs", "--acs")
        assert code == 3
        assert "usage error" in err

    @pytest.mark.parametrize("solver", [None, "command"])
    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_timeout_not_positive_is_usage_error(self, capsys, timeout, solver):
        # In process and through a solver command alike: no verdict, no
        # traceback, and exit 3.
        extra = () if solver is None else ("--solver", f'"{sys.executable}" -m bppcheck.refsolver')
        code, out, err = run(capsys, DATA / "reach.bpp", "--timeout", timeout, *extra)
        assert code == 3
        assert out == ""
        assert "usage error: --timeout must be a positive number" in err

    @pytest.mark.parametrize("timeout", ["3e6", "1e12", "1e308"])
    def test_huge_timeout_with_a_solver_command(self, timeout):
        # The wait for the child is clamped below what subprocess can
        # represent, so the check runs instead of overflowing. The -u keeps
        # the command apart from the bundled one, which would solve in process.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "bppcheck", str(DATA / "reach.bpp"), "--timeout", timeout,
             "--solver", f'"{sys.executable}" -u -m bppcheck.refsolver'],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "result: holds" in proc.stdout

    def test_missing_file_is_environment_error(self, capsys):
        code, _, err = run(capsys, "definitely-missing.bpp")
        assert code == 4

    def test_deep_formula_is_parse_error(self, tmp_path, capsys):
        deep = "Neg(" * 1500 + "EF(X >= 1)" + ")" * 1500
        problem = tmp_path / "deep.bpp"
        problem.write_text(f"initial X rules X -> X formula {deep}\n")
        prop = tmp_path / "deep.prop"
        prop.write_text(deep.replace("X >= 1", "q0 >= 1") + "\n")
        for args in ((problem,), (DATA / "pingpong.acs", prop, "--acs")):
            code, _, err = run(capsys, *args)
            assert code == 3
            assert "parse error" in err
            assert "nested at most 100 operators deep" in err


class TestNotUtf8:
    """A file that does not decode as UTF-8 is a parse error (exit 3) with a
    one-line message, on each path that reads input files."""

    @pytest.fixture
    def bad(self, tmp_path) -> Path:
        path = tmp_path / "bad.bpp"
        path.write_bytes(b"\xff\xfe")
        return path

    def run_cli(self, *args) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        return subprocess.run([sys.executable, "-m", "bppcheck", *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)

    def assert_parse_error(self, proc, bad):
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert f"parse error: {bad}: not UTF-8" in proc.stderr

    def test_single_problem(self, bad):
        self.assert_parse_error(self.run_cli(bad), bad)

    def test_actor_pair(self, bad):
        self.assert_parse_error(self.run_cli(DATA / "pingpong.acs", bad, "--acs"), bad)
        self.assert_parse_error(self.run_cli(bad, DATA / "q0_twice.prop", "--acs"), bad)

    def test_batch_worker(self, bad):
        self.assert_parse_error(self.run_cli(DATA / "reach.bpp", bad, "--jobs", "2"), bad)


class TestByteOrderMark:
    """A UTF-8 byte-order mark before a problem, system or property file is
    skipped: the check reads as it does without it."""

    def with_bom(self, tmp_path, source: Path) -> Path:
        path = tmp_path / source.name
        path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        return path

    def test_problem_file(self, tmp_path, capsys):
        code, out, _ = run(capsys, self.with_bom(tmp_path, DATA / "reach.bpp"))
        assert code == 0
        assert "result: holds" in out

    def test_system_and_property_files(self, tmp_path, capsys):
        plain = run(capsys, DATA / "pingpong.acs", DATA / "q0_twice.prop", "--acs")
        system = self.with_bom(tmp_path, DATA / "pingpong.acs")
        prop = self.with_bom(tmp_path, DATA / "q0_twice.prop")
        code, out, err = run(capsys, system, prop, "--acs")
        assert (code, err) == plain[::2]
        assert out.split("time_ms")[0] == plain[1].split("time_ms")[0]


class TestOutOfMemory:
    """Running out of memory is never exit 1, the "does not hold" code: a
    bounded encoding that does leaves its node unknown, and anywhere else
    the CLI prints one error line and exits 4."""

    #: The window finds no lasso (P2 only grows), so the check goes on to
    #: the unrolling, whose encoding at this k outgrows any memory.
    GROWER = "initial P1 rules P1 -> a -> P1, P2 formula EG(P2 <= 3)\n"

    def test_unrolling_encoding_is_unknown(self, tmp_path, capsys, monkeypatch):
        from bppcheck.eg import VarAllocator

        def out_of_memory(self, k, symbols, declare):
            raise MemoryError

        monkeypatch.setattr(VarAllocator, "path_block", out_of_memory)
        problem = tmp_path / "grower.bpp"
        problem.write_text(self.GROWER)
        code, out, err = run(capsys, problem, "-k", "100000000", "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert report["result"] == "unknown"
        assert report["stats"]["reason_unknown"] == "out of memory"
        assert report["stats"]["solver_calls"] == 0  # the window calls no solver
        assert err == ""

    @pytest.mark.parametrize("error, message", [
        (MemoryError, "error: out of memory"),
        (RecursionError, "error: recursion depth exceeded"),
    ])
    def test_elsewhere_is_an_environment_error(self, capsys, monkeypatch, error, message):
        import bppcheck.parsing

        def fail(text):
            raise error

        monkeypatch.setattr(bppcheck.parsing, "parse_problem", fail)
        code, out, err = run(capsys, DATA / "reach.bpp")
        assert code == 4
        assert out == ""
        assert err == message + "\n"


class TestNestingLimit:
    """Formulas exactly at the parser's nesting limit check end to end."""

    def at_limit(self, tmp_path, source: Path, body: str, operators: int) -> Path:
        negations = MAX_FORMULA_DEPTH - operators
        assert negations % 2 == 0
        system = source.read_text().split("formula")[0]
        path = tmp_path / source.name
        path.write_text(f"{system}formula\n{'Neg(' * negations}{body}{')' * negations}\n")
        return path

    def test_ef_engine(self, tmp_path, capsys):
        path = self.at_limit(tmp_path, DATA / "reach.bpp", "Conj(EF(Y == 1), EF(Y == 1))", 2)
        code, out, _ = run(capsys, path)
        assert code == 0
        assert "engine: ef" in out

    def test_eg_engine(self, tmp_path, capsys):
        path = self.at_limit(tmp_path, DATA / "liveness.bpp", "EG(EX(a, Y + Z >= 2))", 2)
        code, out, _ = run(capsys, path, "-k", "3")
        assert code == 0
        assert "engine: eg-bounded" in out


class TestTextReport:
    def test_witness_line_shape(self, capsys):
        code, out, _ = run(capsys, DATA / "reach.bpp")
        assert code == 0
        assert "(x_Y, 1)" in out
        assert "engine: ef" in out
        assert "time_ms:" in out
        assert "k:" not in out

    def test_eg_report_carries_k(self, capsys):
        code, out, _ = run(capsys, DATA / "liveness.bpp", "-k", "5")
        assert code == 0
        assert "engine: eg-bounded" in out
        assert "k: 5" in out

    def test_lasso_report_says_unbounded(self, capsys):
        # The liveness demo has a lasso within the 4-step window, so the
        # default -k 10 is decided at every bound; -k 3 is within the window.
        code, out, _ = run(capsys, DATA / "liveness.bpp")
        assert code == 0
        assert re.search(r"\nk: 10\nbound: unbounded\nlasso: \[[0-3], 4\]\n", out), out
        code, out, _ = run(capsys, DATA / "liveness.bpp", "-k", "3")
        assert code == 0
        assert "\nk: 3\nbound: 3\n" in out
        assert "lasso" not in out

    def test_stats_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, DATA / "unreach.bpp", "--stats")
        assert code == 1
        assert "stats:" in out
        assert "constraints:" in out
        assert "(set-logic" in out
        # n_vars counts the 6 declared path variables of EG at k = 2 and the
        # 6 target variables AX binds under exists, one state per position.
        problem = tmp_path / "next.bpp"
        problem.write_text("initial X\nrules X -> a -> X, Y\nformula EG(AX(a, Y >= 1))\n")
        code, out, _ = run(capsys, problem, "-k", "2", "--stats")
        assert code == 0
        assert "stats: n_vars=12 n_asserts=1 " in out
        assert "path_vars_declared=6 path_vars_total=6 target_vars=6 " in out


class TestJsonReport:
    def test_keys_exact(self, capsys):
        code, out, _ = run(capsys, DATA / "reach.bpp", "--format", "json")
        payload = json.loads(out)
        assert list(payload) == ["result", "engine", "k", "time_ms", "witness", "stats"]
        assert payload["result"] == "holds"
        assert payload["k"] is None
        assert payload["witness"]["x_Y"] == 1

    def test_not_holds_witness_null(self, capsys):
        code, out, _ = run(capsys, DATA / "unreach.bpp", "--format", "json")
        payload = json.loads(out)
        assert payload["result"] == "not-holds"
        assert payload["witness"] is None

    def test_eg_json_has_k(self, capsys):
        code, out, _ = run(capsys, DATA / "liveness.bpp", "--format", "json", "-k", "3")
        payload = json.loads(out)
        assert payload["engine"] == "eg-bounded"
        assert payload["k"] == 3
        assert payload["stats"]["bound"] == 3

    @pytest.mark.parametrize("formula, witness", [
        ("AX(a, EG(X >= 0))", "path"),
        ("Neg(EG(Neg(X >= 1)))", None),
        ("AF(X >= 1)", None),
        ("AF(Y + Z >= 100)", "path"),
    ])
    def test_eg_witness_is_a_path_or_null(self, tmp_path, capsys, formula, witness):
        problem = tmp_path / "liveness.bpp"
        problem.write_text(
            (DATA / "liveness.bpp").read_text(encoding="utf-8").split("formula")[0]
            + f"formula\n{formula}\n"
        )
        code, out, _ = run(capsys, problem, "--format", "json", "-k", "3")
        payload = json.loads(out)
        if witness is None:
            assert payload["witness"] is None
        else:
            assert {f"u{j}_{s}" for j in range(4) for s in "XYZ"} <= payload["witness"].keys()

    def test_eg_json_lasso(self, capsys):
        code, out, _ = run(capsys, DATA / "liveness.bpp", "--format", "json", "-k", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 50
        assert payload["stats"]["bound"] == "unbounded"
        assert payload["stats"]["lasso"][1] == 4
        assert payload["stats"]["solver_calls"] == 0
        # The witness is the window's path pumped to k steps.
        assert {f"u{j}_X" for j in range(51)} <= payload["witness"].keys()


class TestActorSystems:
    def test_case_study_property_one(self, capsys):
        code, out, _ = run(capsys, DATA / "pingpong.acs", DATA / "q0_twice.prop", "--acs")
        assert code == 1

    def test_case_study_mailbox_property(self, capsys):
        code, _, _ = run(capsys, DATA / "pingpong.acs", DATA / "mail_twice.prop", "--acs")
        assert code == 1

    def test_trivially_reachable_mailbox_state(self, capsys):
        code, _, _ = run(capsys, DATA / "pingpong.acs", DATA / "mail_zero.prop", "--acs")
        assert code == 0


class TestModes:
    # The formula class picks the engine; there is no flag to override it.
    def test_mode_eg_on_ef_formula_rejected(self, capsys):
        code, _, err = run(capsys, DATA / "reach.bpp", "--mode", "eg")
        assert code == 3
        assert err.startswith("usage error: unrecognized arguments: --mode eg")

    def test_mode_eg_explicit(self, capsys):
        code, out, _ = run(capsys, DATA / "liveness.bpp", "-k", "4")
        assert code == 0
        assert "engine: eg-bounded" in out

    def test_negative_k_rejected(self, capsys):
        code, _, err = run(capsys, DATA / "liveness.bpp", "-k", "-1")
        assert code == 3


class TestEmitAndDot:
    def test_emit_smt_bytes_match_solver_input(self, tmp_path, capsys):
        tee = tmp_path / "tee.py"
        tee.write_text(
            "import sys\n"
            "data = sys.stdin.buffer.read()\n"
            "open(sys.argv[1], 'wb').write(data)\n"
            "print('unsat')\n"
        )
        captured = tmp_path / "sent.smt2"
        emitted = tmp_path / "emitted.smt2"
        solver = f'"{sys.executable}" "{tee}" "{captured}"'
        code, _, _ = run(
            capsys, DATA / "reach.bpp", "--solver", solver, "--emit-smt", emitted
        )
        assert code == 1  # the tee always answers unsat
        assert emitted.read_bytes() == captured.read_bytes()

    def test_emit_smt_writes_one_file_per_round(self, tmp_path, capsys):
        # reach.bpp's first model fires X -> X Y without S -> X: one cut.
        emitted = tmp_path / "q.smt2"
        code, out, _ = run(
            capsys, DATA / "reach.bpp", "--emit-smt", emitted, "--format", "json", "--stats"
        )
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["ef_rounds"] == stats["solver_calls"] == 2
        assert stats["n_vars"] == 5
        first, second = (tmp_path / f"q.{i}.smt2" for i in range(2))
        assert not emitted.exists() and not (tmp_path / "q.2.smt2").exists()
        assert "z_" not in first.read_text()
        assert second.read_text().count("(or ") == first.read_text().count("(or ") + 1

    def test_emit_smt_writes_only_the_unrolling(self, tmp_path, capsys):
        # Every X or Y firing adds a token and only Z -> X keeps the count,
        # so no path keeps X + Y + Z <= 3 for long: the window finds no
        # lasso, with no script, and the unrolling refutes the bound.
        problem = tmp_path / "bounded.bpp"
        problem.write_text(
            (DATA / "liveness.bpp").read_text().split("formula")[0]
            + "formula\nEG(X + Y + Z <= 3)\n"
        )
        emitted = tmp_path / "q.smt2"
        code, out, _ = run(capsys, problem, "--emit-smt", emitted, "--format", "json")
        assert code == 1
        stats = json.loads(out)["stats"]
        assert stats["solver_calls"] == 1
        assert stats["bound"] == 10
        assert "u10_X" in emitted.read_text()
        assert not (tmp_path / "q.0.smt2").exists()
        # The liveness demo's window decides it: nothing is written.
        lasso = tmp_path / "lasso.smt2"
        code, out, _ = run(capsys, DATA / "liveness.bpp", "--emit-smt", lasso, "--format", "json")
        assert code == 0
        assert json.loads(out)["stats"]["bound"] == "unbounded"
        assert list(tmp_path.glob("lasso*")) == []

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        code, _, _ = run(capsys, DATA / "reach.bpp", "--dot", dot)
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert '"(1,0,0)"' in text


class TestBatch:
    def test_multiple_inputs_report_worst_code(self, capsys):
        code, out, _ = run(
            capsys, DATA / "reach.bpp", DATA / "unreach.bpp", "--jobs", "2"
        )
        assert code == 1
        assert out.count("== ") == 2
        assert "result: holds" in out
        assert "result: not-holds" in out

    def test_json_is_one_object_per_line(self, capsys):
        inputs = [DATA / "unreach.bpp", DATA / "reach.bpp", DATA / "liveness.bpp"]
        code, out, _ = run(capsys, *inputs, "--jobs", "2", "--format", "json")
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["file"] for r in reports] == [str(path) for path in inputs]
        assert [r["result"] for r in reports] == ["not-holds", "holds", "holds"]
        assert list(reports[0]) == ["file", "result", "engine", "k", "time_ms", "witness", "stats"]

    def test_emit_smt_rejected_in_batch(self, tmp_path, capsys):
        code, _, err = run(
            capsys, DATA / "reach.bpp", DATA / "unreach.bpp",
            "--emit-smt", tmp_path / "x.smt2",
        )
        assert code == 3


class TestEnvSolver:
    def test_env_fallback_used(self, capsys, monkeypatch):
        monkeypatch.setenv("BPPCHECK_SOLVER", "no-such-solver-env")
        code, _, err = run(capsys, DATA / "reach.bpp")
        assert code == 4

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BPPCHECK_SOLVER", "no-such-solver-env")
        ref = f'"{sys.executable}" -m bppcheck.refsolver'
        code, out, _ = run(capsys, DATA / "reach.bpp", "--solver", ref)
        assert code == 0
