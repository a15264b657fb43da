import sys
import time

import pytest

from bppcheck.errors import (
    IllFormedFormula,
    MissingBinding,
    NonIntegerBinding,
    SolverCrashed,
    SolverNotFound,
    SolverProtocolError,
)
from bppcheck.smt import (
    FALSE,
    SolverConfig,
    conj,
    disj,
    eval_node,
    exists,
    lin,
    neg,
    parse_info,
    parse_model,
    resolve_solver,
    run_solver,
    solver_stats,
    to_smtlib,
)

REFSOLVER = (sys.executable, "-m", "bppcheck.refsolver")


def config(timeout_s: float = 30.0) -> SolverConfig:
    return SolverConfig(REFSOLVER, timeout_s)


class TestSerialization:
    def test_deterministic_bytes(self):
        node = conj([lin([("x", 1)], ">=", 0), lin([("x", 1), ("y", -2)], "=", 1)])
        a = to_smtlib(node, ("x", "y"))
        b = to_smtlib(node, ("x", "y"))
        assert a.text == b.text
        assert "(set-logic QF_LIA)" in a.text
        assert "(declare-const x Int)" in a.text
        assert a.text.index("declare-const x") < a.text.index("declare-const y")

    def test_quantified_logic_selected(self):
        node = exists(["t"], lin([("t", 1)], ">=", 0))
        script = to_smtlib(node, ())
        assert "(set-logic LIA)" in script.text
        assert "(exists ((t Int))" in script.text

    def test_negative_literals_wrapped(self):
        node = lin([("x", -2)], ">=", -3)
        text = to_smtlib(node, ("x",)).text
        assert "(* (- 2) x)" in text
        assert "(- 3)" in text

    def test_free_variable_must_be_declared(self):
        with pytest.raises(IllFormedFormula):
            to_smtlib(lin([("x", 1)], ">=", 0), ())

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(IllFormedFormula):
            to_smtlib(lin([("x", 1)], ">=", 0), ("x", "x"))

    def test_empty_sum_is_zero(self):
        text = to_smtlib(lin([], ">=", 1), ()).text
        assert "(>= 0 1)" in text


class TestRunSolver:
    def test_sat_with_model(self):
        node = conj([lin([("x", 1)], ">=", 0), lin([("x", 1)], "=", 1)])
        script = to_smtlib(node, ("x",))
        outcome = run_solver(script, config())
        assert outcome.status == "sat"
        assert outcome.model == {"x": 1}
        assert outcome.wall_ms > 0

    def test_unsat_on_false(self):
        script = to_smtlib(FALSE, ())
        outcome = run_solver(script, config())
        assert outcome.status == "unsat"
        assert outcome.model is None

    def test_empty_disjunction_is_false(self):
        script = to_smtlib(disj([]), ())
        assert run_solver(script, config()).status == "unsat"

    def test_round_trip_model_satisfies_assertion(self):
        node = conj(
            [
                lin([("a", 2), ("b", 3)], "=", 12),
                lin([("a", 1)], ">=", 0),
                lin([("b", 1)], ">", 0),
                neg(lin([("a", 1)], "=", 0)),
            ]
        )
        script = to_smtlib(node, ("a", "b"))
        outcome = run_solver(script, config())
        assert outcome.status == "sat"
        assert eval_node(node, outcome.model) is True

    def test_solver_not_found(self):
        script = to_smtlib(FALSE, ())
        with pytest.raises(SolverNotFound):
            run_solver(script, SolverConfig(("definitely-not-a-solver-xyz",), 5))

    def test_crash_without_verdict(self):
        script = to_smtlib(FALSE, ())
        cmd = (sys.executable, "-c", "import sys; sys.exit(3)")
        with pytest.raises(SolverCrashed):
            run_solver(script, SolverConfig(cmd, 5))

    def test_garbage_output_is_protocol_error(self):
        script = to_smtlib(FALSE, ())
        cmd = (sys.executable, "-c", "print('hello world')")
        with pytest.raises(SolverProtocolError):
            run_solver(script, SolverConfig(cmd, 5))

    def test_timeout_reports_unknown_within_grace(self):
        script = to_smtlib(FALSE, ())
        cmd = (sys.executable, "-c", "import time; time.sleep(60)")
        start = time.perf_counter()
        outcome = run_solver(script, SolverConfig(cmd, 0.5))
        elapsed = time.perf_counter() - start
        assert outcome.status == "unknown"
        assert outcome.reason_unknown == "timeout"
        assert elapsed < 0.5 + 2.0 + 2.0  # budget + kill grace + slack


class TestSolverInfo:
    def test_script_ends_with_the_info_requests(self):
        text = to_smtlib(lin([("x", 1)], ">=", 0), ("x",)).text
        assert text.endswith(
            "(check-sat)\n(get-model)\n"
            "(get-info :reason-unknown)\n(get-info :all-statistics)\n"
        )

    # 2x + 3y = 7 with x, y >= 0 pins nothing: one Omega call decides it.
    NEEDS_OMEGA = conj(
        [lin([("x", 2), ("y", 3)], "=", 7), lin([("x", 1)], ">=", 0), lin([("y", 1)], ">=", 0)]
    )

    def test_bundled_solver_reports_its_solve_time(self):
        outcome = run_solver(to_smtlib(self.NEEDS_OMEGA, ("x", "y")), config())
        assert outcome.status == "sat"
        assert outcome.model == {"x": 2, "y": 1}
        assert outcome.statistics["steps"] >= 1
        assert outcome.statistics["omega-calls"] == 1
        # Solving a two-variable problem is far quicker than the child's start.
        assert outcome.solve_ms == outcome.statistics["time"] * 1000.0
        assert outcome.solve_ms < outcome.wall_ms

    def test_wall_time_stands_in_without_a_time_statistic(self):
        cmd = (sys.executable, "-c", "print('unsat')")
        outcome = run_solver(to_smtlib(FALSE, ()), SolverConfig(cmd, 5))
        assert outcome.statistics == {}
        assert outcome.reason_unknown is None
        assert outcome.solve_ms == outcome.wall_ms

    def test_z3_style_answers(self):
        raw = (
            "unknown\n"
            '(error "line 5 column 10: model is not available")\n'
            '(:reason-unknown "smt tactic failed to show goal to be sat/unsat")\n'
            "(:added-eqs          12\n"
            " :arith-conflicts    3\n"
            " :max-memory         19.41\n"
            " :time               0.02)\n"
        )
        reason, stats = parse_info(raw)
        assert reason == "smt tactic failed to show goal to be sat/unsat"
        assert stats == {"added-eqs": 12, "arith-conflicts": 3, "max-memory": 19.41, "time": 0.02}

    def test_unparsable_info_is_ignored(self):
        assert parse_info("sat\n(:steps 3") == (None, {})
        assert parse_info("sat\n") == (None, {})

    def test_timeout_is_the_reason(self):
        cmd = (sys.executable, "-c", "import time; time.sleep(60)")
        outcome = run_solver(to_smtlib(FALSE, ()), SolverConfig(cmd, 0.2))
        assert outcome.reason_unknown == "timeout"

    def test_verdict_stats_sum_calls(self):
        script = to_smtlib(self.NEEDS_OMEGA, ("x", "y"))
        outcomes = [run_solver(script, config()) for _ in range(2)]
        stats = solver_stats(outcomes)
        assert stats["solver_calls"] == 2
        # The sums are rounded to three places, as the report's time_ms is.
        assert stats["solver_ms"] == round(sum(o.solve_ms for o in outcomes), 3)
        assert stats["solver_wall_ms"] == round(sum(o.wall_ms for o in outcomes), 3)
        assert stats["solver_omega_calls"] == 2
        assert "reason_unknown" not in stats


class TestParseModel:
    MODERN = """sat
(
  (define-fun x () Int 1)
  (define-fun y () Int (- 2))
)
"""
    CLASSIC = """sat
(model
  (define-fun x () Int 1)
  (define-fun y () Int (- 2))
  (define-fun ignored () Int 9)
)
"""

    def test_modern_form(self):
        assert parse_model(self.MODERN, ("x", "y")) == {"x": 1, "y": -2}

    def test_classic_form_with_extras(self):
        assert parse_model(self.CLASSIC, ("x", "y")) == {"x": 1, "y": -2}

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            parse_model(self.MODERN, ("x", "z"))

    def test_non_integer_binding(self):
        raw = 'sat\n((define-fun x () Real 1.5))\n'
        with pytest.raises(NonIntegerBinding):
            parse_model(raw, ("x",))

    def test_ordering_follows_expected(self):
        model = parse_model(self.MODERN, ("y", "x"))
        assert list(model) == ["y", "x"]

    def test_output_nested_past_the_recursion_limit(self):
        # Decoding runs in the checker's process: output from an external
        # solver, however deep, gives a binding or a protocol error.
        deep = 50_000
        value = "(- " * deep + "3" + ")" * deep
        raw = (
            "sat\n(model " + "(x " * deep + f"(define-fun x () Int {value})"
            + ")" * deep + ")\n(:reason-unknown " + "(" * deep + '"deep"' + ")" * deep + ")\n"
        )
        assert parse_model(raw, ("x",)) == {"x": 3 if deep % 2 == 0 else -3}
        assert parse_info(raw)[0] == "deep"
        with pytest.raises(MissingBinding):
            parse_model(raw, ("y",))

    def test_full_witness_shape(self):
        # The shape a reachability witness comes back in: one binding per
        # occurrence/firing/distance variable.
        names = ("x_S", "x_X", "x_Y", "y_1", "y_2", "z_S", "z_X", "z_Y")
        values = (0, 1, 1, 1, 1, 0, 1, 2)
        raw = "sat\n(\n" + "\n".join(
            f"  (define-fun {n} () Int {v})" for n, v in zip(names, values)
        ) + "\n)\n"
        assert parse_model(raw, names) == dict(zip(names, values))


class TestResolveSolver:
    def test_explicit_command_line_wins(self, monkeypatch):
        monkeypatch.setenv("BPPCHECK_SOLVER", "should-not-be-used")
        cfg = resolve_solver("mysolver --flag -x", timeout_s=7)
        assert cfg.command == ("mysolver", "--flag", "-x")
        assert cfg.timeout_s == 7

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BPPCHECK_SOLVER", "envsolver -in")
        cfg = resolve_solver()
        assert cfg.command == ("envsolver", "-in")

    def test_default_is_runnable(self, monkeypatch):
        monkeypatch.delenv("BPPCHECK_SOLVER", raising=False)
        cfg = resolve_solver()
        outcome = run_solver(to_smtlib(FALSE, ()), cfg)
        assert outcome.status == "unsat"
