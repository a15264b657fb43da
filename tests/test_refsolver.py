"""The fallback solver is load-bearing, so it gets adversarial testing:
random box-bounded formulas are compared against brute-force enumeration,
and classic integer-gap instances are pinned by hand."""

import functools
import itertools
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from bppcheck.core import Bpp, Rule
from bppcheck.ctl import EG, And, ENext, check
from bppcheck.eg import encode_eg
from bppcheck.oracle import eval_bounded
from bppcheck.parsing import parse_problem
from bppcheck import refsolver
from bppcheck.refsolver import _Engine, omega, solve_text
from bppcheck.refsolver.omega import OmegaBudgetExceeded, omega_solve
from bppcheck.refsolver.search import _FreeVars
from bppcheck.smt import SolverConfig
from bppcheck.smt.runner import BUNDLED_COMMAND
from bppcheck.sexpr import parse_all

from .conftest import pipe_driver, random_atom, random_marking

LIVENESS = Path(__file__).resolve().parent.parent / "demos" / "inputs" / "liveness.bpp"


def run(script: str) -> list[str]:
    return solve_text(script).strip().splitlines()


def status(script: str) -> str:
    return run(script)[0]


#: What a check-sat and a reason query print when a quantified goal is left
#: with a free variable that no equality pins.
NON_GROUND = ["unknown", '(:reason-unknown "non-ground quantified subformula")']


def answer(script: str) -> list[str]:
    """The check-sat answer and the reason query's line after it."""
    return run(script + "(check-sat)(get-info :reason-unknown)")[:2]


class TestOmega:
    def test_trivial_sat_with_witness(self):
        w = omega_solve([("ge", {"x": 1}, 0), ("eq", {"x": 1}, -1)])
        assert w == {"x": 1}

    def test_gcd_infeasible_equality(self):
        # 2x - 2y = 1 has no integer solution.
        assert omega_solve([("eq", {"x": 2, "y": -2}, -1)]) is None

    def test_diophantine_pair(self):
        # 3x + 5y = 4 is solvable over Z.
        w = omega_solve([("eq", {"x": 3, "y": 5}, -4)])
        assert 3 * w["x"] + 5 * w["y"] == 4

    def test_integer_gap_interval(self):
        # 27 <= 8x <= 30 has a real solution but no integer one.
        lits = [("ge", {"x": 8}, -27), ("ge", {"x": -8}, 30)]
        assert omega_solve(lits) is None

    def test_tight_interval_sat(self):
        # 24 <= 8x <= 30 admits x = 3.
        lits = [("ge", {"x": 8}, -24), ("ge", {"x": -8}, 30)]
        w = omega_solve(lits)
        assert w["x"] == 3

    def test_unbounded_direction(self):
        w = omega_solve([("ge", {"x": 1, "y": -3}, -7)])
        assert w["x"] - 3 * w["y"] >= 7

    def test_random_conjunctions_vs_enumeration(self):
        rng = random.Random(101)
        for _ in range(400):
            n_vars = rng.randint(1, 3)
            names = [f"v{i}" for i in range(n_vars)]
            box = 4
            lits = []
            for v in names:
                lits.append(("ge", {v: 1}, box))       # v >= -box
                lits.append(("ge", {v: -1}, box))      # v <= box
            for _ in range(rng.randint(1, 4)):
                coeffs = {v: rng.randint(-4, 4) for v in names}
                kind = rng.choice(["ge", "eq"])
                lits.append((kind, coeffs, rng.randint(-6, 6)))

            got = omega_solve(lits)
            assert (got is not None) == _feasible_in_box(lits, names, box), lits

    def test_inexact_shadows_vs_enumeration(self, monkeypatch):
        # Coefficients of 2 to 7 on both sides of a variable make shadows
        # inexact, so the dark shadow, its splinters and the modulus step for
        # equalities without a unit coefficient all run.
        ran = Counter()
        fresh_var = omega._Solver.fresh_var
        splinters = omega._Solver._splinters

        def counting_fresh_var(self):
            ran["modulus"] += 1
            return fresh_var(self)

        def counting_splinters(*args):
            ran["dark shadow"] += 1
            for row in splinters(*args):
                ran["splinter"] += 1
                yield row

        monkeypatch.setattr(omega._Solver, "fresh_var", counting_fresh_var)
        monkeypatch.setattr(omega._Solver, "_splinters", staticmethod(counting_splinters))
        rng = random.Random(7)
        box = 5
        for _ in range(300):
            names = [f"v{i}" for i in range(rng.randint(1, 3))]
            lits = [("ge", {v: sign}, box) for v in names for sign in (1, -1)]
            for _ in range(rng.randint(2, 4)):
                picked = rng.sample(names, rng.randint(1, len(names)))
                coeffs = {v: rng.choice((-1, 1)) * rng.randint(2, 7) for v in picked}
                lits.append((rng.choice(("ge", "ge", "eq")), coeffs, rng.randint(-12, 12)))
            got = omega_solve(lits)
            assert (got is not None) == _feasible_in_box(lits, names, box), lits
            if got is not None:
                assert _satisfies(lits, got), (lits, got)
        assert min(ran["modulus"], ran["dark shadow"], ran["splinter"]) > 0, ran

    def test_shadow_blowup_ends_in_the_budget(self):
        # 500 lower and 500 upper bounds on x make 250,000 shadow rows; each
        # costs a step, so the budget runs out before they are built.
        lits = [("ge", {"x": 1}, -i) for i in range(500)]
        lits += [("ge", {"x": -1}, 1000 + i) for i in range(500)]
        start = time.perf_counter()
        with pytest.raises(OmegaBudgetExceeded, match="^omega budget exhausted$"):
            omega_solve(lits)
        assert time.perf_counter() - start < 2.0


def _satisfies(lits, env: dict[str, int]) -> bool:
    for kind, coeffs, const in lits:
        total = sum(c * env.get(v, 0) for v, c in coeffs.items()) + const
        if total != 0 if kind == "eq" else total < 0:
            return False
    return True


def _feasible_in_box(lits, names: list[str], box: int) -> bool:
    points = itertools.product(range(-box, box + 1), repeat=len(names))
    return any(_satisfies(lits, dict(zip(names, point))) for point in points)


class TestScripts:
    def test_simple_sat_model(self):
        out = run(
            """
            (set-option :produce-models true)
            (set-logic QF_LIA)
            (declare-const x Int)
            (assert (and (>= x 0) (= x 1)))
            (check-sat)
            (get-model)
            """
        )
        assert out[0] == "sat"
        assert any("define-fun x () Int 1" in line for line in out)

    def test_assert_false(self):
        assert status("(assert false)(check-sat)") == "unsat"

    def test_empty_disjunction_is_false(self):
        assert status("(assert (or))(check-sat)") == "unsat"

    def test_negative_model_rendering(self):
        out = run(
            """
            (set-option :produce-models true)
            (declare-const x Int)
            (assert (< x (- 1)))
            (check-sat)
            (get-model)
            """
        )
        assert out[0] == "sat"
        assert any("(- " in line for line in out if "define-fun" in line)

    def test_model_unavailable_after_unsat(self):
        out = run("(declare-const x Int)(assert (> x 0))(assert (< x 0))(check-sat)(get-model)")
        assert out[0] == "unsat"
        assert "error" in out[1]

    def test_exists_positive(self):
        assert status("(assert (exists ((t Int)) (and (> t 3) (< t 5))))(check-sat)") == "sat"

    def test_exists_integer_gap(self):
        # A real witness between 3 and 4 exists but no integer one.
        assert status("(assert (exists ((t Int)) (and (> t 3) (< t 4))))(check-sat)") == "unsat"

    def test_forall_true(self):
        # Once an equality pins a, the forall is ground and decided; with a
        # only boxed by inequalities, it stays non-ground.
        forall = "(assert (forall ((t Int)) (or (< t 0) (>= (+ t a) 0))))"
        assert status(f"(declare-const a Int)(assert (= a 3)){forall}(check-sat)") == "sat"
        script = f"(declare-const a Int)(assert (and (>= a 0) (<= a 5))){forall}"
        assert answer(script) == NON_GROUND

    def test_forall_false(self):
        assert status("(assert (forall ((t Int)) (>= t 0)))(check-sat)") == "unsat"

    def test_half_bounded_probe_finds_witness(self):
        # a is only bounded below, and no equality pins it.
        script = """
        (declare-const a Int)
        (assert (>= a 0))
        (assert (forall ((t Int)) (or (< t 0) (>= (+ t a) 0))))
        """
        assert answer(script) == NON_GROUND

    def test_unbounded_unsat_is_honest_unknown(self):
        # forall t. t + a >= 0 is false for every a, but proving that needs
        # quantifier elimination, which this engine does not do.
        script = """
        (declare-const a Int)
        (assert (>= a 0))
        (assert (forall ((t Int)) (>= (+ t a) 0)))
        (check-sat)
        """
        assert status(script) == "unknown"

    def test_shadowed_binders(self):
        script = """
        (assert (exists ((t Int)) (and (>= t 5) (exists ((t Int)) (<= t 0)))))
        (check-sat)
        """
        assert status(script) == "sat"

    def test_nested_quantifier_under_negation(self):
        # not exists t. (t >= 0 and t <= x) is satisfied only when x < 0:
        # of the two values a disjunction gives x, only -1 is a witness.
        block = "(assert (not (exists ((t Int)) (and (>= t 0) (<= t x)))))"
        out = run(f"(set-option :produce-models true)(declare-const x Int){block}"
                  "(assert (or (= x 0) (= x (- 1))))(check-sat)(get-model)")
        assert out[0] == "sat"
        assert _model(out)["x"] == -1
        # With x only bounded, the negated block stays non-ground.
        assert answer(f"(declare-const x Int){block}(assert (>= x (- 5)))") == NON_GROUND

    #: Literals over x, a disjunction over y and a negated block over z,
    #: whose values a disjunction in the same assert gives: no assert shares
    #: y or z with another one.
    PRIVATE = """
        (set-option :produce-models true)
        (declare-const x Int)(declare-const y Int)(declare-const z Int)
        (assert (>= x 2))(assert (<= (* 2 x) 7))
        (assert (or (= (* 3 y) 7) (and (>= y 4) (<= y 4)) (= (* 2 y) 9)))
        (assert (and (or (= z 2) (= z (- 1)))
                     (not (exists ((t Int)) (and (>= t 0) (< t z))))))
        (check-sat)(get-model)
    """

    def test_private_goals_sat_with_a_model(self):
        out = run(self.PRIVATE)
        assert out[0] == "sat"
        m = _model(out)
        assert 2 <= m["x"] and 2 * m["x"] <= 7
        assert 3 * m["y"] == 7 or m["y"] == 4 or 2 * m["y"] == 9
        assert m["z"] == -1  # no t with 0 <= t < z

    def test_private_disjunction_without_solution_is_unsat(self):
        script = self.PRIVATE.replace("(and (>= y 4) (<= y 4))", "(= (* 4 y) 6)")
        assert run(script)[0] == "unsat"

    def test_distinct(self):
        assert status("(declare-const x Int)(assert (distinct x x))(check-sat)") == "unsat"
        assert (
            status("(declare-const x Int)(declare-const y Int)(assert (distinct x y))(check-sat)")
            == "sat"
        )

    def test_implication(self):
        script = """
        (declare-const x Int)
        (assert (=> (>= x 0) (>= x 10)))
        (assert (<= x 20))
        (check-sat)
        """
        assert status(script) == "sat"

    def test_multiplication_by_constant(self):
        script = """
        (declare-const x Int)
        (assert (= (* 2 x) 7))
        (check-sat)
        """
        assert status(script) == "unsat"

    def test_unsupported_is_unknown(self):
        assert status("(declare-const x Int)(assert (= (* x x) 4))(check-sat)") == "unknown"

    def test_unsupported_command_ends_the_script(self):
        # Skipping push/pop would answer the second check-sat about the
        # wrong assertion set (x > 0 and x < 0 instead of x > 0 alone).
        out = run(
            """
            (declare-const x Int)
            (assert (> x 0))
            (push 1)
            (assert (< x 0))
            (check-sat)
            (pop 1)
            (check-sat)
            """
        )
        assert out == ['(error "unsupported command push")']

    @pytest.mark.parametrize("script, message", [
        ('("a b")', '"unsupported command ""a b"""'),
        ("((a))", '"unsupported command (a)"'),
        ('((a "x") b)', '"unsupported command (a ""x"")"'),
    ])
    def test_unsupported_head_is_an_smtlib_string(self, script, message):
        # The head is printed as an s-expression with its quotes doubled, so
        # a client reading the pipe gets one well-formed error form.
        expected = [["error", message]]
        assert parse_all(solve_text(script)) == expected
        proc = pipe_driver(script)
        assert proc.returncode == 0
        assert parse_all(proc.stdout) == expected

    @pytest.mark.parametrize("script, command", [
        ("(assert)", "assert"),
        ("(assert (not))", "assert"),
        ("(declare-const)", "declare-const"),
        ("(declare-fun f)", "declare-fun"),
        ("(declare-const x Int)(assert (>= (-) x))", "assert"),
        ("(assert (exists (x) true))", "assert"),
    ])
    def test_ill_formed_command_ends_the_script(self, script, command):
        # A missing or misshapen argument is reported like an unsupported
        # command, through the pipe driver too: no traceback, exit 0, and
        # the check-sat after it is not answered.
        expected = [f'(error "ill-formed {command}")']
        assert run(script + "(check-sat)") == expected
        proc = pipe_driver(script + "(check-sat)")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == expected


#: An assertion the engine cannot decide: (forall t. t + a >= 0) is false
#: for every a, but no equality pins a, so the forall is never ground
#: (undecided, not unsat).
UNDECIDED = "(and (>= a 0) (forall ((t Int)) (>= (+ t a) 0)))"


class TestUndecidedChild:
    def test_does_not_hide_a_later_sat_sibling(self):
        out = run(
            "(set-option :produce-models true)(declare-const a Int)(declare-const b Int)"
            f"(assert (or {UNDECIDED} (= b 1)))(check-sat)(get-model)"
        )
        assert out[0] == "sat"
        assert _model(out)["b"] == 1

    def test_is_not_memoized_as_failed(self):
        # Both values of c leave the same residual problem, which mentions
        # neither c nor any variable pinned on the way: a disjunction over b
        # and the disjunction of the undecided goal with a contradiction. The
        # first visit must not record it as failed, or the second would be a
        # memo hit; with no sat child anywhere the answer is unknown.
        out = run(
            "(declare-const a Int)(declare-const b Int)(declare-const c Int)"
            "(assert (>= c 0))(assert (or (= c 0) (= c 1)))"
            "(assert (or (>= b 0) (<= b (- 10))))"
            f"(assert (or {UNDECIDED} (and (= b 1) (= b 2))))"
            "(check-sat)(get-info :reason-unknown)(get-info :all-statistics)"
        )
        assert out[:2] == NON_GROUND
        stats = out[2].strip("()").split()
        pairs = dict(zip(stats[::2], stats[1::2]))
        assert pairs[":failed-memo-hits"] == "0"
        # Each of the 2 branches on c opens 2 on b; each of those opens the
        # 2 disjuncts.
        assert pairs[":branches"] == str(2 * (1 + 2 * (1 + 2)))

    def test_does_not_mask_a_spent_step_budget(self, monkeypatch):
        # The first disjunct is undecided; the step budget then runs out in
        # the second, ten variables in {0, 1, 2} whose weighted sum cannot
        # reach 1000. The budget stops the whole solve, so the answer names
        # it rather than the reason the undecided sibling left behind.
        names = [f"v{i}" for i in range(10)]
        box = "".join(f"(or (= {v} 0) (= {v} 1) (= {v} 2))" for v in names)
        total = " ".join(f"(* {i + 1} {v})" for i, v in enumerate(names))
        monkeypatch.setattr(refsolver, "_Engine", functools.partial(_Engine, step_budget=1000))
        out = run(
            "(declare-const a Int)" + "".join(f"(declare-const {v} Int)" for v in names)
            + f"(assert (or {UNDECIDED} (and {box} (= (+ {total}) 1000))))"
            "(check-sat)(get-info :reason-unknown)"
        )
        assert out == ["unknown", '(:reason-unknown "step budget exhausted")']


class TestBranchOnValues:
    """A quantified goal's free variable takes its values from a disjunction
    of equalities: the search branches over the disjuncts, and never over
    the values of a variable that inequalities only box."""

    def test_undecided_value_before_a_sat_one(self):
        # With c = 0 the ground forall needs UNDECIDED refuted for every a,
        # and that check is undecided; with c = 1 the forall is true.
        forall = f"(assert (forall ((a Int)) (or (>= c 1) (not {UNDECIDED}))))"
        out = run(
            "(set-option :produce-models true)(declare-const c Int)"
            f"(assert (or (= c 0) (= c 1))){forall}"
            "(check-sat)(get-model)(get-info :all-statistics)"
        )
        assert out[0] == "sat"
        assert _model(out)["c"] == 1
        stats = out[-1].strip("()").split()
        assert dict(zip(stats[::2], stats[1::2]))[":branches"] == "2"  # c = 0, c = 1
        assert answer(f"(declare-const c Int)(assert (>= c 0))(assert (<= c 1)){forall}") \
            == NON_GROUND

    def test_exhausted_range_is_memoized(self):
        # Both values of d leave the same residual problem: c in {0, 1} under
        # a forall that fails for each. The first visit exhausts the values
        # of c and memoizes the problem as failed; the second is a memo hit.
        out = run(
            "(declare-const c Int)(declare-const d Int)"
            "(assert (>= d 0))(assert (or (= d 0) (= d 1)))"
            "(assert (or (= c 0) (= c 1)))(assert (forall ((t Int)) (>= t c)))"
            "(check-sat)(get-info :all-statistics)"
        )
        assert out[0] == "unsat"
        stats = out[1].strip("()").split()
        pairs = dict(zip(stats[::2], stats[1::2]))
        assert pairs[":failed-memo-hits"] == "1"
        assert pairs[":branches"] == "4"  # d = 0, then c = 0 and 1, then d = 1


class TestFailureMemo:
    def test_concurrent_interleavings_share_failures(self):
        # Ten A and ten C tokens fire once each, so every run is an
        # interleaving of at most 20 steps and no path reaches k = 21. Two
        # interleavings of the same steps leave the same residual problem:
        # the failure memo refutes it once (230 branches, 81 memo hits),
        # while a search without it walks the orderings and answers unknown
        # at this test's 10 s timeout.
        problem = parse_problem("initial " + ", ".join(["A"] * 10 + ["C"] * 10)
                                + " rules A -> a -> B C -> a -> D formula EG(A + C >= 0)")
        verdict = check(problem.bpp, problem.initial, problem.formula, 21,
                        SolverConfig(BUNDLED_COMMAND, 10.0))
        assert verdict.result == "not-holds"
        assert verdict.stats["solver_branches"] <= 1000
        assert verdict.stats["solver_failed_memo_hits"] > 0


class TestGetInfo:
    def test_statistics_of_the_last_check(self):
        out = run(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (or (= x 1) (= x 2)))
            (assert (or (= y x) (= y 5)))
            (assert (> y 4))
            (check-sat)
            (get-info :all-statistics)
            """
        )
        assert out[0] == "sat"
        stats = out[1].strip("()").split()
        pairs = dict(zip(stats[::2], stats[1::2]))
        assert list(pairs) == [
            ":steps", ":propagate-rounds", ":branches", ":omega-calls",
            ":failed-memo-hits", ":time",
        ]
        assert int(pairs[":branches"]) >= 1
        assert int(pairs[":propagate-rounds"]) >= 1
        assert float(pairs[":time"]) >= 0.0

    def test_reason_unknown(self):
        out = run(
            """
            (declare-const x Int)
            (assert (= (* x x) 4))
            (check-sat)
            (get-info :reason-unknown)
            """
        )
        assert out == ["unknown", '(:reason-unknown "unsupported formula shape")']

    def test_probe_window_is_the_reason(self):
        # The forall's free variable a is bounded on one side only, so the
        # reason names the non-ground goal.
        out = run(
            """
            (declare-const a Int)
            (assert (>= a 0))
            (assert (forall ((t Int)) (>= (+ t a) 0)))
            (check-sat)
            (get-info :reason-unknown)
            """
        )
        assert out == NON_GROUND

    def test_no_reason_after_a_definite_answer(self):
        out = run("(assert false)(check-sat)(get-info :reason-unknown)")
        assert out[0] == "unsat"
        assert out[1].startswith("(error")

    def test_unknown_flag_is_unsupported(self):
        assert run("(get-info :version)") == ["unsupported"]


def _reductions(monkeypatch, k: int) -> int:
    """Literal reductions the engine makes on the liveness demo at bound k."""
    problem = parse_problem(LIVENESS.read_text(encoding="utf-8"))
    text = encode_eg(problem.bpp, problem.initial, problem.formula, k).script.text
    count = 0
    reduce_lit = _Engine._reduce_lit

    def counting(self, node, subst):
        nonlocal count
        count += 1
        return reduce_lit(self, node, subst)

    monkeypatch.setattr(_Engine, "_reduce_lit", counting)
    assert solve_text(text).startswith("sat\n")
    return count


def _visits(monkeypatch, k: int) -> int:
    """Goal visits the engine makes on the liveness demo at bound k: each
    literal reduced, node peeked and free-variable set looked up."""
    problem = parse_problem(LIVENESS.read_text(encoding="utf-8"))
    text = encode_eg(problem.bpp, problem.initial, problem.formula, k).script.text
    count = 0

    def counting(method):
        def visit(*args):
            nonlocal count
            count += 1
            return method(*args)
        return visit

    for cls, name in ((_Engine, "_reduce_lit"), (_Engine, "_peek"), (_FreeVars, "of")):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    assert solve_text(text).startswith("sat\n")
    monkeypatch.undo()
    return count


class TestIncrementalPropagation:
    def test_reductions_grow_linearly_with_k(self, monkeypatch):
        # Propagation revisits only what a branch added or pinned, so
        # doubling the path length about doubles the work; a full rescan
        # per search level quadruples it.
        at_100 = _reductions(monkeypatch, 100)
        at_200 = _reductions(monkeypatch, 200)
        assert at_200 <= 2.5 * at_100, (at_100, at_200)

    def test_visits_per_level_stay_flat(self, monkeypatch):
        # The path doubles from k = 100 to k = 200, and so do the search
        # levels. A level that looks only at the goals its pins touch keeps
        # the total visits at about twice; a level that scans every pending
        # goal for the memo key or the branch choice makes them grow about
        # 3.6 times.
        at_100 = _visits(monkeypatch, 100)
        at_200 = _visits(monkeypatch, 200)
        assert at_200 <= 2.5 * at_100, (at_100, at_200)

    def test_eg_unrollings_vs_bounded_oracle(self):
        # Path-shaped scripts: k chained disjunctions (one per step) of
        # conjunctions of equalities, plus per-position atoms and successor
        # blocks, solved in process and compared with the explicit oracle.
        rng = random.Random(404)
        compared = sat = 0
        for _ in range(120):
            n = rng.randint(2, 4)
            symbols = tuple(f"P{i}" for i in range(n))
            rules = tuple(
                Rule(rid, rng.choice(symbols), rng.choice("ab"),
                     tuple(rng.choice(symbols) for _ in range(rng.randint(0, 2))))
                for rid in range(rng.randint(2, 5))
            )
            bpp = Bpp(symbols, rules)
            init = random_marking(rng, bpp)
            k = rng.randint(1, 8)
            body = random_atom(rng, bpp)
            if rng.random() < 0.5:
                body = And(body, ENext(rng.choice("ab"), random_atom(rng, bpp)))
            f = EG(body)
            text = encode_eg(bpp, init, f, k).script.text
            expected = eval_bounded(f, init, k, bpp)
            assert expected.is_definite
            got = solve_text(text).split("\n", 1)[0]
            assert got == ("sat" if expected.value else "unsat"), (bpp, init, k, f)
            compared += 1
            sat += expected.value
        assert compared == 120
        assert 20 <= sat <= 100

    def test_forced_splices_vs_enumeration(self):
        # Each script opens with a two-variable equality over a and b, then
        # pins c. Pinning c leaves one live disjunct in the next goal; its
        # splice pins b, which the first literal (already scanned in that
        # round) mentions, and that in turn decides a. The splice also
        # brings a goal that is already true by c, over a variable z that
        # nothing may pin. Random chained disjunctions of equalities follow.
        # Verdicts and models are checked against enumeration of the box
        # every variable is asserted into.
        rng = random.Random(505)
        names = ["w0", "w1", "w2", "w3", "w4"]
        box = 2
        verdicts = set()
        for _ in range(150):
            a, b, c, d, z = rng.sample(names, 5)
            m = rng.choice([1, -1, 2])
            r = rng.randint(-3, 3)
            v = rng.randint(-box, box)
            e, f = rng.randint(-box, box), rng.randint(-box, box)
            other = rng.choice([x for x in range(-box, box + 1) if x != v])
            items = [
                (f"(= (+ {a} (* {_num(m)} {b})) {_num(r)})",
                 lambda env, a=a, b=b, m=m, r=r: env[a] + m * env[b] == r),
                (f"(= {c} {_num(v)})", lambda env, c=c, v=v: env[c] == v),
            ]
            inner, inner_ev = _chained_disjunction(rng, names, box)
            true_by_c = f"(or (= {c} {_num(v)}) (= {z} {box + 1}))"
            forced_tail = f"(and (= {b} {_num(e)}) (= {d} {_num(f)}) {true_by_c} {inner})"
            items.append((
                f"(or (and (= {c} {_num(other)}) (= {d} {_num(f)})) {forced_tail})",
                lambda env, b=b, c=c, d=d, z=z, e=e, f=f, v=v, other=other, inner_ev=inner_ev: (
                    env[c] == other and env[d] == f
                ) or (
                    env[b] == e and env[d] == f and (env[c] == v or env[z] == box + 1)
                    and inner_ev(env)
                ),
            ))
            for _ in range(rng.randint(0, 3)):
                items.append(_chained_disjunction(rng, names, box))
            decls = "".join(f"(declare-const {x} Int)" for x in names)
            bounds = "".join(f"(assert (and (>= {x} (- {box})) (<= {x} {box})))" for x in names)
            asserts = "".join(f"(assert {smt})" for smt, _ in items)
            script = f"(set-option :produce-models true){decls}{bounds}{asserts}(check-sat)(get-model)"
            expected = any(
                all(ev(dict(zip(names, point))) for _, ev in items)
                for point in itertools.product(range(-box, box + 1), repeat=len(names))
            )
            out = run(script)
            assert out[0] == ("sat" if expected else "unsat"), script
            if expected:
                model = _model(out)
                assert all(ev(model) for _, ev in items), script
            verdicts.add(out[0])
        assert verdicts == {"sat", "unsat"}


class TestRandomQuantifierFree:
    def test_vs_enumeration(self):
        rng = random.Random(202)
        for _ in range(250):
            n_vars = rng.randint(1, 3)
            names = [f"w{i}" for i in range(n_vars)]
            box = 3
            formula, py_eval = _random_formula(rng, names, depth=2)
            decls = "".join(f"(declare-const {v} Int)" for v in names)
            bounds = "".join(
                f"(assert (and (>= {v} (- {box})) (<= {v} {box})))" for v in names
            )
            script = f"{decls}{bounds}(assert {formula})(check-sat)"
            expected = any(
                py_eval(dict(zip(names, point)))
                for point in itertools.product(range(-box, box + 1), repeat=n_vars)
            )
            got = status(script)
            assert got == ("sat" if expected else "unsat"), script


class TestRandomMinusTerms:
    def test_vs_enumeration(self):
        # Terms built with n-ary (- a b c), unary (- a), + and constant *,
        # compared in random relations against enumeration of the box. Its
        # own generator, so the other random suites draw what they did.
        rng = random.Random(606)
        names = ["w0", "w1", "w2"]
        box = 2
        verdicts = set()
        for _ in range(200):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                lhs, lhs_ev = _random_term(rng, names, depth=3)
                rhs, rhs_ev = _random_term(rng, names, depth=1)
                op = rng.choice([">=", "<=", ">", "<", "=", "distinct"])
                atoms.append((
                    f"({op} {lhs} {rhs})",
                    lambda env, op=op, l=lhs_ev, r=rhs_ev: _holds(op, l(env), r(env)),
                ))
            join = rng.choice(["and", "or"])
            formula = f"({join} " + " ".join(smt for smt, _ in atoms) + ")"
            combine = all if join == "and" else any
            decls = "".join(f"(declare-const {v} Int)" for v in names)
            bounds = "".join(f"(assert (and (>= {v} (- {box})) (<= {v} {box})))" for v in names)
            script = (f"(set-option :produce-models true){decls}{bounds}"
                      f"(assert {formula})(check-sat)(get-model)")

            def holds(env, atoms=atoms, combine=combine):
                return combine(ev(env) for _, ev in atoms)

            expected = any(
                holds(dict(zip(names, point)))
                for point in itertools.product(range(-box, box + 1), repeat=len(names))
            )
            out = run(script)
            assert out[0] == ("sat" if expected else "unsat"), script
            if expected:
                assert holds(_model(out)), script
            verdicts.add(out[0])
        assert verdicts == {"sat", "unsat"}


class TestRandomSingleQuantifier:
    def test_exists_block_vs_enumeration(self):
        # exists(q) phi(q, w) with both q and w boxed: compare against
        # enumeration over the product box. A negated block over w0 is
        # ground only once w0 is pinned, so with w0 boxed by inequalities it
        # may be undecided, never wrong; with the box written as a
        # disjunction of w0's values every instance is decided.
        rng = random.Random(303)
        undecided = 0
        for _ in range(150):
            names = ["w0"]
            qvar = "q0"
            box = 3
            formula, py_eval = _random_formula(rng, names + [qvar], depth=2)
            inner = f"(exists (({qvar} Int)) (and (>= {qvar} (- {box})) (<= {qvar} {box}) {formula}))"
            wrap = rng.choice(["plain", "neg"])
            if wrap == "neg":
                inner = f"(not {inner})"
            values = " ".join(f"(= w0 {_num(v)})" for v in range(-box, box + 1))

            def outer_truth(wval: int) -> bool:
                found = any(
                    py_eval({"w0": wval, qvar: qval})
                    for qval in range(-box, box + 1)
                )
                return (not found) if wrap == "neg" else found

            expected = "sat" if any(outer_truth(wv) for wv in range(-box, box + 1)) else "unsat"
            for pinned, w0_box in ((False, f"(and (>= w0 (- {box})) (<= w0 {box}))"),
                                   (True, f"(or {values})")):
                script = f"(declare-const w0 Int)(assert {w0_box})(assert {inner})"
                got = answer(script)
                if got == NON_GROUND and wrap == "neg" and not pinned:
                    undecided += 1
                else:
                    assert got[0] == expected, script
        assert 0 < undecided < 75


def _random_formula(rng, names, depth):
    """Random boolean combination over linear atoms; returns (smt, evaluator)."""
    if depth == 0 or rng.random() < 0.35:
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, len(names)))}
        const = rng.randint(-5, 5)
        op = rng.choice([">=", "<=", ">", "<", "=", "distinct"])
        terms = [f"(* {c if c >= 0 else f'(- {-c})'} {v})" for v, c in coeffs.items()]
        if not terms:
            terms = ["0"]
        lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
        rhs = str(const) if const >= 0 else f"(- {-const})"
        smt = f"({op} {lhs} {rhs})"

        def ev(env, coeffs=coeffs, const=const, op=op):
            return _holds(op, sum(c * env[v] for v, c in coeffs.items()), const)

        return smt, ev
    kind = rng.choice(["and", "or", "not", "=>"])
    if kind == "not":
        smt, ev = _random_formula(rng, names, depth - 1)
        return f"(not {smt})", lambda env, ev=ev: not ev(env)
    a_smt, a_ev = _random_formula(rng, names, depth - 1)
    b_smt, b_ev = _random_formula(rng, names, depth - 1)
    if kind == "and":
        return f"(and {a_smt} {b_smt})", lambda env: a_ev(env) and b_ev(env)
    if kind == "or":
        return f"(or {a_smt} {b_smt})", lambda env: a_ev(env) or b_ev(env)
    return f"(=> {a_smt} {b_smt})", lambda env: (not a_ev(env)) or b_ev(env)


def _random_term(rng, names, depth):
    """Random linear term over n-ary and unary minus, + and constant
    scaling; returns (smt, evaluator)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            value = rng.randint(-4, 4)
            return _num(value), lambda env, value=value: value
        v = rng.choice(names)
        return v, lambda env, v=v: env[v]
    shape = rng.choice(["neg", "minus", "plus", "scale"])
    if shape in ("neg", "scale"):
        smt, ev = _random_term(rng, names, depth - 1)
        if shape == "neg":
            return f"(- {smt})", lambda env: -ev(env)
        k = rng.randint(-3, 3)
        return f"(* {_num(k)} {smt})", lambda env: k * ev(env)
    parts = [_random_term(rng, names, depth - 1) for _ in range(rng.randint(2, 4))]
    evs = [ev for _, ev in parts]
    smt = f"({'-' if shape == 'minus' else '+'} " + " ".join(p for p, _ in parts) + ")"
    if shape == "minus":
        return smt, lambda env: evs[0](env) - sum(ev(env) for ev in evs[1:])
    return smt, lambda env: sum(ev(env) for ev in evs)


def _holds(op: str, left: int, right: int) -> bool:
    return {
        ">=": left >= right, "<=": left <= right, ">": left > right,
        "<": left < right, "=": left == right, "distinct": left != right,
    }[op]


def _model(out: list[str]) -> dict[str, int]:
    """The model a get-model printed, as a dict."""
    model = {}
    for line in out:
        if "define-fun" in line:
            parts = line.replace("(", " ").replace(")", " ").split()
            model[parts[1]] = -int(parts[-1]) if parts[-2] == "-" else int(parts[-1])
    return model


def _num(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _chained_disjunction(rng, names, box):
    """(or (and (= x p) (= y q)) ...) over random variable pairs, like one
    step of a path unrolling; returns (smt, evaluator)."""
    disjuncts = []
    for _ in range(rng.randint(1, 3)):
        x, y = rng.sample(names, 2)
        p, q = rng.randint(-box, box), rng.randint(-box, box)
        shape = rng.random()
        if shape < 0.2:
            disjuncts.append((f"(= {x} {_num(p)})", lambda env, x=x, p=p: env[x] == p))
        elif shape < 0.6:
            smt = f"(and (= {x} {_num(p)}) (= {y} {_num(q)}))"
            disjuncts.append((smt, lambda env, x=x, y=y, p=p, q=q: env[x] == p and env[y] == q))
        else:
            smt = f"(and (= {x} {_num(p)}) (= (+ {y} (* (- 1) {x})) {_num(q)}))"
            disjuncts.append(
                (smt, lambda env, x=x, y=y, p=p, q=q: env[x] == p and env[y] - env[x] == q)
            )
    smt = "(or " + " ".join(d for d, _ in disjuncts) + ")"
    evs = [ev for _, ev in disjuncts]
    return smt, lambda env: any(ev(env) for ev in evs)
