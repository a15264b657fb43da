import random
import re
import sys
import time

import pytest

from bppcheck import smt
from bppcheck.core import Bpp, Rule, enabled_rules, fire, rule_delta
from bppcheck.ctl import AF, EF, EG, And, ANext, Cmp, ENext, Imp, Not, Or, check, walk
from bppcheck.eg import (
    WINDOW,
    VarAllocator,
    encode_eg,
    path_constraint,
    t_minus,
    trans,
    trans_constraint,
)
from bppcheck.errors import MixedFormula
from bppcheck.oracle import ExplorationBudget, eval_bounded
from bppcheck.refsolver import solve_text
from bppcheck.smt import FALSE, TRUE, Exists, NotF, OrF, SolverConfig, eval_node, has_quantifier
from bppcheck.smt.runner import parse_info

from .conftest import atom, random_atom, random_bpp, random_marking

REF = SolverConfig((sys.executable, "-m", "bppcheck.refsolver"), 30.0)

#: The bundled solver's reason for a quantified goal with a free variable no
#: equality pins. Every variable the encoders declare or quantify is pinned
#: by a step equality once its step disjunction is chosen, so no encoder
#: script may end in it.
NON_GROUND = "non-ground quantified subformula"


@pytest.fixture
def solver_reasons(monkeypatch) -> list:
    """The reason_unknown of every solver call a check makes."""
    reasons = []
    run_solver = smt.run_solver

    def recording(script, config):
        outcome = run_solver(script, config)
        reasons.append(outcome.reason_unknown)
        return outcome

    monkeypatch.setattr(smt, "run_solver", recording)
    return reasons


class TestParikhMinus:
    """The step encoding's marking change: Parikh vector of the right side
    minus the unit vector of the consumed symbol (core.rule_delta)."""

    def test_decrement_of_consumed_symbol(self, triangle):
        rule = Rule(0, "X2", "a", ("X1", "X2", "X2", "X3", "X3"))
        assert rule_delta(rule, triangle) == (1, 1, 2)

    def test_self_loop_nets_zero(self):
        bpp = Bpp(("X",), (Rule(0, "X", "a", ("X",)),))
        assert rule_delta(bpp.rules[0], bpp) == (0,)

    def test_unit_vectors(self, triangle):
        assert rule_delta(Rule(0, "X3", "a", ("X1",)), triangle) == (1, 0, -1)

    def test_rule_deltas_of_the_standard_system(self, triangle):
        r1, r2, r3 = triangle.rules
        assert rule_delta(r1, triangle) == (-1, 1, 1)
        assert rule_delta(r2, triangle) == (1, 0, 0)
        assert rule_delta(r3, triangle) == (1, 0, -1)


class TestStepConstraints:
    def test_t_minus_is_the_component_equalities(self, triangle):
        s = ("s_1", "s_2", "s_3")
        t = ("t_1", "t_2", "t_3")
        node = t_minus(s, t, triangle.rules[0], triangle)
        # s1 - 1 = t1, s2 + 1 = t2, s3 + 1 = t3
        env_ok = {"s_1": 1, "s_2": 0, "s_3": 0, "t_1": 0, "t_2": 1, "t_3": 1}
        env_bad = dict(env_ok, t_2=2)
        assert eval_node(node, env_ok) is True
        assert eval_node(node, env_bad) is False

    def test_t_minus_third_rule(self, triangle):
        s = ("s_1", "s_2", "s_3")
        t = ("t_1", "t_2", "t_3")
        node = t_minus(s, t, triangle.rules[2], triangle)
        env = {"s_1": 0, "s_2": 1, "s_3": 1, "t_1": 1, "t_2": 1, "t_3": 0}
        assert eval_node(node, env) is True

    def test_trans_constraint_covers_all_a_rules(self, triangle):
        s = ("a_1", "a_2", "a_3")
        t = ("b_1", "b_2", "b_3")
        node = trans_constraint(s, t, "a", triangle)
        assert isinstance(node, OrF) and len(node.items) == 3

    def test_unlabeled_action_gives_false(self, triangle):
        s = ("a_1", "a_2", "a_3")
        t = ("b_1", "b_2", "b_3")
        assert trans_constraint(s, t, "b", triangle) == FALSE

    def test_single_b_rule(self, labeled_cycle):
        s = ("a_1", "a_2", "a_3")
        t = ("b_1", "b_2", "b_3")
        node = trans_constraint(s, t, "b", labeled_cycle)
        # Z -b-> X is the only b-labeled rule; check it behaves like it.
        env = {"a_1": 0, "a_2": 0, "a_3": 1, "b_1": 1, "b_2": 0, "b_3": 0}
        assert eval_node(node, env) is True

    def test_path_k0_is_true(self, triangle):
        u = [("u0_1", "u0_2", "u0_3")]
        assert path_constraint(u, triangle) == TRUE

    def test_path_one_step_disjoins_all_rules(self, triangle):
        u = [("u0_1", "u0_2", "u0_3"), ("u1_1", "u1_2", "u1_3")]
        node = path_constraint(u, triangle)
        assert isinstance(node, OrF) and len(node.items) == 3

    def test_path_two_chained_steps(self, grower):
        # Single-rule chain X -> X Y after S is gone: check a concrete walk.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X", "Y")),))
        u = [("u0_X", "u0_Y"), ("u1_X", "u1_Y"), ("u2_X", "u2_Y")]
        node = path_constraint(u, bpp)
        env = {"u0_X": 1, "u0_Y": 0, "u1_X": 1, "u1_Y": 1, "u2_X": 1, "u2_Y": 2}
        assert eval_node(node, env) is True
        env_bad = dict(env, u2_Y=3)
        assert eval_node(node, env_bad) is False


class TestTrans:
    def test_atom_at_concrete_state_folds(self, triangle):
        alloc = VarAllocator()
        node = trans(atom({"X1": 1}, Cmp.GE, 1), (1, 0, 0), 0, triangle, alloc)
        assert eval_node(node, {}) is True

    def test_enext_at_k0_is_false(self, triangle):
        alloc = VarAllocator()
        node = trans(ENext("a", atom({"X1": 1}, Cmp.GE, 0)), (1, 0, 0), 0, triangle, alloc)
        assert node == FALSE

    def test_mixed_rejected(self, triangle):
        with pytest.raises(MixedFormula):
            encode_eg(triangle, (1, 0, 0), EF(atom({"X1": 1}, Cmp.GE, 1)), 2)

    def test_top_block_is_declared_where_made(self, triangle):
        alloc = VarAllocator()
        node = trans(EG(atom({"X1": 1}, Cmp.GE, 0)), (1, 0, 0), 2, triangle, alloc)
        assert alloc.declared == [f"u{j}_{sym}" for j in range(3) for sym in triangle.symbols]
        assert alloc.declared[:3] == ["u0_X1", "u0_X2", "u0_X3"]
        assert not has_quantifier(node)

    def test_negated_block_is_quantified_where_made(self, triangle):
        alloc = VarAllocator()
        node = trans(Not(EG(atom({"X1": 1}, Cmp.GE, 0))), (1, 0, 0), 2, triangle, alloc)
        assert alloc.declared == []
        assert isinstance(node, NotF) and isinstance(node.sub, Exists)
        names = [f"u{j}_{sym}" for j in range(3) for sym in triangle.symbols]
        assert list(node.sub.names) == names

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_names_stay_distinct_when_a_symbol_looks_like_a_block(self, k):
        # X_b2 reads like X with a block suffix: path position j of the
        # first block is u<j>_X_b2, of the second u<j>b2_X.
        bpp = Bpp(("X", "X_b2"), (Rule(0, "X", "a", ("X_b2",)), Rule(1, "X_b2", "a", ("X",)),
                                  Rule(2, "X_b2", "b", ())))
        init = (1, 0)
        f = And(EG(atom({"X": 1}, Cmp.LE, 1)), EG(AF(atom({"X": 1}, Cmp.GE, 1))))
        enc = encode_eg(bpp, init, f, k)
        # Every declared constant and every exists binder: each names one
        # path or target variable.
        names = re.findall(r"\((?:declare-const )?(\w+) Int\)", enc.script.text)
        assert len(set(names)) == len(names)
        assert {"u0_X_b2", "u0b2_X"} <= set(enc.script.declarations)
        expected = eval_bounded(f, init, k, bpp)
        assert expected.is_definite
        verdict = check(bpp, init, f, k, REF)
        assert verdict.result == ("holds" if expected.value else "not-holds")


class TestCheckEg:
    def test_self_loop_keeps_invariant(self):
        bpp = Bpp(("X",), (Rule(0, "X", "a", ("X",)),))
        verdict = check(bpp, (1,), EG(atom({"X": 1}, Cmp.GE, 1)), 3, REF)
        assert verdict.result == "holds"
        assert verdict.engine == "eg-bounded"
        assert verdict.k == 3

    def test_deadlocked_init_at_k0(self):
        bpp = Bpp(("X", "Y"), (Rule(0, "Y", "a", ("Y",)),))
        verdict = check(bpp, (1, 0), EG(atom({"X": 1}, Cmp.GE, 1)), 0, REF)
        assert verdict.result == "holds"

    def test_deadlock_cannot_extend_path(self):
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("Y",)),))
        always = atom({"X": 1, "Y": 1}, Cmp.GE, 0)
        assert check(bpp, (1, 0), EG(always), 1, REF).result == "holds"
        assert check(bpp, (1, 0), EG(always), 2, REF).result == "not-holds"

    def test_eg_of_next_on_standard_system(self, triangle):
        body = ENext("a", atom({"X2": 1, "X3": 1}, Cmp.GE, 2))
        expected = eval_bounded(EG(body), (1, 0, 0), 5, triangle)
        verdict = check(triangle, (1, 0, 0), EG(body), 5, REF)
        assert expected.is_definite
        assert (verdict.result == "holds") == expected.value

    def test_label_respected(self, labeled_cycle):
        f = ENext("b", atom({"X": 1}, Cmp.GE, 1))
        assert check(labeled_cycle, (1, 0, 0), f, 2, REF).result == "not-holds"
        g = ENext("a", atom({"Y": 1}, Cmp.GE, 1))
        assert check(labeled_cycle, (1, 0, 0), g, 2, REF).result == "holds"

    def test_sugared_connectives_accepted(self, triangle):
        f = EG(Imp(atom({"X1": 1, "X2": 1}, Cmp.GE, 2),
                   ENext("a", And(atom({"X1": 1}, Cmp.GE, 2), atom({"X3": 1}, Cmp.GE, 1)))))
        verdict = check(triangle, (1, 0, 0), f, 3, REF)
        expected = eval_bounded(f, (1, 0, 0), 3, triangle)
        assert expected.is_definite
        assert (verdict.result == "holds") == expected.value

    def test_witness_exposes_path_variables(self, triangle):
        body = atom({"X1": 1, "X2": 1, "X3": 1}, Cmp.GE, 1)
        verdict = check(triangle, (1, 0, 0), EG(body), 2, REF)
        assert verdict.result == "holds"
        assert verdict.witness is not None
        assert {"u0_X1", "u1_X1", "u2_X1"} <= verdict.witness.keys()


class TestVariableCountLaw:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("k", [0, 5, 10])
    def test_declared_path_variables(self, n, k):
        symbols = tuple(f"P{i}" for i in range(n))
        rules = tuple(
            Rule(i, symbols[i % n], "a", (symbols[(i + 1) % n],)) for i in range(n)
        )
        bpp = Bpp(symbols, rules)
        init = (1,) * n
        body = atom({symbols[0]: 1}, Cmp.GE, 0)
        enc = encode_eg(bpp, init, EG(body), k)
        assert enc.path_vars_declared == (k + 1) * n
        declared_in_text = re.findall(r"\(declare-const (u\d+_\w+) Int\)", enc.script.text)
        assert len(declared_in_text) == (k + 1) * n

    @pytest.mark.parametrize("k", [2, 5])
    def test_nested_eg_grows_quadratically(self, triangle, k):
        # EG(AF(...)) is EG(not EG(not ...)): the inner block is
        # allocated once per outer path position (k+1 of them, each of size
        # (k+1)*n), all quantified. The growth is quadratic in k+1.
        n = triangle.n
        f = EG(AF(atom({"X1": 1, "X2": 1}, Cmp.GE, 2)))
        enc = encode_eg(triangle, (1, 0, 0), f, k)
        assert enc.path_vars_declared == (k + 1) * n
        assert enc.path_vars_total - enc.path_vars_declared == (k + 1) ** 2 * n
        assert enc.path_vars_total == (k + 1) * (k + 2) * n

    def test_nested_eg_quadratic_ratio(self, triangle):
        f = EG(AF(atom({"X1": 1, "X2": 1}, Cmp.GE, 2)))
        counts = {
            k: enc.path_vars_total - enc.path_vars_declared
            for k in (1, 3, 7)
            for enc in [encode_eg(triangle, (1, 0, 0), f, k)]
        }
        assert counts[3] / counts[1] == pytest.approx(4.0)  # (4/2)^2
        assert counts[7] / counts[3] == pytest.approx(4.0)  # (8/4)^2

    def test_logic_selection(self, triangle):
        # Blocks outside any negation are declared, so the flat shape is
        # quantifier-free; the nested shape keeps inner blocks under
        # negation, so quantifiers survive.
        flat = encode_eg(triangle, (1, 0, 0), EG(atom({"X1": 1}, Cmp.GE, 0)), 3)
        assert flat.script.logic == "QF_LIA"
        nested = encode_eg(triangle, (1, 0, 0), EG(AF(atom({"X1": 1}, Cmp.GE, 2))), 3)
        assert nested.script.logic == "LIA"

    def test_constraint_growth_is_linear_in_k(self, triangle):
        body = ENext("a", atom({"X2": 1, "X3": 1}, Cmp.GE, 2))
        sizes = {}
        for k in (2, 4, 8):
            enc = encode_eg(triangle, (1, 0, 0), EG(body), k)
            sizes[k] = len(enc.script.text)
        growth_1 = sizes[4] - sizes[2]
        growth_2 = sizes[8] - sizes[4]
        assert growth_2 <= 2.5 * growth_1  # linear, not quadratic


class TestNonnegativityEmergence:
    def test_model_path_variables_are_nonnegative(self, triangle):
        # No explicit >= 0 constraints are emitted for path or target
        # variables, yet every sat model keeps them nonnegative when the
        # initial marking is strictly positive.
        body = ENext("a", atom({"X2": 1, "X3": 1}, Cmp.GE, 2))
        enc = encode_eg(triangle, (1, 1, 1), EG(body), 3)
        assert not re.search(r"\(>= (u\d+_|s\d+_)\w+ 0\)", enc.script.text)
        verdict = check(triangle, (1, 1, 1), EG(body), 3, REF)
        assert verdict.result == "holds"
        for name, value in verdict.witness.items():
            assert value >= 0, (name, value)


def random_eg_formula(rng, bpp, depth):
    actions = sorted(bpp.actions)
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng, bpp)
    kind = rng.choice(["not", "and", "or", "imp", "enext", "anext", "eg", "af"])
    if kind == "not":
        return Not(random_eg_formula(rng, bpp, depth - 1))
    if kind in ("and", "or", "imp"):
        a = random_eg_formula(rng, bpp, depth - 1)
        b = random_eg_formula(rng, bpp, depth - 1)
        return {"and": And, "or": Or, "imp": Imp}[kind](a, b)
    if kind == "enext":
        return ENext(rng.choice(actions), random_eg_formula(rng, bpp, depth - 1))
    if kind == "anext":
        return ANext(rng.choice(actions), random_eg_formula(rng, bpp, depth - 1))
    if kind == "eg":
        return EG(random_eg_formula(rng, bpp, depth - 1))
    return AF(random_eg_formula(rng, bpp, depth - 1))


class TestDifferential:
    def test_against_bounded_oracle(self, solver_reasons):
        rng = random.Random(515)
        budget = ExplorationBudget(max_states=30_000)
        compared = 0
        unknowns = 0
        for _ in range(60):
            bpp = random_bpp(rng, max_symbols=4, max_rules=6, max_rhs=2)
            init = random_marking(rng, bpp)
            k = rng.randint(0, 3)
            f = random_eg_formula(rng, bpp, rng.randint(1, 3))
            expected = eval_bounded(f, init, k, bpp, budget)
            verdict = check(bpp, init, f, k, REF)
            assert verdict.stats.get("reason_unknown") != NON_GROUND, (bpp, init, k, f)
            if verdict.result == "unknown":
                unknowns += 1
                continue
            if expected.is_definite:
                assert (verdict.result == "holds") == expected.value, (bpp, init, k, f)
                compared += 1
        assert compared >= 45
        assert unknowns <= 3
        assert NON_GROUND not in solver_reasons

    def test_deep_formulas_leave_no_quantified_goal_non_ground(self, solver_reasons):
        # Depth 3-4 at k 4-6, through check's per-node scripts and through
        # the root encode_eg script of the whole formula, which quantifies
        # every block under a negation. Undecided is allowed (timeout),
        # non-ground is not, and definite answers agree with each other and
        # with the oracle.
        rng = random.Random(1)
        budget = ExplorationBudget(max_states=30_000)
        config = SolverConfig(REF.command, 0.5)
        quantified = unknowns = 0
        for _ in range(200):
            bpp = random_bpp(rng, max_symbols=4, max_rules=5, max_rhs=2)
            init = random_marking(rng, bpp)
            k = rng.randint(4, 6)
            f = random_eg_formula(rng, bpp, rng.randint(3, 4))
            verdict = check(bpp, init, f, k, config)
            text = encode_eg(bpp, init, f, k).script.text
            quantified += "(exists" in text
            out = solve_text(text, deadline=time.perf_counter() + config.timeout_s)
            status, (reason, _) = out.split("\n", 1)[0], parse_info(out)
            assert verdict.stats.get("reason_unknown") in (None, "timeout"), (bpp, init, k, f)
            assert reason in (None, "timeout"), (bpp, init, k, f)
            results = {verdict.result, {"sat": "holds", "unsat": "not-holds"}.get(status)}
            results -= {"unknown", None}
            assert len(results) <= 1, (bpp, init, k, f)
            unknowns += not results
            expected = eval_bounded(f, init, k, bpp, budget)
            if results and expected.is_definite:
                assert results == {"holds" if expected.value else "not-holds"}, (bpp, init, k, f)
        assert quantified >= 80
        assert unknowns <= 3
        assert NON_GROUND not in solver_reasons


class _Unrolling(Exception):
    """Raised from ``on_script`` when a check hands over to the unrolling."""


def _stop_at_unrolling():
    """An ``on_script`` that raises on any script: the window calls no
    solver, so every script is an unrolling."""

    def on_script(script):
        raise _Unrolling

    return on_script


def assert_witness_replays(bpp, init, body, witness, k):
    """The witness path u0..uk, replayed with ``core``, starts at init,
    each step fires one enabled rule and body holds at every position."""
    path = [tuple(witness[f"u{j}_{sym}"] for sym in bpp.symbols) for j in range(k + 1)]
    assert path[0] == init
    for j in range(k):
        assert any(
            fire(path[j], rid, bpp) == path[j + 1] for rid in enabled_rules(path[j], bpp)
        ), j
    for m in path:
        assert eval_bounded(body, m, k, bpp).value is True, m


class TestLassoWindow:
    """An EG node whose body has no EG is first tried on a WINDOW-step
    lasso; a lasso decides it at every bound above WINDOW."""

    N_INSTANCES = 300

    def test_window_verdicts_match_the_bounded_oracle(self):
        # A check that makes any script is stopped, so each one counted
        # here was decided by a window with no solver call.
        for seed in (4711, 99):
            self.check_window_verdicts(seed)

    def check_window_verdicts(self, seed):
        rng = random.Random(seed)
        budget = ExplorationBudget(max_states=30_000)
        start = time.perf_counter()
        by_window = compared = 0
        for i in range(self.N_INSTANCES):
            bpp = random_bpp(rng, max_symbols=4, max_rules=5, max_rhs=2)
            init = random_marking(rng, bpp)
            k = rng.randint(WINDOW + 1, 25)
            body = random_eg_formula(rng, bpp, rng.randint(1, 3))
            while any(isinstance(g, EG) for g in walk(body)):
                body = random_eg_formula(rng, bpp, rng.randint(1, 3))
            f = rng.choice((EG, AF))(body)
            try:
                verdict = check(bpp, init, f, k, REF, on_script=_stop_at_unrolling())
            except _Unrolling:
                continue
            by_window += 1
            assert verdict.stats["bound"] == "unbounded"
            lasso_start, lasso_end = verdict.stats["lasso"]
            assert 0 <= lasso_start < lasso_end == WINDOW
            # The witness is a path of EG body, or for AF body one of
            # EG not body, which refutes it.
            if isinstance(f, EG):
                assert verdict.result == "holds"
                path_body = body
            else:
                assert verdict.result == "not-holds"
                path_body = Not(body)
            assert_witness_replays(bpp, init, path_body, verdict.witness, k)
            # The verdict holds at k, and being unbounded, at 3k too.
            for bound in (k, 3 * k):
                expected = eval_bounded(f, init, bound, bpp, budget)
                if expected.is_definite:
                    assert (verdict.result == "holds") == expected.value, (seed, i, bound, f)
                    compared += 1
        elapsed = time.perf_counter() - start
        assert by_window >= 60, (seed, by_window)
        assert compared >= by_window * 1.8, (seed, compared, by_window)
        assert elapsed < 5.0, f"seed {seed} took {elapsed:.1f}s"

    def test_shapes_the_window_leaves_to_the_unrolling(self, triangle):
        body = atom({"X1": 1, "X2": 1, "X3": 1}, Cmp.GE, 1)
        scripts = []
        for f, k in (
            (EG(body), WINDOW),  # k within the window
            (EG(AF(body)), 10),  # EG in the body
        ):
            scripts.clear()
            verdict = check(triangle, (1, 0, 0), f, k, REF,
                               on_script=scripts.append)
            assert verdict.stats["bound"] == k
            assert len(scripts) == verdict.stats["solver_calls"] == 1
            assert scripts[0] == encode_eg(triangle, (1, 0, 0), f, k).script

    def test_window_decides_an_eg_under_a_conjunction(self, triangle):
        # The conjunction is evaluated at the initial marking, and the EG
        # node under it goes to the window.
        body = atom({"X1": 1, "X2": 1, "X3": 1}, Cmp.GE, 1)
        verdict = check(triangle, (1, 0, 0), And(body, EG(body)), 10, REF)
        assert verdict.result == "holds"
        assert verdict.stats["bound"] == "unbounded"
        assert verdict.stats["solver_calls"] == 0
        assert_witness_replays(triangle, (1, 0, 0), body, verdict.witness, 10)

    def test_no_lasso_falls_back_to_the_unrolling(self):
        # X -> Y -> nil: every path dies after two steps, so the window
        # finds no lasso and the unrolling refutes EG at k = 10.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("Y",)), Rule(1, "Y", "a", ())))
        always = atom({"X": 1, "Y": 1}, Cmp.GE, 0)
        scripts = []
        verdict = check(bpp, (1, 0), EG(always), 10, REF,
                           on_script=scripts.append)
        assert verdict.result == "not-holds"
        assert verdict.stats["bound"] == 10
        assert "lasso" not in verdict.stats
        assert verdict.stats["solver_calls"] == len(scripts) == 1
        assert scripts[0] == encode_eg(bpp, (1, 0), EG(always), 10).script

    def test_negated_next_needs_a_constant_enabledness(self):
        # X -a-> X, Y and Y -b-> Y: AX(b, false) holds at X alone, and a
        # lasso that grows Y would enable the b-rule. The only path keeps
        # firing the a-rule, which grows Y, so EG fails past one step.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X", "Y")), Rule(1, "Y", "b", ("Y",))))
        no_b = Not(ENext("b", atom({"X": 1}, Cmp.GE, 0)))
        verdict = check(bpp, (1, 0), EG(no_b), 10, REF)
        assert verdict.result == "not-holds"
        assert verdict.stats["bound"] == 10
        assert eval_bounded(EG(no_b), (1, 0), 10, bpp).value is False

    def test_an_atom_the_drift_would_break(self):
        # X -> X, Y grows Y at every step: a lasso exists for Y >= 0 but
        # not for Y <= 3, which fails after four steps.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X", "Y")),))
        grows = check(bpp, (1, 0), EG(atom({"Y": 1}, Cmp.GE, 0)), 10, REF)
        assert (grows.result, grows.stats["bound"]) == ("holds", "unbounded")
        capped = check(bpp, (1, 0), EG(atom({"Y": 1}, Cmp.LE, 3)), 10, REF)
        assert (capped.result, capped.stats["bound"]) == ("not-holds", 10)


class TestNodesAtConcreteMarkings:
    """Only EG unrollings reach the solver: each one at the concrete
    marking where the evaluator meets it, as a script with no negation
    above its block."""

    @pytest.fixture
    def liveness(self):
        # X -a-> Y, Z;  Y -a-> X, Y;  Z -b-> X: the liveness demo.
        return Bpp(("X", "Y", "Z"), (Rule(0, "X", "a", ("Y", "Z")),
                                     Rule(1, "Y", "a", ("X", "Y")),
                                     Rule(2, "Z", "b", ("X",))))

    def test_refuted_af_shows_the_path_that_avoids_its_body(self):
        # X -a-> X, Y grows Y by one a step: no lasso keeps Y below 10, so
        # the unrolling refutes AF(Y >= 10) at k = 6 with a path of Y < 10.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X", "Y")),))
        phi = atom({"Y": 1}, Cmp.GE, 10)
        scripts = []
        verdict = check(bpp, (1, 0), AF(phi), 6, REF, on_script=scripts.append)
        assert verdict.result == "not-holds"
        assert verdict.stats["bound"] == 6
        assert len(scripts) == verdict.stats["solver_calls"] == 1
        assert_witness_replays(bpp, (1, 0), Not(phi), verdict.witness, 6)
        holding = check(bpp, (1, 0), AF(atom({"Y": 1}, Cmp.GE, 3)), 6, REF)
        assert holding.result == "holds"
        assert holding.witness is None

    def test_no_quantifier_above_a_block(self, liveness):
        everything = atom({"X": 1, "Y": 1, "Z": 1}, Cmp.GE, 1)
        init = (1, 0, 0)
        for f in (
            AF(atom({"Z": 1}, Cmp.GE, 1)),
            ANext("a", EG(everything)),
            Not(ENext("a", EG(atom({"Z": 1}, Cmp.GE, 1)))),
            And(EG(everything), AF(atom({"Y": 1}, Cmp.GE, 1))),
        ):
            for k in (3, 10):
                scripts = []
                verdict = check(liveness, init, f, k, REF, on_script=scripts.append)
                expected = eval_bounded(f, init, k, liveness)
                assert (verdict.result == "holds") == expected.value, (f, k)
                # A check with no script had every EG node decided by a window.
                assert scripts or verdict.stats["bound"] == "unbounded", (f, k)
                assert {s.logic for s in scripts} <= {"QF_LIA"}, (f, k)
        nested = EG(AF(atom({"Z": 1}, Cmp.GE, 1)))
        scripts = []
        check(liveness, init, nested, 3, REF, on_script=scripts.append)
        assert [s.logic for s in scripts] == ["LIA"]

    def test_next_without_eg_needs_no_solver(self, liveness):
        f = ENext("a", ANext("b", atom({"X": 1}, Cmp.GE, 1)))
        for k in (0, 1, 3):
            scripts = []
            verdict = check(liveness, (1, 0, 0), f, k, REF, on_script=scripts.append)
            assert verdict.stats["solver_calls"] == len(scripts) == 0
            assert verdict.stats["bound"] == k
            assert verdict.witness is None
            assert (verdict.result == "holds") == eval_bounded(f, (1, 0, 0), k, liveness).value

    def test_unbounded_only_when_every_eg_node_has_a_lasso(self, liveness):
        everything = atom({"X": 1, "Y": 1, "Z": 1}, Cmp.GE, 1)
        # AF(sum < 1) is not EG(not sum < 1): both EG nodes keep sum >= 1
        # on a lasso. AF(sum >= 3) holds since every path reaches sum 3
        # within three steps, which the window cannot show.
        both = And(EG(everything), AF(Not(everything)))
        verdict = check(liveness, (1, 0, 0), both, 10, REF)
        assert (verdict.result, verdict.stats["bound"]) == ("not-holds", "unbounded")
        assert verdict.stats["solver_calls"] == 0
        assert verdict.stats["n_asserts"] == 0
        one_unrolled = And(EG(everything), AF(atom({"X": 1, "Y": 1, "Z": 1}, Cmp.GE, 3)))
        verdict = check(liveness, (1, 0, 0), one_unrolled, 10, REF)
        assert (verdict.result, verdict.stats["bound"]) == ("holds", 10)
        assert verdict.stats["solver_calls"] == 1
        # The witness is the first EG node's lasso, pumped to k steps.
        assert verdict.stats["lasso"][1] == WINDOW
        assert_witness_replays(liveness, (1, 0, 0), everything, verdict.witness, 10)
