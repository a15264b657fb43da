"""The oracle itself is validated on hand-computed cases no deeper than two
steps before anything else trusts it."""

import operator
import random

import pytest

from bppcheck.core import Bpp, Rule, successors
from bppcheck.ctl import EF, And, Atom, Cmp, EG, ENext, Not
from bppcheck.oracle import (
    ExplorationBudget,
    OracleAnswer,
    check_ef_oracle,
    eval_bounded,
    reachable_set,
    to_dot,
)

from .conftest import atom


class TestReachableSet:
    def test_two_step_frontier_by_hand(self, triangle):
        # depth 0: (1,0,0); depth 1: r1 -> (0,1,1);
        # depth 2: r2 -> (1,1,1), r3 -> (1,1,0).
        got, _ = reachable_set(triangle, (1, 0, 0), ExplorationBudget(max_depth=2))
        assert {(1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)} <= got
        assert got == {(1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)}

    def test_ruleless_is_complete_singleton(self):
        bpp = Bpp(("X",), ())
        got, complete = reachable_set(bpp, (1,))
        assert got == {(1,)}
        assert complete

    def test_grower_reaches_y(self, grower):
        got, _ = reachable_set(grower, (1, 0, 0), ExplorationBudget(max_depth=3))
        assert any(m[2] == 1 for m in got)

    def test_budget_trips_on_infinite_space(self, grower):
        got, complete = reachable_set(grower, (1, 0, 0), ExplorationBudget(max_states=50))
        assert not complete
        assert len(got) <= 50

    def test_depth_cut_without_loss_is_complete(self, triangle):
        # The full reachable set of the triangle system from (0,0,1) through
        # r3 only: (0,0,1) -> (1,0,0) -> (0,1,1) -> ... is infinite, so pick
        # a finite system instead: one rule X -> Y.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("Y",)),))
        got, complete = reachable_set(bpp, (1, 0), ExplorationBudget(max_depth=5))
        assert got == {(1, 0), (0, 1)}
        assert complete

    def test_determinism_across_orders(self, triangle):
        budget = ExplorationBudget(max_depth=3)
        first, _ = reachable_set(triangle, (1, 0, 0), budget)
        reversed_rules = Bpp(
            symbols=triangle.symbols,
            rules=tuple(
                Rule(i, r.lhs, r.action, r.rhs)
                for i, r in enumerate(reversed(triangle.rules))
            ),
        )
        second, _ = reachable_set(reversed_rules, (1, 0, 0), budget)
        assert first == second


class TestCheckEfOracle:
    def test_grower_y_equals_one(self, grower):
        psi = atom({"Y": 1}, Cmp.EQ, 1)
        assert check_ef_oracle(grower, (1, 0, 0), psi) == OracleAnswer.definitely(True)

    def test_dead_symbol_definitely_false(self):
        bpp = Bpp(("X", "Y"), ())
        psi = atom({"Y": 1}, Cmp.GE, 1)
        assert check_ef_oracle(bpp, (1, 0), psi) == OracleAnswer.definitely(False)

    def test_budget_exhaustion_reported(self, grower):
        psi = atom({"Y": 1}, Cmp.GE, 10**9)
        got = check_ef_oracle(grower, (1, 0, 0), psi, ExplorationBudget(max_states=30))
        assert got == OracleAnswer.exhausted()

    def test_satisfying_marking_beats_budget(self, grower):
        # Found on the first layer even though the budget is minimal.
        psi = atom({"X": 1}, Cmp.GE, 1)
        got = check_ef_oracle(grower, (1, 0, 0), psi, ExplorationBudget(max_states=1))
        assert got == OracleAnswer.definitely(True)


class TestEvalBounded:
    def test_atom_clause(self, triangle):
        a = atom({"X1": 1}, Cmp.GE, 1)
        for k in (0, 1, 3):
            assert eval_bounded(a, (1, 0, 0), k, triangle) == OracleAnswer.definitely(True)

    def test_enext_needs_a_step(self, triangle):
        f = ENext("a", atom({"X2": 1}, Cmp.GE, 1))
        assert eval_bounded(f, (1, 0, 0), 0, triangle) == OracleAnswer.definitely(False)
        assert eval_bounded(f, (1, 0, 0), 1, triangle) == OracleAnswer.definitely(True)

    def test_enext_respects_action_label(self, labeled_cycle):
        # From (1,0,0) the only move is r1 (action a) to (0,1,1).
        f_b = ENext("b", atom({"Y": 1}, Cmp.GE, 1))
        f_a = ENext("a", atom({"Y": 1}, Cmp.GE, 1))
        assert eval_bounded(f_b, (1, 0, 0), 2, labeled_cycle) == OracleAnswer.definitely(False)
        assert eval_bounded(f_a, (1, 0, 0), 2, labeled_cycle) == OracleAnswer.definitely(True)

    def test_eg_k0_equals_atom(self, triangle):
        a = atom({"X1": 1}, Cmp.GE, 1)
        for m in [(1, 0, 0), (0, 1, 1), (2, 1, 0)]:
            got = eval_bounded(EG(a), m, 0, triangle)
            assert got == OracleAnswer.definitely(m[0] >= 1)

    def test_eg_one_step_by_hand(self, triangle):
        # EG(X1 + X2 + X3 >= 1) at k=1 from (1,0,0): the only path is
        # (1,0,0) -r1-> (0,1,1); both markings have total >= 1.
        total_ge_1 = atom({"X1": 1, "X2": 1, "X3": 1}, Cmp.GE, 1)
        assert eval_bounded(EG(total_ge_1), (1, 0, 0), 1, triangle) == OracleAnswer.definitely(True)

    def test_eg_two_step_by_hand(self, triangle):
        # EG(X2 == 0) at k=2 from (1,0,0): step one forces (0,1,1) where
        # X2 = 1, so no two-step path keeps X2 at zero.
        x2_zero = atom({"X2": 1}, Cmp.EQ, 0)
        assert eval_bounded(EG(x2_zero), (1, 0, 0), 2, triangle) == OracleAnswer.definitely(False)

    def test_eg_requires_full_length_path(self):
        # X -> Y and then deadlock: EG(true-ish) fails for k=2 because no
        # two-step path exists at all.
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("Y",)),))
        always = atom({"X": 1, "Y": 1}, Cmp.GE, 0)
        assert eval_bounded(EG(always), (1, 0), 1, bpp) == OracleAnswer.definitely(True)
        assert eval_bounded(EG(always), (1, 0), 2, bpp) == OracleAnswer.definitely(False)

    def test_eg_of_enext_small_k(self, triangle):
        # EG(E<a>(X2 + X3 >= 2)) at k=1 from (1,0,0):
        #  position 0 = (1,0,0): successor (0,1,1) has X2+X3 = 2, good;
        #  the path must take r1 to (0,1,1);
        #  position 1 = (0,1,1): r2 gives (1,1,1) with X2+X3 = 2, good.
        body = ENext("a", atom({"X2": 1, "X3": 1}, Cmp.GE, 2))
        assert eval_bounded(EG(body), (1, 0, 0), 1, triangle) == OracleAnswer.definitely(True)

    def test_not_and_combination(self, triangle):
        a = atom({"X1": 1}, Cmp.GE, 1)
        b = atom({"X2": 1}, Cmp.GE, 1)
        f = And(a, Not(b))
        assert eval_bounded(f, (1, 0, 0), 0, triangle) == OracleAnswer.definitely(True)
        assert eval_bounded(f, (1, 1, 0), 0, triangle) == OracleAnswer.definitely(False)

    def test_budget_exhaustion(self, grower):
        body = atom({"Y": 1}, Cmp.LE, 10**9)
        f = EG(body)
        got = eval_bounded(f, (1, 0, 0), 3, grower, ExplorationBudget(max_states=2))
        assert got == OracleAnswer.exhausted()

    def test_ef_search_out_of_budget_is_an_unknown_node(self, grower):
        # As in ctl.check: the unknown EF node decides nothing next to a
        # false conjunct, and leaves the answer open where it counts.
        far = EF(atom({"Y": 1}, Cmp.GE, 10**9))
        no_s = atom({"S": 1}, Cmp.EQ, 0)

        def answer(f, k=0):
            return eval_bounded(f, (1, 0, 0), k, grower, ExplorationBudget(max_states=30))

        assert answer(And(far, no_s)) == OracleAnswer.definitely(False)
        assert answer(And(far, Not(no_s))) == OracleAnswer.exhausted()
        assert answer(EG(Not(far)), 1) == OracleAnswer.exhausted()

    def test_ef_body_must_be_propositional(self, triangle):
        with pytest.raises(TypeError, match="EF bodies over atoms"):
            eval_bounded(EF(ENext("a", atom({"X1": 1}, Cmp.GE, 1))), (1, 0, 0), 1, triangle)

    def test_unbounded_growth_still_terminates(self, grower):
        f = EG(atom({"Y": 1}, Cmp.GE, 0))
        got = eval_bounded(f, (1, 0, 0), 3, grower)
        assert got == OracleAnswer.definitely(True)


class TestAgainstBruteForcePaths:
    def test_eg_matches_explicit_path_enumeration(self, triangle, grower):
        # Enumerate all k-step rule paths explicitly and compare.
        rng = random.Random(23)
        for bpp in (triangle, grower):
            for _ in range(60):
                k = rng.randint(0, 3)
                coeffs = {s: rng.randint(-1, 2) for s in bpp.symbols}
                coeffs = {s: c for s, c in coeffs.items() if c} or {bpp.symbols[0]: 1}
                body = atom(coeffs, rng.choice(list(Cmp)), rng.randint(0, 2))
                init = tuple(rng.randint(0, 2) for _ in bpp.symbols)

                def paths_ok(m, rem):
                    if not body.atom.evaluate(m, bpp):
                        return False
                    if rem == 0:
                        return True
                    return any(paths_ok(t, rem - 1) for _, t in successors(m, bpp))

                expected = OracleAnswer.definitely(paths_ok(init, k))
                assert eval_bounded(EG(body), init, k, bpp) == expected

    def test_nested_formulas_match_a_recursion_of_their_own(self, triangle, labeled_cycle):
        # The k-step semantics written out once more, with nothing from
        # ctl.evaluate: E<a> needs k >= 1 and keeps k, EG needs a path of
        # exactly k steps with its body (at the same k) at every position.
        truth = {Cmp.GE: operator.ge, Cmp.LE: operator.le, Cmp.GT: operator.gt,
                 Cmp.LT: operator.lt, Cmp.EQ: operator.eq, Cmp.NE: operator.ne}

        def holds(f, m, k, bpp):
            if isinstance(f, Atom):
                total = sum(c * m[bpp.symbols.index(s)] for s, c in f.atom.terms)
                return truth[f.atom.cmp](total, f.atom.bound)
            if isinstance(f, Not):
                return not holds(f.sub, m, k, bpp)
            if isinstance(f, And):
                return holds(f.left, m, k, bpp) and holds(f.right, m, k, bpp)
            if isinstance(f, ENext):
                return k >= 1 and any(holds(f.sub, t, k, bpp)
                                      for a, t in successors(m, bpp) if a == f.action)

            def path(u, rem):
                return holds(f.sub, u, k, bpp) and (
                    rem == 0 or any(path(t, rem - 1) for _, t in successors(u, bpp)))

            return path(m, k)

        def formula(rng, bpp, depth):
            kind = rng.choice(("atom", "not", "and", "next", "eg")) if depth else "atom"
            if kind == "atom":
                coeffs = {s: c for s in bpp.symbols if (c := rng.randint(-1, 2))}
                return atom(coeffs or {bpp.symbols[0]: 1}, rng.choice(list(Cmp)), rng.randint(0, 2))
            if kind == "and":
                return And(formula(rng, bpp, depth - 1), formula(rng, bpp, depth - 1))
            sub = formula(rng, bpp, depth - 1)
            return {"not": Not(sub), "next": ENext(rng.choice("ab"), sub), "eg": EG(sub)}[kind]

        rng = random.Random(31)
        for bpp in (triangle, labeled_cycle):
            for _ in range(150):
                f = formula(rng, bpp, rng.randint(0, 3))
                k = rng.randint(0, 3)
                init = tuple(rng.randint(0, 2) for _ in bpp.symbols)
                expected = OracleAnswer.definitely(holds(f, init, k, bpp))
                assert eval_bounded(f, init, k, bpp) == expected, (f, init, k)


class TestDot:
    def test_dot_contains_nodes_and_edges(self, triangle):
        text = to_dot(triangle, (1, 0, 0), ExplorationBudget(max_depth=1))
        assert text.startswith("digraph")
        assert '"(1,0,0)"' in text
        assert '"(0,1,1)"' in text
        assert '[label="a"]' in text
