import random
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from bppcheck import ctl, smt
from bppcheck.core import Bpp, Rule, fire
from bppcheck.ctl import And, Cmp, EF, EG, Not, check
from bppcheck.ef import (
    atoms_to_node,
    encode_flow,
    encode_reachability,
    realize_firing_counts,
    siphon_cut,
)
from bppcheck.errors import MixedFormula, SolverProtocolError
from bppcheck.oracle import ExplorationBudget, check_ef_oracle, explore
from bppcheck.parsing import parse_problem
from bppcheck.smt import SolverConfig, conj, disj, eval_node, lin, run_solver, to_smtlib
from bppcheck.smt.runner import BUNDLED_COMMAND

from .conftest import atom, random_atom, random_bpp, random_marking

REF = SolverConfig((sys.executable, "-m", "bppcheck.refsolver"), 30.0)
BUNDLED = SolverConfig(BUNDLED_COMMAND, 30.0)
DATA = Path(__file__).parent / "data"


def assert_realizes(bpp, init, counts, replay) -> None:
    """The sequence fires each rule exactly its count, every step enabled
    (core.fire raises otherwise), and ends in the returned marking."""
    seq, reached = replay
    assert Counter(seq) == +Counter(counts), (counts, seq)
    marking = init
    for rid in seq:
        marking = fire(marking, rid, bpp)
    assert marking == reached


def assert_witness_replays(bpp, init, psi, flow, witness) -> None:
    counts = {rid: witness[y] for rid, y in flow.vars.y.items()}
    replay = realize_firing_counts(bpp, init, counts)
    assert replay is not None, (bpp, init, counts)
    assert_realizes(bpp, init, counts, replay)
    _, reached = replay
    assert reached == tuple(witness[flow.vars.x[sym]] for sym in bpp.symbols)
    assert psi.atom.evaluate(reached, bpp)


class TestEncoding:
    def test_variable_naming_and_order(self, grower):
        enc = encode_reachability(grower, (1, 0, 0))
        assert enc.vars.x == {"S": "x_S", "X": "x_X", "Y": "x_Y"}
        assert enc.vars.y == {0: "y_1", 1: "y_2"}
        assert enc.declarations == ("x_S", "x_X", "x_Y", "y_1", "y_2", "z_S", "z_X", "z_Y")

    def test_flow_admits_the_expected_solution(self, grower):
        # x_S=0, x_X=1, x_Y=1 with one use of each rule satisfies the flow
        # equations: check by substituting into each emitted constraint.
        enc = encode_reachability(grower, (1, 0, 0))
        env = {
            "x_S": 0, "x_X": 1, "x_Y": 1,
            "y_1": 1, "y_2": 1,
            "z_S": 1, "z_X": 2, "z_Y": 3,
        }
        assert eval_node(conj(enc.constraints), env) is True

    def test_ruleless_encoding_fixes_counts(self):
        bpp = Bpp(("X",), ())
        enc = encode_reachability(bpp, (1,))
        script = to_smtlib(conj(enc.constraints), enc.declarations)
        outcome = run_solver(script, REF)
        assert outcome.status == "sat"
        assert outcome.model["x_X"] == 1
        assert enc.vars.y == {}

    def test_total_count_law(self, triangle):
        # Summing the flow equations over all symbols: each rule contributes
        # its net token change (r1 +1, r2 +1, r3 +0), so any solution has
        # x_X1 + x_X2 + x_X3 = 1 + y_1 + y_2.
        enc = encode_reachability(triangle, (1, 0, 0))
        psi = atoms_to_node(atom({"X2": 1}, Cmp.GE, 1), enc.vars.x)
        script = to_smtlib(conj(list(enc.constraints) + [psi]), enc.declarations)
        outcome = run_solver(script, REF)
        assert outcome.status == "sat"
        m = outcome.model
        assert m["x_X1"] + m["x_X2"] + m["x_X3"] == 1 + m["y_1"] + m["y_2"]

    def test_one_shot_encoding_extends_the_flow_equations(self, grower):
        flow = encode_flow(grower, (1, 0, 0))
        enc = encode_reachability(grower, (1, 0, 0))
        assert flow.declarations == ("x_S", "x_X", "x_Y", "y_1", "y_2")
        assert flow.vars.z == {}
        assert enc.constraints[: len(flow.constraints)] == flow.constraints
        assert len(enc.constraints) > len(flow.constraints)

    def test_flow_pins_only_statically_dead_rules(self):
        # X -> Y and Y -> X can fire from X; Z is never marked, so Z -> Z, Y
        # never fires and its count is pinned to 0.
        bpp = Bpp(("X", "Y", "Z"), (Rule(0, "X", "a", ("Y",)), Rule(1, "Y", "a", ("X",)),
                                    Rule(2, "Z", "a", ("Z", "Y"))))
        flow = encode_flow(bpp, (1, 0, 0))
        assert flow.constraints[3:6] == (
            lin([("y_1", 1)], ">=", 0), lin([("y_2", 1)], ">=", 0), lin([("y_3", 1)], "=", 0)
        )

    def test_multi_symbol_initial_marking(self, triangle):
        # init X2=2: zero firings already give x_X2 = 2.
        enc = encode_reachability(triangle, (0, 2, 0))
        psi = atoms_to_node(atom({"X2": 1}, Cmp.GE, 2), enc.vars.x)
        script = to_smtlib(conj(list(enc.constraints) + [psi]), enc.declarations)
        assert run_solver(script, REF).status == "sat"


class TestCheckEf:
    def test_grower_reaches_y_one(self, grower):
        verdict = check(grower, (1, 0, 0), EF(atom({"Y": 1}, Cmp.EQ, 1)), 0, REF)
        assert verdict.result == "holds"
        assert verdict.engine == "ef"
        assert verdict.k is None
        assert verdict.witness["x_Y"] == 1

    def test_ruleless_zero_firing(self):
        bpp = Bpp(("X",), ())
        verdict = check(bpp, (1,), EF(atom({"X": 1}, Cmp.GE, 1)), 0, REF)
        assert verdict.result == "holds"

    def test_source_symbol_never_grows(self, grower):
        verdict = check(grower, (1, 0, 0), EF(atom({"S": 1}, Cmp.GE, 2)), 0, REF)
        assert verdict.result == "not-holds"

    def test_boolean_combination(self, grower):
        f = And(EF(atom({"Y": 1}, Cmp.GE, 3)), Not(EF(atom({"S": 1}, Cmp.GE, 2))))
        scripts = []
        verdict = check(grower, (1, 0, 0), f, 0, REF, on_script=scripts.append)
        assert verdict.result == "holds"
        # The first model for Y >= 3 fires X -> X Y but not S -> X; one cut
        # later it is realizable. S >= 2 already fails the flow equations.
        bodies = ["(>= x_Y 3)" in s.text for s in scripts]
        assert bodies == [True, True, False]
        assert verdict.stats["ef_rounds"] == 3

    def test_atom_only_formula_needs_no_solver(self, grower):
        verdict = check(grower, (1, 0, 0), atom({"S": 1}, Cmp.GE, 1), 0, REF)
        assert verdict.result == "holds"
        assert verdict.stats["solver_calls"] == 0

    def test_no_statistics_without_a_solver_call(self, grower):
        # No EF node is met, so no flow equations are encoded or counted.
        f = Not(atom({"S": 1}, Cmp.GE, 2))
        verdict = check(grower, (1, 0, 0), f, 0, REF)
        stats = verdict.stats
        assert (stats["n_vars"], stats["n_asserts"], stats["ef_rounds"]) == (0, 0, 0)
        assert stats["solver_calls"] == 0

    def test_mixed_formula_rejected(self, grower):
        # An EF body must be propositional: EF(EG ...) has no engine.
        with pytest.raises(MixedFormula):
            check(grower, (1, 0, 0), EF(EG(atom({"S": 1}, Cmp.GE, 1))), 3, REF)

    def test_unknown_solver_maps_to_unknown(self, grower):
        fake = SolverConfig((sys.executable, "-c", "print('unknown')"), 5)
        verdict = check(grower, (1, 0, 0), EF(atom({"Y": 1}, Cmp.GE, 1)), 0, fake)
        assert verdict.result == "unknown"
        assert verdict.witness is None

    def test_lying_solver_is_caught(self, grower):
        # A "solver" that answers sat with an all-zero model must be rejected
        # by the independent constraint evaluator.
        lie = (
            "import sys, re\n"
            "data = sys.stdin.read()\n"
            "names = re.findall(r'declare-const (\\S+)', data)\n"
            "print('sat')\n"
            "print('(' + ' '.join(f'(define-fun {n} () Int 0)' for n in names) + ')')\n"
        )
        fake = SolverConfig((sys.executable, "-c", lie), 5)
        with pytest.raises(SolverProtocolError):
            check(grower, (1, 0, 0), EF(atom({"Y": 1}, Cmp.EQ, 1)), 0, fake)


class TestRealize:
    def test_grower_sequence_forced(self, grower):
        assert realize_firing_counts(grower, (1, 0, 0), {0: 1, 1: 1}) == ([0, 1], (0, 1, 1))

    def test_zero_counts_empty_sequence(self, triangle):
        assert realize_firing_counts(triangle, (1, 0, 0), {}) == ([], (1, 0, 0))

    def test_triangle_two_rule_plan(self, triangle):
        assert realize_firing_counts(triangle, (1, 0, 0), {0: 1, 2: 1}) == ([0, 2], (1, 1, 0))

    def test_backtracking_needed(self):
        # Rule order tempts a greedy replay to kill X first; only X->X then
        # X->nil works.
        bpp = Bpp(("X",), (Rule(0, "X", "a", ()), Rule(1, "X", "a", ("X",))))
        assert realize_firing_counts(bpp, (1,), {0: 1, 1: 1}) == ([1, 0], (0,))

    def test_unrealizable(self):
        bpp = Bpp(("X", "Y"), (Rule(0, "Y", "a", ()),))
        assert realize_firing_counts(bpp, (1, 0), {0: 1}) is None

    def test_bad_counts_rejected(self, triangle):
        with pytest.raises(ValueError, match="negative"):
            realize_firing_counts(triangle, (1, 0, 0), {0: -1})
        with pytest.raises(ValueError, match="no rule with id 3"):
            realize_firing_counts(triangle, (1, 0, 0), {3: 1})

    def test_self_loops_need_no_search(self):
        # The replay must not search: six self-loops fired 8 times each leave
        # 9^6 remaining-count vectors, and the unfireable Y -> nil makes
        # every one of them a dead end.
        loops = tuple(Rule(i, f"X{i}", "a", (f"X{i}",)) for i in range(6))
        symbols = tuple(f"X{i}" for i in range(6))
        counts = {i: 8 for i in range(6)}
        start = time.perf_counter()
        with_y = Bpp(symbols + ("Y",), loops + (Rule(6, "Y", "a", ()),))
        assert realize_firing_counts(with_y, (1,) * 6 + (0,), {**counts, 6: 1}) is None
        replay = realize_firing_counts(Bpp(symbols, loops), (1,) * 6, counts)
        assert replay == ([i for i in range(6) for _ in range(8)], (1,) * 6)
        assert time.perf_counter() - start < 1.0


class TestRealizeDifferential:
    def test_against_oracle_exploration(self):
        # Explore (marking, remaining counts) states until every count is
        # spent: realizable exactly when the oracle reaches such a state.
        rng = random.Random(99)
        budget = ExplorationBudget(max_states=20_000)
        realizable = unrealizable = 0
        for i in range(500):
            bpp = random_bpp(rng, max_symbols=5, max_rules=8, max_rhs=3)
            init = random_marking(rng, bpp)
            counts = {rule.rid: rng.randint(0, 3) for rule in bpp.rules}

            def succ(state):
                marking, rem = state
                for rid, left in enumerate(rem):
                    if left and marking[bpp.index[bpp.rules[rid].lhs]]:
                        yield fire(marking, rid, bpp), rem[:rid] + (left - 1,) + rem[rid + 1:]

            start = (init, tuple(counts.values()))
            seen, complete = explore(start, succ, budget, lambda state: not any(state[1]))
            found = not any(next(reversed(seen))[1])
            replay = realize_firing_counts(bpp, init, counts)
            if found:
                assert replay is not None, (i, bpp, init, counts)
                assert_realizes(bpp, init, counts, replay)
                realizable += 1
            elif complete:  # else the state cap cut the exploration short: skip
                assert replay is None, (i, bpp, init, counts)
                unrealizable += 1
        assert realizable >= 200 and unrealizable >= 200, (realizable, unrealizable)


class TestDifferential:
    def test_against_oracle_with_witness_validation(self):
        rng = random.Random(424)
        budget = ExplorationBudget(max_states=4000)
        compared = 0
        for i in range(60):
            bpp = random_bpp(rng)
            init = random_marking(rng, bpp)
            psi = random_atom(rng, bpp)
            expected = check_ef_oracle(bpp, init, psi, budget)
            verdict = check(bpp, init, EF(psi), 0, REF)
            flow = encode_flow(bpp, init)
            assert verdict.result in ("holds", "not-holds")
            if expected.is_definite:
                got = verdict.result == "holds"
                assert got == expected.value, (bpp, init, psi)
                compared += 1
            if verdict.result == "holds":
                assert_witness_replays(bpp, init, psi, flow, verdict.witness)
        assert compared >= 30

    def test_lazy_loop_matches_the_one_shot_encoding(self):
        # The criterion-3 generator: the refinement loop and one solve of
        # the flow equations plus the connectivity block must agree.
        rng = random.Random(8086)
        refined = 0
        for i in range(300):
            bpp = random_bpp(rng, max_symbols=5, max_rules=8, max_rhs=3)
            init = random_marking(rng, bpp)
            psi = random_atom(rng, bpp)
            verdict = check(bpp, init, EF(psi), 0, BUNDLED)
            refined += verdict.stats["ef_rounds"] > 1
            enc = encode_reachability(bpp, init)
            node = conj(list(enc.constraints) + [atoms_to_node(psi, enc.vars.x)])
            one_shot = run_solver(to_smtlib(node, enc.declarations), BUNDLED).status
            assert one_shot in ("sat", "unsat"), (i, bpp)
            want = "holds" if one_shot == "sat" else "not-holds"
            assert verdict.result == want, (i, bpp, init, psi)
        assert refined >= 5  # the cuts decide some of them


class TestSiphonCut:
    # S -> X, X -> X Y: a model that fires X -> X Y without S -> X uses a
    # rule whose left symbol X is not derivable from the marked S.
    def test_realizable_counts_need_no_cut(self, grower):
        ys = encode_flow(grower, (1, 0, 0)).vars.y
        assert siphon_cut(grower, (1, 0, 0), ys, {"y_1": 1, "y_2": 3}) is None
        assert siphon_cut(grower, (1, 0, 0), ys, {"y_1": 0, "y_2": 0}) is None

    def test_cut_puts_the_feeders_first(self, grower):
        ys = encode_flow(grower, (1, 0, 0)).vars.y
        model = {"y_1": 0, "y_2": 3}
        cut = siphon_cut(grower, (1, 0, 0), ys, model)
        # S = {X, Y}; inside: X -> X Y; feeder: S -> X.
        assert cut == disj([lin([("y_1", 1)], ">=", 1), lin([("y_2", 1)], "=", 0)])
        assert eval_node(cut, model) is False
        assert eval_node(cut, {"y_1": 1, "y_2": 3}) is True

    def test_inside_is_one_summed_equality(self):
        # S -> X feeds the cycle X -> Y, Y -> X, which the model fires alone.
        bpp = Bpp(("S", "X", "Y"), (Rule(0, "S", "a", ("X",)), Rule(1, "X", "a", ("Y",)),
                                    Rule(2, "Y", "a", ("X",))))
        ys = encode_flow(bpp, (1, 0, 0)).vars.y
        cut = siphon_cut(bpp, (1, 0, 0), ys, {"y_1": 0, "y_2": 2, "y_3": 2})
        no_inside = lin([("y_2", 1), ("y_3", 1)], "=", 0)
        assert cut == disj([lin([("y_1", 1)], ">=", 1), no_inside])
        assert "(= (+ y_2 y_3) 0)" in to_smtlib(cut, tuple(ys.values())).text

    def test_no_feeder_gives_a_unit_cut(self):
        # Y is never produced, so Y -> nil can only stay unused.
        bpp = Bpp(("X", "Y"), (Rule(0, "Y", "a", ()),))
        ys = encode_flow(bpp, (1, 0)).vars.y
        assert siphon_cut(bpp, (1, 0), ys, {"y_1": 1}) == lin([("y_1", 1)], "=", 0)


class TestRefinementDeadline:
    def test_rounds_share_the_node_budget(self, monkeypatch):
        # ring8_seed3 needs 5 rounds. A fake clock advances 0.4 s per solver
        # call, so a 1 s budget gives rounds 0.4 s apart with 1.0, 0.6 and
        # 0.2 s left, then runs out between rounds: the node answers unknown
        # with reason timeout. The second EF node shares the check's
        # deadline, so it gets what is left, nothing, and answers timeout
        # without a solver call.
        problem = parse_problem((DATA / "ring8_seed3.bpp").read_text())
        now = [100.0]
        budgets: list[float] = []

        def slow(script, config):
            budgets.append(config.timeout_s)
            now[0] += 0.4
            return run_solver(script, BUNDLED)

        monkeypatch.setattr(ctl, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(smt, "run_solver", slow)
        f = And(problem.formula, EF(atom({"P0": 1}, Cmp.GE, 1)))
        verdict = check(problem.bpp, problem.initial, f, 0, SolverConfig(BUNDLED_COMMAND, 1.0))
        assert verdict.result == "unknown"
        assert verdict.stats["reason_unknown"] == "timeout"
        assert verdict.stats["ef_rounds"] == verdict.stats["solver_calls"] == 3
        assert budgets == pytest.approx([1.0, 0.6, 0.2])


class TestHardInstances:
    # Instances the one-shot encoding could not decide in 15 s with the
    # bundled solver; ring n = 16 seed 3 was the one it decided quickly.
    @pytest.mark.parametrize(
        "name", ["ring8_seed3", "ring9_seed1", "dead4x4_seed0", "ring16_seed3"]
    )
    def test_decided_like_the_oracle(self, name):
        problem = parse_problem((DATA / f"{name}.bpp").read_text())
        bpp, init, psi = problem.bpp, problem.initial, problem.formula.sub
        expected = check_ef_oracle(bpp, init, psi, ExplorationBudget(max_states=100_000))
        assert expected.is_definite
        verdict = check(bpp, init, problem.formula, 0, BUNDLED)
        flow = encode_flow(bpp, init)
        assert verdict.result == ("holds" if expected.value else "not-holds")
        if verdict.result == "holds":
            assert_witness_replays(bpp, init, psi, flow, verdict.witness)

    def test_static_siphon_refutes_the_dead_generator_at_once(self):
        # Dead-generator 8x8 seed 2: no D symbol is derivable from L0, so the
        # flow equations pin every D rule and round 1 is unsat by propagation.
        problem = parse_problem((DATA / "dead8x8_seed2.bpp").read_text())
        verdict = check(problem.bpp, problem.initial, problem.formula, 0, BUNDLED)
        assert verdict.result == "not-holds"
        assert verdict.stats["ef_rounds"] == 1
        assert verdict.stats["solver_omega_calls"] == 0
