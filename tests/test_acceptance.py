"""Acceptance suite: the exit criteria for the whole checker.

Each test enforces one criterion at its stated tolerance and prints a
PASS line on success (visible with ``pytest -s`` or in the captured
output). Random suites are seeded and their instance counts meet the
stated minimums.
"""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from bppcheck.acs import (
    acs_successors,
    convert,
    convert_place,
    mailbox_content,
    parse_acs,
    parse_property,
)
from bppcheck.core import Bpp, Rule
from bppcheck.ctl import AF, Atom, Cmp, EF, EG, ENext, And, Imp, LinearAtom, check
from bppcheck.ef import encode_flow, realize_firing_counts
from bppcheck.eg import encode_eg
from bppcheck.errors import ParseError
from bppcheck.oracle import (
    ExplorationBudget,
    check_ef_oracle,
    eval_bounded,
    explore,
    reachable_set,
)
from bppcheck.parsing import parse_problem
from bppcheck.smt import resolve_solver, run_solver

from .conftest import random_atom, random_bpp, random_marking
from .test_acs import random_acs, random_place
from .test_eg import random_eg_formula
from .test_parsing import ACCEPT_CORPUS, REJECT_CORPUS

DATA = Path(__file__).parent / "data"
SOLVER = resolve_solver(timeout_s=60.0)


def report(criterion: int, text: str) -> None:
    print(f"acceptance criterion {criterion}: PASS - {text}")


def example_system() -> Bpp:
    return Bpp(
        symbols=("X1", "X2", "X3"),
        rules=(
            Rule(0, "X1", "a", ("X2", "X3")),
            Rule(1, "X2", "a", ("X1", "X2")),
            Rule(2, "X3", "a", ("X1",)),
        ),
    )


def atom(coeffs: dict, cmp: Cmp, bound: int) -> Atom:
    return Atom(LinearAtom(tuple(coeffs.items()), cmp, bound))


PHI1 = EG(ENext("a", atom({"X2": 1, "X3": 1}, Cmp.GE, 2)))
PHI2 = EG(
    Imp(
        atom({"X1": 1, "X2": 1}, Cmp.GE, 2),
        ENext("a", And(atom({"X1": 1}, Cmp.GE, 2), atom({"X3": 1}, Cmp.GE, 1))),
    )
)
PHI3 = EG(AF(atom({"X1": 1, "X2": 1}, Cmp.GE, 2)))


class TestCriterion1FigureRegression:
    def test_reachability_with_certified_witness(self):
        start = time.perf_counter()
        problem = parse_problem((DATA / "reach.bpp").read_text())
        verdict = check(problem.bpp, problem.initial, problem.formula, 0, SOLVER)
        enc = encode_flow(problem.bpp, problem.initial)
        assert verdict.result == "holds"
        model = verdict.witness

        # Independent re-evaluation of the flow equation per symbol:
        # init(P) + sum_r y_r*rhs_r(P) - sum_{lhs(r)=P} y_r = x_P.
        for i, sym in enumerate(problem.bpp.symbols):
            total = problem.initial[i]
            for rule in problem.bpp.rules:
                y = model[enc.vars.y[rule.rid]]
                total += y * sum(1 for s in rule.rhs if s == sym)
                if rule.lhs == sym:
                    total -= y
            assert total == model[enc.vars.x[sym]], sym

        counts = {rid: model[y] for rid, y in enc.vars.y.items()}
        sequence, final = realize_firing_counts(problem.bpp, problem.initial, counts)
        assert sequence == [0, 1]
        assert final == (0, 1, 1)
        assert final[problem.bpp.index["Y"]] == 1

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        report(1, f"holds with flow-consistent model and 2-step witness in {elapsed:.2f}s")


class TestCriterion2CaseStudy:
    def test_all_three_properties_refuted(self):
        acs, place = parse_acs((DATA / "pingpong.acs").read_text())
        cb = convert(acs)
        init = convert_place(cb, place)
        timings = []
        for text in ("EF(q0 >= 2)", "EF(q1 >= 2)", "EF(mail(p, m) >= 2)"):
            formula = parse_property(text, cb)
            start = time.perf_counter()
            verdict = check(cb.bpp, init, formula, 0, SOLVER)
            elapsed = time.perf_counter() - start
            assert verdict.result == "not-holds", text
            assert elapsed < 1.0, f"{text} took {elapsed:.2f}s"
            timings.append(elapsed)
        report(2, "all three case-study properties refuted in "
                  + ", ".join(f"{t:.2f}s" for t in timings))


class TestCriterion3EfDifferential:
    N_INSTANCES = 300

    def test_no_disagreement_and_certified_witnesses(self):
        rng = random.Random(31337)
        budget = ExplorationBudget(max_states=3000)
        start = time.perf_counter()
        definite = 0
        holds_certified = 0
        for i in range(self.N_INSTANCES):
            bpp = random_bpp(rng, max_symbols=5, max_rules=8, max_rhs=3)
            init = random_marking(rng, bpp)
            psi = random_atom(rng, bpp)
            expected = check_ef_oracle(bpp, init, psi, budget)
            verdict = check(bpp, init, EF(psi), 0, SOLVER)
            enc = encode_flow(bpp, init)
            assert verdict.result in ("holds", "not-holds"), (i, bpp)
            if expected.is_definite:
                assert (verdict.result == "holds") == expected.value, (i, bpp, init, psi)
                definite += 1
            if verdict.result == "holds":
                model = verdict.witness
                counts = {rid: model[y] for rid, y in enc.vars.y.items()}
                replay = realize_firing_counts(bpp, init, counts)
                assert replay is not None, (i, bpp, init, counts)
                sequence, final = replay
                assert Counter(sequence) == +Counter(counts), (i, counts, sequence)
                assert psi.atom.evaluate(final, bpp), (i, final)
                holds_certified += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        assert definite >= self.N_INSTANCES // 2
        report(3, f"{self.N_INSTANCES} instances, {definite} definite oracle answers, "
                  f"{holds_certified} witnesses realized, {elapsed:.0f}s")


class TestCriterion4EgDifferential:
    N_INSTANCES = 200

    def test_bounded_engine_matches_bounded_oracle(self):
        rng = random.Random(271828)
        budget = ExplorationBudget(max_states=30_000)
        start = time.perf_counter()
        compared = 0
        solver_unknowns = 0
        for i in range(self.N_INSTANCES):
            bpp = random_bpp(rng, max_symbols=4, max_rules=6, max_rhs=2)
            init = random_marking(rng, bpp)
            k = rng.randint(0, 3)
            f = random_eg_formula(rng, bpp, rng.randint(1, 3))
            expected = eval_bounded(f, init, k, bpp, budget)
            verdict = check(bpp, init, f, k, SOLVER)
            if verdict.result == "unknown":
                solver_unknowns += 1
                continue
            if expected.is_definite:
                assert (verdict.result == "holds") == expected.value, (i, bpp, init, k, f)
                compared += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        assert compared >= int(self.N_INSTANCES * 0.8)
        assert solver_unknowns <= self.N_INSTANCES * 0.05
        report(4, f"{self.N_INSTANCES} instances, {compared} compared, "
                  f"{solver_unknowns} solver unknowns, {elapsed:.0f}s")


def check_unrolled(bpp, init, formula, k):
    """The k-step unrolling alone, without the lasso window ``check``
    tries first: its verdict and the solving time the solver reports."""
    outcome = run_solver(encode_eg(bpp, init, formula, k).script, SOLVER)
    result = {"sat": "holds", "unsat": "not-holds"}.get(outcome.status, "unknown")
    return result, outcome.solve_ms


class TestCriterion5BoundedScaling:
    KS = (5, 10, 20, 50)

    def test_scaling_and_monotone_solver_time(self):
        bpp = example_system()
        init = (1, 0, 0)
        summary = []
        # PHI1 has a lasso within the window, so check decides it at
        # every k with no unrolling and no solver call; the scaling below
        # is the unrolling's.
        for k in self.KS:
            verdict = check(bpp, init, PHI1, k, SOLVER)
            assert verdict.result == "holds", k
            assert verdict.stats["bound"] == "unbounded", k
            assert verdict.stats["solver_calls"] == 0, k
        for name, formula, large_k_unknown_ok in (
            ("phi1", PHI1, False),
            ("phi2", PHI2, False),
            ("phi3", PHI3, True),
        ):
            times: dict[int, float] = {}
            for k in self.KS:
                best = None
                reps = 0
                while reps < 5:
                    start = time.perf_counter()
                    result, solver_ms = check_unrolled(bpp, init, formula, k)
                    elapsed = time.perf_counter() - start
                    # 60 s solver budget plus the runner's kill grace.
                    assert elapsed < 66.0, f"{name} at k={k} took {elapsed:.1f}s"
                    if result == "unknown":
                        assert large_k_unknown_ok and k >= 20, (
                            f"{name} at k={k} returned unknown"
                        )
                        break
                    assert result in ("holds", "not-holds")
                    best = solver_ms if best is None else min(best, solver_ms)
                    reps += 1
                    if elapsed > 1.0:
                        break
                if best is not None:
                    times[k] = best
            measured = [times[k] for k in self.KS if k in times]
            ks = [k for k in self.KS if k in times]
            for a, b in zip(measured, measured[1:]):
                assert a <= b, f"{name}: solver time not monotone: {times}"
            summary.append(f"{name}: " + " ".join(f"k{k}={times[k]:.0f}ms" for k in ks))
        report(5, "; ".join(summary))


class TestCriterion6VariableCountLaw:
    def test_flat_eg_path_variable_count(self):
        for n in (3, 5):
            symbols = tuple(f"P{i}" for i in range(n))
            rules = tuple(
                Rule(i, symbols[i % n], "a", (symbols[(i + 1) % n],)) for i in range(n)
            )
            bpp = Bpp(symbols, rules)
            body = atom({symbols[0]: 1}, Cmp.GE, 0)
            for k in (0, 5, 10):
                enc = encode_eg(bpp, (1,) * n, EG(body), k)
                declared_paths = [
                    v for v in enc.script.declarations if v.startswith("u")
                ]
                assert len(declared_paths) == (k + 1) * n, (n, k)
        report(6, "flat EG declares exactly (k+1)*n path variables for n in {3,5}")

    def test_nested_shape_quadratic_growth(self):
        # The nested EG shape allocates one inner block of (k+1)*n variables
        # per outer path position: (k+1)^2 * n quantified variables, growing
        # quadratically with k+1. (The companion prose figure with an extra
        # factor of n miscounts the construction; see the structural law.)
        bpp = example_system()
        n = bpp.n
        counts = {}
        for k in (5, 11):
            enc = encode_eg(bpp, (1, 0, 0), PHI3, k)
            assert enc.path_vars_declared == (k + 1) * n
            counts[k] = enc.path_vars_total - enc.path_vars_declared
            assert counts[k] == (k + 1) ** 2 * n
        assert counts[11] == counts[5] * 4  # (12/6)^2
        report(6, "nested EG quantified path variables follow (k+1)^2 growth")


class TestCriterion7OverApproximation:
    N_INSTANCES = 100

    def test_every_reachable_place_has_counterpart(self):
        rng = random.Random(161803)
        start = time.perf_counter()
        checked_places = 0
        for i in range(self.N_INSTANCES):
            acs = random_acs(rng)
            init = random_place(rng, acs)
            cb = convert(acs)
            bpp_init = convert_place(cb, init)
            places, _ = explore(
                init,
                lambda pl: [nxt for _, nxt in acs_successors(acs, pl)],
                ExplorationBudget(max_states=3000, max_depth=6),
            )
            markings, _ = reachable_set(
                cb.bpp, bpp_init, ExplorationBudget(max_states=80_000, max_depth=6)
            )
            projected = set()
            for m in markings:
                u = tuple(m[cb.bpp.index[q]] for q in acs.states)
                v = tuple(mailbox_content(cb, m, p, msg) for p, msg in acs.pairs)
                projected.add((u, v))
            for pl in places:
                assert (pl.u, pl.v) in projected, (i, acs, init, pl)
                checked_places += 1
        elapsed = time.perf_counter() - start
        report(7, f"{self.N_INSTANCES} systems, {checked_places} places matched, "
                  f"{elapsed:.0f}s, zero violations")


class TestCriterion8ConversionCount:
    def test_rule_counts_preserved(self):
        rng = random.Random(42424)
        acs_corpus = [parse_acs((DATA / "pingpong.acs").read_text())[0]]
        acs_corpus += [random_acs(rng) for _ in range(50)]
        for acs in acs_corpus:
            cb = convert(acs)
            assert len(cb.bpp.rules) == len(acs.rules)
        report(8, f"|converted rules| == |actor rules| on {len(acs_corpus)} systems")


class TestCriterion9GrammarCorpus:
    def test_accepts_and_rejects(self):
        for name, text, _tags in ACCEPT_CORPUS:
            parse_problem(text)
        for name, text, line, col in REJECT_CORPUS:
            with pytest.raises(ParseError) as err:
                parse_problem(text)
            assert (err.value.line, err.value.column) == (line, col), name
        report(9, f"{len(ACCEPT_CORPUS)} accepted files cover the grammar, "
                  f"{len(REJECT_CORPUS)} near-misses rejected at exact positions")

    def test_full_production_coverage(self):
        covered = set()
        for _name, _text, tags in ACCEPT_CORPUS:
            covered |= tags
        # Mirror of the production checklist in the parser tests.
        from .test_parsing import TestGrammarCorpus

        TestGrammarCorpus().test_every_production_covered()
