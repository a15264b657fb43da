import random

import pytest

from bppcheck import ef, eg
from bppcheck.core import Bpp, Rule
from bppcheck.ctl import (
    AF,
    EF,
    EG,
    And,
    ANext,
    Atom,
    Cmp,
    ENext,
    FormulaClass,
    Imp,
    LinearAtom,
    Not,
    Or,
    atoms_only,
    check,
    classify,
    desugar,
    eval_atomic,
)
from bppcheck.errors import MixedFormula, UnknownSymbol
from bppcheck.oracle import ExplorationBudget, eval_bounded
from bppcheck.smt import eval_node
from bppcheck.smt.runner import BUNDLED_COMMAND, SolverConfig

from .conftest import atom, random_atom, random_bpp, random_marking


def lam(**coeffs):
    cmp = Cmp(coeffs.pop("_cmp", ">="))
    bound = coeffs.pop("_bound", 1)
    return Atom(LinearAtom(tuple(coeffs.items()), cmp, bound))


class TestDesugar:
    # The derived connectives are constructors of their core definitions.
    def test_af_duality(self):
        a = lam(X=1)
        assert AF(a) == Not(EG(Not(a)))

    def test_atom_fixed_point(self):
        # desugar is kept as the identity for callers outside the package.
        f = AF(Or(lam(X=1), ANext("a", lam(Y=1))))
        assert desugar(f) is f

    def test_imp_identity(self):
        a, b = lam(X=1), lam(Y=1)
        assert Imp(a, b) == Not(And(a, Not(b)))

    def test_or(self):
        a, b = lam(X=1), lam(Y=1)
        assert Or(a, b) == Not(And(Not(a), Not(b)))

    def test_anext(self):
        a = lam(X=1)
        assert ANext("a", a) == Not(ENext("a", Not(a)))


class TestClassify:
    def test_ef_atom(self):
        assert classify(EF(lam(Y=1, _cmp="="))) == FormulaClass.EF_CLASS

    def test_eg_with_next(self):
        f = EG(ENext("a", lam(X2=1, X3=1, _bound=2)))
        assert classify(f) == FormulaClass.EG_CLASS

    def test_mixed(self):
        # No engine compiles an EF inside an EG body.
        f = EG(And(lam(X=1), EF(lam(X=1))))
        assert classify(f) == FormulaClass.MIXED

    def test_ef_beside_eg_or_next_is_bounded(self):
        # Each EF node here is met at a concrete marking, where it is exact.
        p, q = EF(lam(X=1)), lam(Y=1)
        for f in (And(p, EG(q)), ENext("a", p), ANext("a", p), Or(AF(q), Not(p))):
            assert classify(f) == FormulaClass.EG_CLASS, f

    def test_ef_under_boolean_combination(self):
        f = Not(And(EF(lam(X=1)), Not(lam(Y=1))))
        assert classify(f) == FormulaClass.EF_CLASS

    def test_enext_under_ef_is_mixed(self):
        f = EF(ENext("a", lam(X=1)))
        assert classify(f) == FormulaClass.MIXED

    def test_nested_ef_is_mixed(self):
        f = EF(EF(lam(X=1)))
        assert classify(f) == FormulaClass.MIXED

    def test_pure_boolean_goes_to_ef(self):
        assert classify(Not(lam(X=1))) == FormulaClass.EF_CLASS

    def test_classification_consistency_random(self):
        rng = random.Random(9)
        for _ in range(300):
            f = _random_formula(rng, depth=3)
            cls = classify(f)
            nodes = list(_walk(f))
            uncompiled = any(
                isinstance(g, EF) and not atoms_only(g.sub)
                or isinstance(g, EG) and any(isinstance(h, EF) for h in _walk(g.sub))
                for g in nodes
            )
            has_eg_or_next = any(isinstance(g, (EG, ENext)) for g in nodes)
            assert (cls == FormulaClass.MIXED) == uncompiled
            if cls == FormulaClass.EF_CLASS:
                assert not has_eg_or_next
            if cls == FormulaClass.EG_CLASS:
                assert has_eg_or_next


class TestEvalAtomic:
    def test_sum_ge(self):
        bpp = Bpp(("X1", "X2", "X3"), (Rule(0, "X1", "a", ()),))
        a = LinearAtom((("X1", 1), ("X2", 1)), Cmp.GE, 2)
        assert eval_atomic(a, (1, 1, 0), bpp) is True

    def test_eq(self):
        bpp = Bpp(("S", "X", "Y"), (Rule(0, "S", "a", ()),))
        a = LinearAtom((("Y", 1),), Cmp.EQ, 1)
        assert eval_atomic(a, (0, 1, 1), bpp) is True

    def test_negative_coefficient(self):
        bpp = Bpp(("X1", "X2", "X3"), (Rule(0, "X1", "a", ()),))
        a = LinearAtom((("X1", 1), ("X2", -1)), Cmp.GT, 0)
        assert eval_atomic(a, (1, 2, 0), bpp) is False

    def test_all_comparators(self):
        # One comparison table serves the evaluator and both encoders: the
        # EF encoding over the reached counts x and the bounded encoding at
        # the concrete marking, which folds the atom to a constant.
        bpp = Bpp(("X",), (Rule(0, "X", "a", ()),))
        m = (2,)
        table = [
            (Cmp.GE, 2, True),
            (Cmp.LE, 1, False),
            (Cmp.GT, 2, False),
            (Cmp.LT, 3, True),
            (Cmp.EQ, 2, True),
            (Cmp.NE, 2, False),
        ]
        for cmp, bound, expected in table:
            a = LinearAtom((("X", 1),), cmp, bound)
            assert eval_atomic(a, m, bpp) is expected
            assert eval_node(ef.atoms_to_node(Atom(a), {"X": "x_X"}), {"x_X": 2}) is expected
            assert eval_node(eg._atom_at(Atom(a), m, bpp), {}) is expected

    def test_unknown_symbol(self):
        bpp = Bpp(("X",), (Rule(0, "X", "a", ()),))
        with pytest.raises(UnknownSymbol):
            eval_atomic(LinearAtom((("Q", 1),), Cmp.GE, 0), (1,), bpp)


def _walk(f):
    yield f
    if isinstance(f, (Not, ENext, EG, EF)):
        yield from _walk(f.sub)
    elif isinstance(f, And):
        yield from _walk(f.left)
        yield from _walk(f.right)


def _random_formula(rng, depth):
    if depth == 0:
        return _random_atom(rng)
    kind = rng.choice(["atom", "not", "and", "or", "imp", "enext", "anext", "eg", "af", "ef"])
    action = rng.choice(["a", "b"])
    if kind == "atom":
        return _random_atom(rng)
    if kind in ("and", "or", "imp"):
        build = {"and": And, "or": Or, "imp": Imp}[kind]
        return build(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    sub = _random_formula(rng, depth - 1)
    if kind in ("enext", "anext"):
        return (ENext if kind == "enext" else ANext)(action, sub)
    return {"not": Not, "eg": EG, "af": AF, "ef": EF}[kind](sub)


def _random_atom(rng):
    return atom({rng.choice("XYZ"): rng.randint(-2, 2) or 1}, rng.choice(list(Cmp)), rng.randint(0, 2))


class TestAtomsOnly:
    def test_propositional_is_atoms_only(self):
        f = Imp(lam(X=1), Or(lam(Y=1), Not(lam(Z=1))))
        assert atoms_only(f)

    def test_modality_is_not(self):
        assert not atoms_only(ENext("a", lam(X=1)))


def random_prop(rng, bpp):
    """A propositional formula of one to three atoms."""
    f = random_atom(rng, bpp)
    for _ in range(rng.randint(0, 2)):
        g = random_atom(rng, bpp)
        f = rng.choice((And, Or, Imp))(f, Not(g) if rng.random() < 0.5 else g)
    return f


def random_mixed_formula(rng, bpp, depth, in_eg=False):
    """A formula ``classify`` accepts, EF nodes beside EG and E<a> ones
    included: an EF body is propositional, and no EF is inside an EG body."""
    if depth == 0 or rng.random() < 0.25:
        return random_atom(rng, bpp)
    kinds = ["not", "and", "or", "enext", "anext", "eg", "af"] + ([] if in_eg else ["ef"] * 3)
    kind = rng.choice(kinds)
    if kind == "ef":
        return EF(random_prop(rng, bpp))
    sub = lambda: random_mixed_formula(rng, bpp, depth - 1, in_eg or kind in ("eg", "af"))
    if kind == "not":
        return Not(sub())
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(sub(), sub())
    if kind in ("enext", "anext"):
        return (ENext if kind == "enext" else ANext)(rng.choice(sorted(bpp.actions)), sub())
    return (EG if kind == "eg" else AF)(sub())


def combines_ef(f) -> bool:
    """True when f has an EF node and an EG or E<a> node."""
    nodes = list(_walk(f))
    return any(isinstance(g, EF) for g in nodes) and any(isinstance(g, (EG, ENext)) for g in nodes)


class TestMixedDifferential:
    """EF nodes met at concrete markings beside EG and E<a> nodes: each
    goes to its engine, and the verdict agrees with the bounded oracle,
    which decides an EF node by explicit search."""

    def test_against_the_bounded_oracle(self):
        config = SolverConfig(BUNDLED_COMMAND, 10.0)
        budget = ExplorationBudget(max_states=20_000)
        compared = combined = unknown = 0
        for seed in (23, 42):
            rng = random.Random(seed)
            for i in range(200):
                bpp = random_bpp(rng, max_symbols=4, max_rules=5, max_rhs=2)
                init = random_marking(rng, bpp)
                k = rng.randint(0, 4)
                f = random_mixed_formula(rng, bpp, rng.randint(2, 3))
                while i % 2 == 0 and not combines_ef(f):  # every other one combines
                    f = random_mixed_formula(rng, bpp, rng.randint(2, 3))
                assert classify(f) != FormulaClass.MIXED, f
                verdict = check(bpp, init, f, k, config)
                expected = eval_bounded(f, init, k, bpp, budget)
                if verdict.result == "unknown":
                    unknown += 1
                    continue
                if expected.is_definite:
                    assert (verdict.result == "holds") == expected.value, (bpp, init, k, f)
                    compared += 1
                    combined += combines_ef(f)
        assert unknown <= 4
        assert compared >= 360, compared
        assert combined >= 160, combined

    def test_what_no_engine_compiles_is_rejected(self, triangle):
        p = atom({"X1": 1}, Cmp.GE, 1)
        for f in (EF(EG(p)), EG(EF(p)), EF(ENext("a", p)), AF(EF(p))):
            with pytest.raises(MixedFormula):
                check(triangle, (1, 0, 0), f, 3, SolverConfig(BUNDLED_COMMAND, 10.0))
