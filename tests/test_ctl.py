import random

import pytest

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
    classify,
    desugar,
    eval_atomic,
)
from bppcheck.errors import UnknownSymbol

from .conftest import atom


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
        assert classify(EF(lam(Y=1, _cmp="=="))) == FormulaClass.EF_CLASS

    def test_eg_with_next(self):
        f = EG(ENext("a", lam(X2=1, X3=1, _bound=2)))
        assert classify(f) == FormulaClass.EG_CLASS

    def test_mixed(self):
        f = And(EF(lam(X=1)), EG(lam(X=1)))
        assert classify(f) == FormulaClass.MIXED

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
            has_ef = any(isinstance(g, EF) for g in _walk(f))
            has_eg_or_next = any(isinstance(g, (EG, ENext)) for g in _walk(f))
            if cls == FormulaClass.EG_CLASS:
                assert not has_ef
            if cls == FormulaClass.EF_CLASS:
                assert not has_eg_or_next


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
