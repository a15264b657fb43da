"""Branching-time formulas over symbol-count atoms.

The surface logic has atoms (integer-linear constraints over symbol counts),
the propositional connectives, E<a>/A<a> next-step operators, EG, AF and EF.
Engines only see the core subset left after desugaring: Atom, Not, And,
ENext, EG, EF.
"""

from __future__ import annotations

import enum
from typing import Iterator, Union

from .core import Bpp, Marking
from .errors import UnknownSymbol
from .record import Record, setfield


class Cmp(enum.Enum):
    GE = ">="
    LE = "<="
    GT = ">"
    LT = "<"
    EQ = "=="
    NE = "!="

    def holds(self, lhs: int, rhs: int) -> bool:
        if self is Cmp.GE:
            return lhs >= rhs
        if self is Cmp.LE:
            return lhs <= rhs
        if self is Cmp.GT:
            return lhs > rhs
        if self is Cmp.LT:
            return lhs < rhs
        if self is Cmp.EQ:
            return lhs == rhs
        return lhs != rhs


class LinearAtom(Record):
    """Constraint  sum(coeff * count(symbol))  cmp  bound."""

    __slots__ = __match_args__ = ("terms", "cmp", "bound")

    def __init__(self, terms: tuple[tuple[str, int], ...], cmp: Cmp, bound: int):
        setfield(self, "terms", terms)
        setfield(self, "cmp", cmp)
        setfield(self, "bound", bound)

    def evaluate(self, m: Marking, bpp: Bpp) -> bool:
        total = 0
        for sym, c in self.terms:
            try:
                total += c * m[bpp.index[sym]]
            except KeyError:
                raise UnknownSymbol(sym) from None
        return self.cmp.holds(total, self.bound)


class Atom(Record):
    __slots__ = __match_args__ = ("atom",)

    def __init__(self, atom: LinearAtom):
        setfield(self, "atom", atom)


class _Unary(Record):
    __slots__ = __match_args__ = ("sub",)

    def __init__(self, sub: Formula):
        setfield(self, "sub", sub)


class _Binary(Record):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        setfield(self, "left", left)
        setfield(self, "right", right)


class _Next(Record):
    __slots__ = __match_args__ = ("action", "sub")

    def __init__(self, action: str, sub: Formula):
        setfield(self, "action", action)
        setfield(self, "sub", sub)


# The node types: each shares its shape's fields, and equality tells the
# types apart (EG(p) != EF(p)).
class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class ENext(_Next):
    __slots__ = ()


class ANext(_Next):
    __slots__ = ()


class EG(_Unary):
    __slots__ = ()


class AF(_Unary):
    __slots__ = ()


class EF(_Unary):
    __slots__ = ()


Formula = Union[Atom, Not, And, Or, Imp, ENext, ANext, EG, AF, EF]

#: Node types allowed after desugaring.
CORE_NODES = (Atom, Not, And, ENext, EG, EF)


class FormulaClass(enum.Enum):
    EF_CLASS = "ef"
    EG_CLASS = "eg"
    MIXED = "mixed"


def desugar(f: Formula) -> Formula:
    """Rewrite Or/Imp/AF/ANext into the core connectives, preserving meaning."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.sub))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Imp):
        return Not(And(desugar(f.left), Not(desugar(f.right))))
    if isinstance(f, ENext):
        return ENext(f.action, desugar(f.sub))
    if isinstance(f, ANext):
        return Not(ENext(f.action, Not(desugar(f.sub))))
    if isinstance(f, EG):
        return EG(desugar(f.sub))
    if isinstance(f, AF):
        return Not(EG(Not(desugar(f.sub))))
    if isinstance(f, EF):
        return EF(desugar(f.sub))
    raise TypeError(f"not a formula node: {f!r}")


def is_core(f: Formula) -> bool:
    return all(isinstance(g, CORE_NODES) for g in walk(f))


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (Not, ENext, ANext, EG, AF, EF)):
        yield from walk(f.sub)
    elif isinstance(f, (And, Or, Imp)):
        yield from walk(f.left)
        yield from walk(f.right)


def atoms_only(f: Formula) -> bool:
    """True when f is a propositional combination of atoms."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return atoms_only(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return atoms_only(f.left) and atoms_only(f.right)
    return False


def contains_ef(f: Formula) -> bool:
    return any(isinstance(g, EF) for g in walk(f))


def _ef_shaped(f: Formula) -> bool:
    # Propositional combination of atoms and EF(propositional-over-atoms).
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return _ef_shaped(f.sub)
    if isinstance(f, And):
        return _ef_shaped(f.left) and _ef_shaped(f.right)
    if isinstance(f, EF):
        return atoms_only(f.sub)
    return False


def classify(f: Formula) -> FormulaClass:
    """Route a desugared formula to the engine that decides it exactly.

    EF_CLASS: propositional combination of atoms and EF nodes whose bodies
    are propositional over atoms. EG_CLASS: no EF anywhere. Anything else is
    MIXED and rejected by the checker.
    """
    if _ef_shaped(f):
        return FormulaClass.EF_CLASS
    if not contains_ef(f):
        return FormulaClass.EG_CLASS
    return FormulaClass.MIXED


def eval_atomic(atom: LinearAtom, m: Marking, bpp: Bpp) -> bool:
    """Truth of one linear atom at a concrete marking."""
    bpp.check_marking(m)
    return atom.evaluate(m, bpp)


def eval_propositional(f: Formula, m: Marking, bpp: Bpp) -> bool:
    """Truth of a propositional (modality-free) formula at a marking."""
    if isinstance(f, Atom):
        return eval_atomic(f.atom, m, bpp)
    if isinstance(f, Not):
        return not eval_propositional(f.sub, m, bpp)
    if isinstance(f, And):
        return eval_propositional(f.left, m, bpp) and eval_propositional(f.right, m, bpp)
    if isinstance(f, Or):
        return eval_propositional(f.left, m, bpp) or eval_propositional(f.right, m, bpp)
    if isinstance(f, Imp):
        return (not eval_propositional(f.left, m, bpp)) or eval_propositional(f.right, m, bpp)
    raise TypeError(f"not propositional: {f!r}")
