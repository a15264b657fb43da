"""Branching-time formulas over symbol-count atoms.

Every formula is built from six node types: Atom (an integer-linear
constraint over symbol counts), Not, And, ENext (E<a>), EG and EF. The
derived connectives Or, Imp, ANext (A<a>) and AF are constructors that
return their core definitions, so no other node type exists. ``evaluate``,
for both engines, evaluates everything above the first EG or EF at concrete
markings and hands each such node to its engine.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Union

from .core import Bpp, Marking, successors
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


# Not, EG and EF share the one-child shape; equality tells the types apart
# (EG(p) != EF(p)).
class Not(_Unary):
    __slots__ = ()


class And(Record):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        setfield(self, "left", left)
        setfield(self, "right", right)


class ENext(Record):
    __slots__ = __match_args__ = ("action", "sub")

    def __init__(self, action: str, sub: Formula):
        setfield(self, "action", action)
        setfield(self, "sub", sub)


class EG(_Unary):
    __slots__ = ()


class EF(_Unary):
    __slots__ = ()


Formula = Union[Atom, Not, And, ENext, EG, EF]


# The derived connectives build their core definitions.
def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Imp(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def ANext(action: str, sub: Formula) -> Formula:
    return Not(ENext(action, Not(sub)))


def AF(sub: Formula) -> Formula:
    return Not(EG(Not(sub)))


class FormulaClass(enum.Enum):
    EF_CLASS = "ef"
    EG_CLASS = "eg"
    MIXED = "mixed"


def desugar(f: Formula) -> Formula:
    """The identity, since every formula is core. The benchmark's traced
    pipeline (clibench/trace.py) still calls it; nothing in the package does."""
    return f


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (Not, ENext, EG, EF)):
        yield from walk(f.sub)
    elif isinstance(f, And):
        yield from walk(f.left)
        yield from walk(f.right)


def atoms_only(f: Formula) -> bool:
    """True when f is a propositional combination of atoms."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return atoms_only(f.sub)
    if isinstance(f, And):
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
    """Route a formula to the engine that decides it exactly.

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


def evaluate(f: Formula, m: Marking, bpp: Bpp, k: int,
             decide: Callable[[Formula, Marking], bool | None] | None = None,
             memo: dict | None = None) -> bool | None:
    """Three-valued truth (None: unknown) of f at the concrete marking m
    under the k-step semantics. Atoms, Not and And (both operands, always)
    are evaluated at m; E<a> looks at the a-successors of m and is false at
    k < 1; each EG or EF node goes to ``decide(node, m)``. The memo, keyed
    on (id(f), m), keeps a marking that several paths reach from being
    visited, or a node decided, more than once."""
    if memo is None:
        memo = {}
    key = (id(f), m)
    if key in memo:
        return memo[key]
    if isinstance(f, Atom):
        value = f.atom.evaluate(m, bpp)
    elif isinstance(f, Not):
        sub = evaluate(f.sub, m, bpp, k, decide, memo)
        value = None if sub is None else not sub
    elif isinstance(f, And):
        both = (evaluate(f.left, m, bpp, k, decide, memo),
                evaluate(f.right, m, bpp, k, decide, memo))
        value = False if False in both else (None if None in both else True)
    elif isinstance(f, ENext):
        value = False
        for action, t in successors(m, bpp) if k >= 1 else ():
            if action == f.action:
                sub = evaluate(f.sub, t, bpp, k, decide, memo)
                if sub:
                    value = True
                    break
                if sub is None:
                    value = None
    else:
        value = decide(f, m)
    memo[key] = value
    return value
