"""Integer-linear constraint trees and their SMT-LIB2 rendering.

Formulas are boolean combinations of linear atoms ``sum(coeff*var) op bound``
plus explicit existential blocks. Serialization is deterministic: identical
trees render to identical bytes.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from ..core import COMPARE
from ..errors import IllFormedFormula
from ..record import Record, setfield

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class BoolConst(Record):
    __slots__ = __match_args__ = ("value",)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Lin(Record):
    """sum(coeff * var)  op  bound."""

    __slots__ = __match_args__ = ("terms", "op", "bound")

    def __init__(self, terms: tuple[tuple[str, int], ...], op: str, bound: int):
        if op not in COMPARE:
            raise IllFormedFormula(f"bad comparison {op!r}")
        for name, coeff in terms:
            if not _NAME_RE.match(name):
                raise IllFormedFormula(f"bad variable name {name!r}")
            if not isinstance(coeff, int):
                raise IllFormedFormula(f"non-integer coefficient for {name!r}")
        if not isinstance(bound, int):
            raise IllFormedFormula("non-integer bound")
        setfield(self, "terms", terms)
        setfield(self, "op", op)
        setfield(self, "bound", bound)


class NotF(Record):
    __slots__ = __match_args__ = ("sub",)


class AndF(Record):
    __slots__ = __match_args__ = ("items",)


class OrF(Record):
    __slots__ = __match_args__ = ("items",)


class Exists(Record):
    __slots__ = __match_args__ = ("names", "body")


Node = Union[BoolConst, Lin, NotF, AndF, OrF, Exists]


def lin(terms: Iterable[tuple[str, int]], op: str, bound: int) -> Lin:
    return Lin(tuple(terms), op, bound)


def conj(items: Iterable[Node]) -> Node:
    """Conjunction with flattening and unit/zero simplification."""
    out: list[Node] = []
    for item in items:
        if item == TRUE:
            continue
        if item == FALSE:
            return FALSE
        if isinstance(item, AndF):
            out.extend(item.items)
        else:
            out.append(item)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return AndF(tuple(out))


def disj(items: Iterable[Node]) -> Node:
    """Disjunction with flattening; empty disjunction is false."""
    out: list[Node] = []
    for item in items:
        if item == FALSE:
            continue
        if item == TRUE:
            return TRUE
        if isinstance(item, OrF):
            out.extend(item.items)
        else:
            out.append(item)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return OrF(tuple(out))


def neg(item: Node) -> Node:
    if item == TRUE:
        return FALSE
    if item == FALSE:
        return TRUE
    return NotF(item)


def exists(names: Iterable[str], body: Node) -> Node:
    names = tuple(names)
    if not names:
        return body
    return Exists(names, body)


def free_vars(node: Node) -> set[str]:
    if isinstance(node, BoolConst):
        return set()
    if isinstance(node, Lin):
        return {name for name, _ in node.terms}
    if isinstance(node, NotF):
        return free_vars(node.sub)
    if isinstance(node, (AndF, OrF)):
        out: set[str] = set()
        for item in node.items:
            out |= free_vars(item)
        return out
    if isinstance(node, Exists):
        return free_vars(node.body) - set(node.names)
    raise IllFormedFormula(f"not a formula node: {node!r}")


def has_quantifier(node: Node) -> bool:
    if isinstance(node, Exists):
        return True
    if isinstance(node, NotF):
        return has_quantifier(node.sub)
    if isinstance(node, (AndF, OrF)):
        return any(has_quantifier(item) for item in node.items)
    return False


def _int_sexpr(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _sum_sexpr(terms: tuple[tuple[str, int], ...]) -> str:
    if not terms:
        return "0"
    parts = []
    for name, coeff in terms:
        if coeff == 1:
            parts.append(name)
        else:
            parts.append(f"(* {_int_sexpr(coeff)} {name})")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def to_sexpr(node: Node) -> str:
    """Render one formula node as an SMT-LIB2 term."""
    if isinstance(node, BoolConst):
        return "true" if node.value else "false"
    if isinstance(node, Lin):
        lhs = _sum_sexpr(node.terms)
        rhs = _int_sexpr(node.bound)
        if node.op == "!=":
            return f"(not (= {lhs} {rhs}))"
        return f"({node.op} {lhs} {rhs})"
    if isinstance(node, NotF):
        return f"(not {to_sexpr(node.sub)})"
    if isinstance(node, AndF):
        return "(and " + " ".join(to_sexpr(i) for i in node.items) + ")"
    if isinstance(node, OrF):
        return "(or " + " ".join(to_sexpr(i) for i in node.items) + ")"
    if isinstance(node, Exists):
        binders = " ".join(f"({name} Int)" for name in node.names)
        return f"(exists ({binders}) {to_sexpr(node.body)})"
    raise IllFormedFormula(f"not a formula node: {node!r}")


def eval_node(node: Node, env: dict[str, int]) -> bool:
    """Evaluate a quantifier-free formula under a complete assignment."""
    if isinstance(node, BoolConst):
        return node.value
    if isinstance(node, Lin):
        total = 0
        for name, coeff in node.terms:
            total += coeff * env[name]
        return COMPARE[node.op](total, node.bound)
    if isinstance(node, NotF):
        return not eval_node(node.sub, env)
    if isinstance(node, AndF):
        return all(eval_node(i, env) for i in node.items)
    if isinstance(node, OrF):
        return any(eval_node(i, env) for i in node.items)
    if isinstance(node, Exists):
        raise IllFormedFormula("cannot evaluate a quantified formula against a model")
    raise IllFormedFormula(f"not a formula node: {node!r}")
