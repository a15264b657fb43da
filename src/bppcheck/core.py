"""Core model: symbols, labeled rewrite rules, markings, one-step semantics.

A process system is a finite symbol alphabet plus rules that rewrite a single
symbol into a multiset of symbols. States are markings: one nonnegative count
per symbol, indexed by declaration order. Declaration order is the single
source of truth for vector indices everywhere in the package.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from typing import Iterable

from .errors import DimensionMismatch, RuleNotEnabled, UnknownSymbol
from .record import Record, setfield

# Reserved action for rules written without a label. Only usable in a
# formula when spelled out explicitly.
TAU = "_tau"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

Marking = tuple[int, ...]

#: The one table of comparisons: SMT-LIB spelling to truth on two integers.
COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
           "=": operator.eq, "!=": operator.ne}


class Rule(Record):
    """One rewrite step: ``lhs -> action -> rhs`` with rhs a symbol multiset."""

    __slots__ = __match_args__ = ("rid", "lhs", "action", "rhs")


class Bpp(Record):
    # The instance dict holds the cached properties, outside equality.
    __match_args__ = ("symbols", "rules")
    __slots__ = __match_args__ + ("__dict__",)

    def __init__(self, symbols: tuple[str, ...], rules: tuple[Rule, ...]):
        setfield(self, "symbols", symbols)
        setfield(self, "rules", rules)
        seen: set[str] = set()
        for name in self.symbols:
            if not _NAME_RE.match(name):
                raise UnknownSymbol(name)
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
        for i, rule in enumerate(self.rules):
            if rule.rid != i:
                raise ValueError(f"rule ids must be 0-based file order, got {rule.rid} at {i}")
            if rule.lhs not in seen:
                raise UnknownSymbol(rule.lhs)
            if not rule.action:
                raise ValueError("empty action label")
            for sym in rule.rhs:
                if sym not in seen:
                    raise UnknownSymbol(sym)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.symbols)}

    @cached_property
    def actions(self) -> frozenset[str]:
        return frozenset(rule.action for rule in self.rules)

    @cached_property
    def producers(self) -> dict[str, tuple[Rule, ...]]:
        """Rules whose right side contains the symbol at least once."""
        out: dict[str, list[Rule]] = {name: [] for name in self.symbols}
        for rule in self.rules:
            for sym in dict.fromkeys(rule.rhs):
                out[sym].append(rule)
        return {name: tuple(rs) for name, rs in out.items()}

    @property
    def n(self) -> int:
        return len(self.symbols)

    def check_marking(self, m: Marking) -> None:
        if len(m) != self.n:
            raise DimensionMismatch(self.n, len(m))


def parikh(expr: Iterable[str], bpp: Bpp) -> Marking:
    """Count vector of a symbol multiset, in declaration order."""
    counts = [0] * bpp.n
    index = bpp.index
    for sym in expr:
        try:
            counts[index[sym]] += 1
        except KeyError:
            raise UnknownSymbol(sym) from None
    return tuple(counts)


def rule_delta(rule: Rule, bpp: Bpp) -> tuple[int, ...]:
    """Net marking change of one application of the rule."""
    delta = list(parikh(rule.rhs, bpp))
    delta[bpp.index[rule.lhs]] -= 1
    return tuple(delta)


def enabled_rules(m: Marking, bpp: Bpp) -> list[int]:
    """Ids of rules whose left symbol has a token, in rule order."""
    bpp.check_marking(m)
    index = bpp.index
    return [rule.rid for rule in bpp.rules if m[index[rule.lhs]] >= 1]


def fire(m: Marking, rule_id: int, bpp: Bpp) -> Marking:
    """Apply one rule: remove a token of the left symbol, add the right side."""
    bpp.check_marking(m)
    rule = bpp.rules[rule_id]
    lhs_idx = bpp.index[rule.lhs]
    if m[lhs_idx] < 1:
        raise RuleNotEnabled(rule_id)
    out = list(m)
    out[lhs_idx] -= 1
    index = bpp.index
    for sym in rule.rhs:
        out[index[sym]] += 1
    return tuple(out)


def successors(m: Marking, bpp: Bpp) -> list[tuple[str, Marking]]:
    """(action, next marking) for every enabled rule, in rule order."""
    return [(bpp.rules[rid].action, fire(m, rid, bpp)) for rid in enabled_rules(m, bpp)]
