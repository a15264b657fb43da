"""Bounded liveness checking: k-step semantics compiled to integer arithmetic.

``encode_eg`` compiles an EF-free formula at a concrete marking into one
script: the paper's k-step unrolling. ``lasso.decide`` calls it for each EG
node that the lasso window does not decide.

The compiler recurses over the formula: atoms substitute the state vector,
E<a> allocates one fresh target state constrained by a labeled transition
step, EG allocates a block of k+1 path states chained by unlabeled steps
and asserts the body at every position (the step budget k is not consumed
by nesting; each nested block unrolls k fresh steps). The script is built
in one pass: a block reached from the root through conjunctions and the
bodies of such blocks is declared as constants when it is made, so solver
models expose it; a block under a negation is wrapped in ``exists`` where
it is made.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from .core import Bpp, Marking, Rule, rule_delta
from .ctl import EG, And, Atom, ENext, Formula, Not
from .errors import EncodingTimeout, MixedFormula, UnknownSymbol
from .record import Record
from .smt import (
    FALSE,
    TRUE,
    Node,
    conj,
    disj,
    exists,
    lin,
    neg,
    to_smtlib,
)

#: One symbolic marking: a solver variable or a concrete count per symbol.
State = tuple["str | int", ...]


class VarAllocator:
    """Fresh state-variable names, and the ones the script declares.

    Path position j of the first EG block is u<j>_<sym>, of the n-th block
    u<j>b<n>_<sym>; the n-th step target is s<n>_<sym>. The text before the
    first ``_`` names the state and every symbol starts with a letter, so
    no two names collide. ``declared`` collects, in the order they are
    made, the names the script declares as constants. ``path_vars``,
    ``declared_path_vars`` and ``target_vars`` count the variables made.

    With a deadline (a ``time.perf_counter()`` value), ``check_deadline``
    raises EncodingTimeout once it has passed. The encoder calls it for
    each block, target state and path step, so neither nesting nor a
    large k runs far past the deadline."""

    def __init__(self, deadline: float | None = None):
        self.declared: list[str] = []
        self.path_vars = self.declared_path_vars = self.target_vars = 0
        self.deadline = deadline
        self._blocks = self._ex_serial = 0

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise EncodingTimeout("encoding ran past the deadline")

    def path_block(self, k: int, symbols: Sequence[str], declare: bool) -> list[State]:
        tag = f"b{self._blocks + 1}" if self._blocks else ""
        block: list[State] = []
        for j in range(k + 1):
            self.check_deadline()
            block.append(tuple(f"u{j}{tag}_{sym}" for sym in symbols))
        self._blocks += 1
        self.path_vars += (k + 1) * len(symbols)
        if declare:
            self.declared_path_vars += (k + 1) * len(symbols)
            self.declared.extend(name for state in block for name in state)
        return block

    def target_state(self, symbols: Sequence[str], declare: bool) -> State:
        self.check_deadline()
        names = tuple(f"s{self._ex_serial}_{sym}" for sym in symbols)
        self._ex_serial += 1
        self.target_vars += len(names)
        if declare:
            self.declared.extend(names)
        return names


def _lin_at(pairs: Iterable[tuple["str | int", int]], op: str, bound: int) -> Node:
    """The atom  sum(c * component) op bound  over (component, c) pairs of
    state components: a concrete component folds into the bound."""
    terms: list[tuple[str, int]] = []
    for comp, c in pairs:
        if isinstance(comp, int):
            bound -= c * comp
        else:
            terms.append((comp, c))
    return lin(terms, op, bound)


def t_minus(s: State, t: State, rule: Rule, bpp: Bpp) -> Node:
    """Per-component marking change of one rule application."""
    delta = rule_delta(rule, bpp)
    return conj(_lin_at([(t[i], 1), (s[i], -1)], "=", delta[i]) for i in range(bpp.n))


def _enabled(s: State, rule: Rule, bpp: Bpp) -> Node:
    comp = s[bpp.index[rule.lhs]]
    if isinstance(comp, int):
        return TRUE if comp >= 1 else FALSE
    return lin([(comp, 1)], ">=", 1)


def trans_constraint(s: State, t: State, action: str | None, bpp: Bpp) -> Node:
    """One step: disjunction over the rules carrying the action, or over
    all rules for None; an action labeling no rule yields the empty
    disjunction (false)."""
    return disj(
        conj([_enabled(s, rule, bpp), t_minus(s, t, rule, bpp)])
        for rule in bpp.rules
        if action is None or rule.action == action
    )


def path_constraint(u: Sequence[State], bpp: Bpp, alloc: VarAllocator | None = None) -> Node:
    """k chained unlabeled steps (labels are ignored along paths); with an
    allocator, its deadline is checked at each step."""
    steps = []
    for j in range(1, len(u)):
        if alloc is not None:
            alloc.check_deadline()
        steps.append(trans_constraint(u[j - 1], u[j], None, bpp))
    return conj(steps)


def _atom_at(f: Atom, s: State, bpp: Bpp) -> Node:
    try:
        pairs = [(s[bpp.index[sym]], c) for sym, c in f.atom.terms]
    except KeyError as exc:
        raise UnknownSymbol(str(exc.args[0])) from None
    return _lin_at(pairs, f.atom.cmp.value, f.atom.bound)


def trans(f: Formula, s: State, k: int, bpp: Bpp, alloc: VarAllocator, top: bool = True) -> Node:
    """Structural compilation of a core EF-free formula at state s.

    ``top`` says that no negation lies between the root and f. A block made
    with it is declared in ``alloc.declared`` and its constraints are
    returned bare; under a negation the block is wrapped in ``exists``."""
    if isinstance(f, Atom):
        return _atom_at(f, s, bpp)
    if isinstance(f, Not):
        return neg(trans(f.sub, s, k, bpp, alloc, False))
    if isinstance(f, And):
        return conj([trans(g, s, k, bpp, alloc, top) for g in (f.left, f.right)])
    if isinstance(f, ENext):
        if k < 1:
            return FALSE
        t = alloc.target_state(bpp.symbols, top)
        body = conj([trans_constraint(s, t, f.action, bpp), trans(f.sub, t, k, bpp, alloc, top)])
        return body if top else exists(t, body)
    if isinstance(f, EG):
        u = alloc.path_block(k, bpp.symbols, top)
        parts: list[Node] = [path_constraint(u, bpp, alloc)]
        parts.extend(_lin_at([(u[0][i], 1), (s[i], -1)], "=", 0) for i in range(bpp.n))
        for j in range(k + 1):
            alloc.check_deadline()
            parts.append(trans(f.sub, u[j], k, bpp, alloc, top))
        body = conj(parts)
        return body if top else exists([name for state in u for name in state], body)
    raise MixedFormula(f"bounded engine cannot compile {f!r}")


class EgEncoding(Record):
    """A compiled script and the counters it adds to a verdict: its
    variables (declared, plus path variables under ``exists``), its path
    variables declared and in all, and its target-state variables."""

    __slots__ = __match_args__ = (
        "script", "eg_vars", "path_vars_declared", "path_vars_total", "target_vars")

    def counts(self) -> dict[str, int]:
        """What the script adds to a verdict's counters: every field but
        the script, and one assertion."""
        return dict(zip(self.__match_args__[1:], self._fields()[1:]), n_asserts=1)


def _finish(node: Node, alloc: VarAllocator) -> EgEncoding:
    """Serialize and check the deadline once the script is done. Every
    variable made is declared or bound under ``exists``, so ``eg_vars``
    counts the path and target variables made."""
    script = to_smtlib(node, tuple(alloc.declared))
    alloc.check_deadline()
    return EgEncoding(script, alloc.path_vars + alloc.target_vars, alloc.declared_path_vars,
                      alloc.path_vars, alloc.target_vars)


def encode_eg(
    bpp: Bpp, init: Marking, f: Formula, k: int, deadline: float | None = None
) -> EgEncoding:
    """Compile an EF-free formula at the concrete initial marking (an EF
    node raises MixedFormula).

    Raises EncodingTimeout when a block, a target state or a path step is
    made, or the script is done, past the deadline (a
    ``time.perf_counter()`` value)."""
    bpp.check_marking(init)
    if k < 0:
        raise ValueError("k must be >= 0")
    alloc = VarAllocator(deadline)
    return _finish(trans(f, tuple(init), k, bpp, alloc), alloc)
