"""Bounded liveness checking: k-step semantics compiled to integer arithmetic.

The compiler recurses over the formula: atoms substitute the state vector,
E<a> allocates one fresh target state constrained by a labeled transition
step, EG allocates a block of k+1 path states chained by unlabeled steps
and asserts the body at every position (the step budget k is not consumed
by nesting; each nested block unrolls k fresh steps). Existential blocks
reachable from the root through conjunctions are lowered to declared
constants so solver models expose them; blocks under a negation stay
quantified.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from .core import Bpp, Marking, Rule, rule_delta
from .ctl import And, Atom, EG, ENext, Formula, Not, contains_ef, desugar
from .errors import EncodingTimeout, MixedFormula, UnknownSymbol
from .smt import (
    FALSE,
    TRUE,
    AndF,
    Exists,
    Node,
    SmtScript,
    SolverConfig,
    Verdict,
    conj,
    disj,
    exists,
    lin,
    neg,
    run_solver,
    solver_stats,
    to_smtlib,
)

#: One symbolic marking: a solver variable or a concrete count per symbol.
State = tuple["str | int", ...]


class VarAllocator:
    """Fresh state-variable names: u<j>_<sym> for path positions (later
    blocks get a _b<serial> suffix), s<serial>_<sym> for step targets.

    With a deadline (a ``time.perf_counter()`` value), ``check_deadline``
    raises EncodingTimeout once it has passed. The encoder calls it for
    each block, target state and path step, so neither nesting nor a
    large k runs far past the deadline."""

    def __init__(self, deadline: float | None = None):
        self.used: set[str] = set()
        self.path_blocks: list[list[str]] = []
        self.target_blocks: list[list[str]] = []
        self.deadline = deadline
        self._eg_serial = 0
        self._ex_serial = 0

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise EncodingTimeout("encoding ran past the deadline")

    def _claim(self, base: str) -> str:
        name = base
        bump = 1
        while name in self.used:
            bump += 1
            name = f"{base}_{bump}"
        self.used.add(name)
        return name

    def path_block(self, k: int, symbols: Sequence[str]) -> list[State]:
        self._eg_serial += 1
        suffix = "" if self._eg_serial == 1 else f"_b{self._eg_serial}"
        block: list[State] = []
        flat: list[str] = []
        for j in range(k + 1):
            self.check_deadline()
            names = tuple(self._claim(f"u{j}_{sym}{suffix}") for sym in symbols)
            block.append(names)
            flat.extend(names)
        self.path_blocks.append(flat)
        return block

    def target_state(self, symbols: Sequence[str]) -> State:
        self.check_deadline()
        serial = self._ex_serial
        self._ex_serial += 1
        names = tuple(self._claim(f"s{serial}_{sym}") for sym in symbols)
        self.target_blocks.append(list(names))
        return names


def _component_eq(s_i: "str | int", t_i: "str | int", delta: int) -> Node:
    """Equality  s_i + delta = t_i  over variable or constant components."""
    terms: list[tuple[str, int]] = []
    bound = delta
    if isinstance(t_i, str):
        terms.append((t_i, 1))
    else:
        bound -= t_i
    if isinstance(s_i, str):
        terms.append((s_i, -1))
    else:
        bound += s_i
    return lin(terms, "=", bound)


def t_minus(s: State, t: State, rule: Rule, bpp: Bpp) -> Node:
    """Per-component marking change of one rule application."""
    delta = rule_delta(rule, bpp)
    return conj(_component_eq(s[i], t[i], delta[i]) for i in range(bpp.n))


def _enabled(s: State, rule: Rule, bpp: Bpp) -> Node:
    comp = s[bpp.index[rule.lhs]]
    if isinstance(comp, int):
        return TRUE if comp >= 1 else FALSE
    return lin([(comp, 1)], ">=", 1)


def trans_constraint(s: State, t: State, action: str, bpp: Bpp) -> Node:
    """One labeled step: disjunction over the rules carrying the action;
    an action labeling no rule yields the empty disjunction (false)."""
    return disj(
        conj([_enabled(s, rule, bpp), t_minus(s, t, rule, bpp)])
        for rule in bpp.rules
        if rule.action == action
    )


def path_constraint(u: Sequence[State], bpp: Bpp, alloc: VarAllocator | None = None) -> Node:
    """k chained unlabeled steps (labels are ignored along paths); with an
    allocator, its deadline is checked at each step."""
    steps = []
    for j in range(1, len(u)):
        if alloc is not None:
            alloc.check_deadline()
        steps.append(
            disj(
                conj([_enabled(u[j - 1], rule, bpp), t_minus(u[j - 1], u[j], rule, bpp)])
                for rule in bpp.rules
            )
        )
    return conj(steps)


def _atom_at(f: Atom, s: State, bpp: Bpp) -> Node:
    terms: list[tuple[str, int]] = []
    bound = f.atom.bound
    for sym, c in f.atom.terms:
        if sym not in bpp.index:
            raise UnknownSymbol(sym)
        comp = s[bpp.index[sym]]
        if isinstance(comp, int):
            bound -= c * comp
        else:
            terms.append((comp, c))
    op = {"==": "=", "!=": "!="}.get(f.atom.cmp.value, f.atom.cmp.value)
    return lin(terms, op, bound)


def trans(f: Formula, s: State, k: int, bpp: Bpp, alloc: VarAllocator) -> Node:
    """Structural compilation of a core EF-free formula at state s."""
    if isinstance(f, Atom):
        return _atom_at(f, s, bpp)
    if isinstance(f, Not):
        return neg(trans(f.sub, s, k, bpp, alloc))
    if isinstance(f, And):
        return conj([trans(f.left, s, k, bpp, alloc), trans(f.right, s, k, bpp, alloc)])
    if isinstance(f, ENext):
        if k < 1:
            return FALSE
        t = alloc.target_state(bpp.symbols)
        body = conj(
            [trans_constraint(s, t, f.action, bpp), trans(f.sub, t, k, bpp, alloc)]
        )
        return exists([n for n in t], body)
    if isinstance(f, EG):
        u = alloc.path_block(k, bpp.symbols)
        parts: list[Node] = [path_constraint(u, bpp, alloc)]
        parts.extend(_component_eq(s[i], u[0][i], 0) for i in range(bpp.n))
        for j in range(k + 1):
            alloc.check_deadline()
            parts.append(trans(f.sub, u[j], k, bpp, alloc))
        flat = [name for state in u for name in state]
        return exists(flat, conj(parts))
    raise MixedFormula(f"bounded engine cannot compile {f!r}")


def hoist_positive_exists(node: Node) -> tuple[Node, tuple[str, ...]]:
    """Lower existential blocks reachable through conjunctions from the root
    into declarations. Names are globally fresh, so this is sound."""
    declared: list[str] = []

    def walk(n: Node) -> Node:
        if isinstance(n, Exists):
            declared.extend(n.names)
            return walk(n.body)
        if isinstance(n, AndF):
            return conj([walk(item) for item in n.items])
        return n

    return walk(node), tuple(declared)


class EgEncoding:
    __slots__ = ("script", "alloc", "declared")

    def __init__(self, script: SmtScript, alloc: VarAllocator, declared: tuple[str, ...]):
        self.script = script
        self.alloc = alloc
        self.declared = declared

    @property
    def path_vars_declared(self) -> int:
        declared = set(self.declared)
        return sum(1 for block in self.alloc.path_blocks for v in block if v in declared)

    @property
    def path_vars_quantified(self) -> int:
        declared = set(self.declared)
        return sum(1 for block in self.alloc.path_blocks for v in block if v not in declared)

    @property
    def path_vars_total(self) -> int:
        return sum(len(block) for block in self.alloc.path_blocks)

    @property
    def target_vars_total(self) -> int:
        return sum(len(block) for block in self.alloc.target_blocks)


def encode_eg(
    bpp: Bpp, init: Marking, f: Formula, k: int, deadline: float | None = None
) -> EgEncoding:
    """Compile a desugared EF-free formula at the concrete initial marking.

    Raises EncodingTimeout when a block, a target state or a path step is
    made, or the script is done, past the deadline (a
    ``time.perf_counter()`` value)."""
    bpp.check_marking(init)
    if k < 0:
        raise ValueError("k must be >= 0")
    core = desugar(f)
    if contains_ef(core):
        raise MixedFormula("EF belongs to the reachability engine")
    alloc = VarAllocator(deadline)
    node = trans(core, tuple(init), k, bpp, alloc)
    body, declared = hoist_positive_exists(node)
    script = to_smtlib(body, declared)
    alloc.check_deadline()
    return EgEncoding(script=script, alloc=alloc, declared=declared)


def check_eg(
    bpp: Bpp,
    init: Marking,
    f: Formula,
    k: int,
    config: SolverConfig,
    on_script: Callable[[int, SmtScript], None] | None = None,
) -> Verdict:
    """Bounded verdict: sat means the formula holds under the k-step
    semantics at the initial marking, unsat means it does not.

    Encoding and solving share the config's timeout: an encoding that runs
    past it gives unknown (reason ``timeout``) without starting the solver,
    and the solver gets what is left."""
    deadline = time.perf_counter() + config.timeout_s
    try:
        enc = encode_eg(bpp, init, f, k, deadline)
    except EncodingTimeout:
        stats = {**solver_stats([], unknown=False), "reason_unknown": "timeout"}
        return Verdict(result="unknown", engine="eg-bounded", k=k, stats=stats)
    if on_script is not None:
        on_script(0, enc.script)
    left = SolverConfig(config.command, deadline - time.perf_counter())
    outcome = run_solver(enc.script, left)
    result = {"sat": "holds", "unsat": "not-holds"}.get(outcome.status, "unknown")
    stats = {
        "n_vars": len(enc.declared) + enc.path_vars_quantified,
        "n_asserts": 1,  # the whole unrolling is one assertion
        **solver_stats([outcome], unknown=result == "unknown"),
        "path_vars_declared": enc.path_vars_declared,
        "path_vars_total": enc.path_vars_total,
        "target_vars": enc.target_vars_total,
    }
    witness = outcome.model if outcome.status == "sat" else None
    return Verdict(result=result, engine="eg-bounded", k=k, witness=witness, stats=stats)
