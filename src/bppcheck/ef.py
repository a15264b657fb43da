"""Exact reachability checking via an existential Presburger encoding.

A marking is reachable iff there are firing counts y satisfying the flow
equations plus a connectivity certificate: distance labels z that force
every used rule's left symbol to be derivable from the initial marking.
One solver call decides each EF node; a sat model is re-checked against
the whole encoding by the independent evaluator. ``realize_firing_counts``
reconstructs a concrete firing sequence from a model's y counts; the
checker itself does not call it.
"""

from __future__ import annotations

from typing import Callable

from .core import Bpp, Marking, fire
from .ctl import (
    And,
    Atom,
    EF,
    Formula,
    FormulaClass,
    Imp,
    Not,
    Or,
    classify,
    desugar,
    eval_atomic,
)
from .errors import BudgetExceeded, MixedFormula, SolverProtocolError, UnknownSymbol
from .record import Record, setfield
from .smt import (
    Node,
    SolverConfig,
    SmtScript,
    SolverOutcome,
    Verdict,
    conj,
    disj,
    eval_node,
    lin,
    neg,
    run_solver,
    solver_stats,
    to_smtlib,
)

_CMP_TO_SMT = {"==": "=", "!=": "!=", ">=": ">=", "<=": "<=", ">": ">", "<": "<"}


class EfVars(Record):
    """Variable naming: x_<sym> reached count, y_<i+1> firing count per rule
    (1-based, file order), z_<sym> derivation distance."""

    __slots__ = __match_args__ = ("x", "y", "z")

    def __init__(self, x: dict[str, str], y: dict[int, str], z: dict[str, str]):
        setfield(self, "x", x)
        setfield(self, "y", y)
        setfield(self, "z", z)

    def ordered(self) -> tuple[str, ...]:
        return tuple(self.x.values()) + tuple(self.y.values()) + tuple(self.z.values())


class ReachabilityEncoding(Record):
    __slots__ = __match_args__ = ("vars", "constraints")

    def __init__(self, vars: EfVars, constraints: tuple[Node, ...]):
        setfield(self, "vars", vars)
        setfield(self, "constraints", constraints)

    @property
    def declarations(self) -> tuple[str, ...]:
        return self.vars.ordered()

    def conjunction(self) -> Node:
        return conj(self.constraints)


def encode_reachability(bpp: Bpp, init: Marking) -> ReachabilityEncoding:
    """Flow equations plus the connectivity block.

    Flow, per symbol P:  init(P) + sum_r y_r*rhs_r(P) - sum_{lhs(r)=P} y_r = x_P.
    Connectivity: z_P = 1 for initially marked P; a used rule needs a
    derivable left symbol (y_r = 0 or z_lhs > 0); an unmarked symbol is
    either underivable with all its producers unused, or one producing rule
    justifies it at distance z_lhs + 1; finally x_P = 0 or z_P > 0.
    """
    bpp.check_marking(init)
    xs = {sym: f"x_{sym}" for sym in bpp.symbols}
    ys = {rule.rid: f"y_{rule.rid + 1}" for rule in bpp.rules}
    zs = {sym: f"z_{sym}" for sym in bpp.symbols}
    constraints: list[Node] = []

    for sym in bpp.symbols:
        constraints.append(lin([(xs[sym], 1)], ">=", 0))
    for rule in bpp.rules:
        constraints.append(lin([(ys[rule.rid], 1)], ">=", 0))

    for i, sym in enumerate(bpp.symbols):
        terms: list[tuple[str, int]] = []
        for rule in bpp.rules:
            coeff = sum(1 for s in rule.rhs if s == sym)
            if rule.lhs == sym:
                coeff -= 1
            if coeff:
                terms.append((ys[rule.rid], coeff))
        terms.append((xs[sym], -1))
        constraints.append(lin(terms, "=", -init[i]))

    for i, sym in enumerate(bpp.symbols):
        if init[i] > 0:
            constraints.append(lin([(zs[sym], 1)], "=", 1))

    for rule in bpp.rules:
        constraints.append(
            disj(
                [
                    lin([(ys[rule.rid], 1)], "=", 0),
                    lin([(zs[rule.lhs], 1)], ">", 0),
                ]
            )
        )

    for i, sym in enumerate(bpp.symbols):
        if init[i] > 0:
            continue
        producers = bpp.producers[sym]
        unused = conj(
            [lin([(zs[sym], 1)], "=", 0)]
            + [lin([(ys[r.rid], 1)], "=", 0) for r in producers]
        )
        branches: list[Node] = [unused]
        for r in producers:
            branches.append(
                conj(
                    [
                        lin([(zs[sym], 1), (zs[r.lhs], -1)], "=", 1),
                        lin([(ys[r.rid], 1)], ">", 0),
                        lin([(zs[r.lhs], 1)], ">", 0),
                    ]
                )
            )
        constraints.append(disj(branches))

    for sym in bpp.symbols:
        constraints.append(
            disj([lin([(xs[sym], 1)], "=", 0), lin([(zs[sym], 1)], ">", 0)])
        )

    return ReachabilityEncoding(EfVars(xs, ys, zs), tuple(constraints))


def atoms_to_node(psi: Formula, name_of: dict[str, str]) -> Node:
    """Rewrite a propositional formula over symbols into solver variables."""
    if isinstance(psi, Atom):
        try:
            terms = [(name_of[sym], c) for sym, c in psi.atom.terms]
        except KeyError as exc:
            raise UnknownSymbol(str(exc.args[0])) from None
        return lin(terms, _CMP_TO_SMT[psi.atom.cmp.value], psi.atom.bound)
    if isinstance(psi, Not):
        return neg(atoms_to_node(psi.sub, name_of))
    if isinstance(psi, And):
        return conj([atoms_to_node(psi.left, name_of), atoms_to_node(psi.right, name_of)])
    if isinstance(psi, Or):
        return disj([atoms_to_node(psi.left, name_of), atoms_to_node(psi.right, name_of)])
    if isinstance(psi, Imp):
        return disj([neg(atoms_to_node(psi.left, name_of)), atoms_to_node(psi.right, name_of)])
    raise MixedFormula(f"EF body must be propositional over atoms, got {psi!r}")


def check_ef_detailed(
    bpp: Bpp,
    init: Marking,
    f: Formula,
    config: SolverConfig,
    on_script: Callable[[int, SmtScript], None] | None = None,
) -> tuple[Verdict, ReachabilityEncoding, list[SolverOutcome]]:
    """Decide an EF-class formula at the initial marking.

    Atoms are evaluated directly on the initial marking; every EF node costs
    one solver call on (reachability encoding AND body over x variables);
    negation and conjunction combine the sub-results three-valued (unknown
    from a solver timeout stays unknown unless the boolean context decides
    regardless).
    """
    core = desugar(f)
    if classify(core) != FormulaClass.EF_CLASS:
        raise MixedFormula(
            "not an EF-class formula; EG/E<a> content belongs to the bounded engine"
        )
    enc = encode_reachability(bpp, init)
    outcomes: list[SolverOutcome] = []

    def solve_ef(psi: Formula) -> bool | None:
        body = atoms_to_node(psi, enc.vars.x)
        node = conj(list(enc.constraints) + [body])
        script = to_smtlib(node, enc.declarations)
        if on_script is not None:
            on_script(len(outcomes), script)
        outcome = run_solver(script, config)
        # Never trust model printing: the bindings must satisfy every
        # emitted constraint under the independent evaluator.
        if outcome.status == "sat" and not eval_node(node, outcome.model):
            raise SolverProtocolError("solver model does not satisfy the encoding")
        outcomes.append(outcome)
        if outcome.status == "sat":
            return True
        if outcome.status == "unsat":
            return False
        return None

    def ev(g: Formula) -> bool | None:
        if isinstance(g, Atom):
            return eval_atomic(g.atom, init, bpp)
        if isinstance(g, Not):
            sub = ev(g.sub)
            return None if sub is None else not sub
        if isinstance(g, And):
            left, right = ev(g.left), ev(g.right)
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if isinstance(g, EF):
            return solve_ef(g.sub)
        raise MixedFormula(f"unexpected node in EF-class formula: {g!r}")

    value = ev(core)
    witness = next((o.model for o in outcomes if o.status == "sat"), None)
    stats = {
        "n_vars": len(enc.declarations),
        "n_asserts": (len(enc.constraints) + 1) * max(1, len(outcomes)),
        **solver_stats(outcomes, unknown=value is None),
    }
    result = "unknown" if value is None else ("holds" if value else "not-holds")
    verdict = Verdict(result=result, engine="ef", k=None, witness=witness, stats=stats)
    return verdict, enc, outcomes


def check_ef(
    bpp: Bpp,
    init: Marking,
    f: Formula,
    config: SolverConfig,
    on_script: Callable[[int, SmtScript], None] | None = None,
) -> Verdict:
    verdict, _, _ = check_ef_detailed(bpp, init, f, config, on_script)
    return verdict


def model_firing_counts(enc_vars: EfVars, model: dict[str, int]) -> dict[int, int]:
    """Pull the per-rule firing counts out of a solver model."""
    return {rid: model[name] for rid, name in enc_vars.y.items()}


def realize_firing_counts(
    bpp: Bpp,
    init: Marking,
    counts: dict[int, int],
    node_budget: int = 200_000,
) -> list[int] | None:
    """Find an interleaving that fires every rule its counted number of
    times with all intermediate markings nonnegative.

    Returns the rule-id sequence, or None when the counts are unrealizable.
    Backtracking with failure memoization; raises BudgetExceeded when the
    search outgrows the node budget.
    """
    bpp.check_marking(init)
    remaining = [0] * len(bpp.rules)
    for rid, count in counts.items():
        if count < 0:
            raise ValueError("negative firing count")
        if not 0 <= rid < len(bpp.rules):
            raise ValueError(f"no rule with id {rid}")
        remaining[rid] = count
    state = (init, tuple(remaining))
    failed: set[tuple[Marking, tuple[int, ...]]] = set()
    path: list[int] = []
    # Explicit stack of (marking, remaining, next rule id to try).
    stack: list[tuple[Marking, tuple[int, ...], int]] = [(state[0], state[1], 0)]
    visited = 0

    while stack:
        marking, rem, next_rid = stack[-1]
        if not any(rem):
            return path
        advanced = False
        for rid in range(next_rid, len(bpp.rules)):
            if rem[rid] == 0:
                continue
            if marking[bpp.index[bpp.rules[rid].lhs]] < 1:
                continue
            child_m = fire(marking, rid, bpp)
            child_rem = rem[:rid] + (rem[rid] - 1,) + rem[rid + 1 :]
            if (child_m, child_rem) in failed:
                continue
            visited += 1
            if visited > node_budget:
                raise BudgetExceeded(f"realization budget {node_budget} exhausted")
            stack[-1] = (marking, rem, rid + 1)
            stack.append((child_m, child_rem, 0))
            path.append(rid)
            advanced = True
            break
        if not advanced:
            failed.add((marking, rem))
            stack.pop()
            if path:
                path.pop()
    return None


def final_marking(bpp: Bpp, init: Marking, sequence: list[int]) -> Marking:
    m = init
    for rid in sequence:
        m = fire(m, rid, bpp)
    return m


def reached_marking_from_model(bpp: Bpp, enc_vars: EfVars, model: dict[str, int]) -> Marking:
    """The marking the model claims to reach (the x variables)."""
    return tuple(model[enc_vars.x[sym]] for sym in bpp.symbols)


def expected_marking_from_counts(bpp: Bpp, init: Marking, counts: dict[int, int]) -> Marking:
    """init + sum of rule deltas, straight from the flow equations."""
    out = list(init)
    for rule in bpp.rules:
        c = counts.get(rule.rid, 0)
        if not c:
            continue
        out[bpp.index[rule.lhs]] -= c
        for sym in rule.rhs:
            out[bpp.index[sym]] += c
    return tuple(out)
