"""Exact reachability checking by lazy siphon refinement.

Firing counts y of a BPP are realizable iff they satisfy the flow equations
and every used rule has a left symbol derivable from the initially marked
symbols through used rules (Esparza, Fundamenta Informaticae 31, 1997).
``decide`` runs one loop per EF node that ``ctl.check`` meets at a
concrete marking: solve the flow equations plus the body and, while
the model's support is not derivable, add a cut that the model breaks and
every run satisfies (``siphon_cut``), as Petrinizer does (CAV 2014). Every
sat model is re-checked by the independent evaluator; only an accepted one
becomes the witness. ``encode_reachability`` is the one-shot alternative
with distance labels z (Verma, Seidl and Schwentick, CADE 2005).
``realize_firing_counts`` turns realizable y counts into a firing sequence
by the theorem's constructive proof, with the same derivability check; the
checker does not call it.
"""

from __future__ import annotations

from .core import Bpp, Marking, Rule, fire, rule_delta
from .ctl import EF, And, Atom, CheckRun, Formula, Not
from .errors import MixedFormula, SolverProtocolError, UnknownSymbol
from .record import Record
from .smt import Node, conj, disj, eval_node, lin, neg, to_smtlib


class EfVars(Record):
    """Variable naming: x_<sym> reached count, y_<i+1> firing count per rule
    (1-based, file order), z_<sym> derivation distance (one-shot encoding
    only; the flow encoding has none)."""

    __slots__ = __match_args__ = ("x", "y", "z")

    def ordered(self) -> tuple[str, ...]:
        return tuple(self.x.values()) + tuple(self.y.values()) + tuple(self.z.values())


class ReachabilityEncoding(Record):
    __slots__ = __match_args__ = ("vars", "constraints")

    @property
    def declarations(self) -> tuple[str, ...]:
        return self.vars.ordered()


def encode_flow(bpp: Bpp, init: Marking) -> ReachabilityEncoding:
    """The flow equations: nonnegative counts and, per symbol P,
    init(P) + sum_r y_r*rhs_r(P) - sum_{lhs(r)=P} y_r = x_P.

    A rule whose left symbol is not derivable from the initial marking under
    all rules never fires, so its count is pinned: y_r = 0 (the static
    siphon)."""
    bpp.check_marking(init)
    xs = {sym: f"x_{sym}" for sym in bpp.symbols}
    ys = {rule.rid: f"y_{rule.rid + 1}" for rule in bpp.rules}
    constraints: list[Node] = []

    for sym in bpp.symbols:
        constraints.append(lin([(xs[sym], 1)], ">=", 0))
    live = _derivable(bpp, init, bpp.rules)
    for rule in bpp.rules:
        constraints.append(lin([(ys[rule.rid], 1)], ">=" if rule.lhs in live else "=", 0))

    deltas = [rule_delta(rule, bpp) for rule in bpp.rules]
    for i, sym in enumerate(bpp.symbols):
        terms = [(ys[rule.rid], deltas[rule.rid][i]) for rule in bpp.rules if deltas[rule.rid][i]]
        terms.append((xs[sym], -1))
        constraints.append(lin(terms, "=", -init[i]))

    return ReachabilityEncoding(EfVars(xs, ys, {}), tuple(constraints))


def encode_reachability(bpp: Bpp, init: Marking) -> ReachabilityEncoding:
    """Flow equations plus the connectivity block: exact in one solver call.

    Connectivity: z_P = 1 for initially marked P; a used rule needs a
    derivable left symbol (y_r = 0 or z_lhs > 0); an unmarked symbol is
    either underivable with all its producers unused, or one producing rule
    justifies it at distance z_lhs + 1; finally x_P = 0 or z_P > 0.
    """
    flow = encode_flow(bpp, init)
    xs, ys = flow.vars.x, flow.vars.y
    zs = {sym: f"z_{sym}" for sym in bpp.symbols}
    constraints = list(flow.constraints)

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
        return lin(terms, psi.atom.cmp.value, psi.atom.bound)
    if isinstance(psi, Not):
        return neg(atoms_to_node(psi.sub, name_of))
    if isinstance(psi, And):
        return conj([atoms_to_node(psi.left, name_of), atoms_to_node(psi.right, name_of)])
    raise MixedFormula(f"EF body must be propositional over atoms, got {psi!r}")


def _derivable(bpp: Bpp, marking: Marking, used: list[Rule]) -> set[str]:
    """The symbols marked in ``marking``, closed under the used rules: a used
    rule whose left symbol is derivable makes its right symbols derivable."""
    derivable = {sym for sym, count in zip(bpp.symbols, marking) if count > 0}
    grown = True
    while grown:
        grown = False
        for rule in used:
            if rule.lhs in derivable and not derivable.issuperset(rule.rhs):
                derivable.update(rule.rhs)
                grown = True
    return derivable


def siphon_cut(bpp: Bpp, init: Marking, ys: dict[int, str], model: dict[str, int]) -> Node | None:
    """None when the model's firing counts are realizable, else a cut that
    the model breaks and every real run satisfies.

    D is the closure of the initially marked symbols under the used rules
    (y_r > 0 and lhs in D puts the rhs in D); the counts are realizable iff
    every used rule has its left symbol in D. Otherwise let S = symbols - D:
    S starts unmarked, so a run that fires a rule inside S (lhs in S) first
    fires a feeder (lhs outside S, some rhs symbol in S). The model fires
    no feeder, since its used rules with lhs in D only produce into D.
    """
    used = [rule for rule in bpp.rules if model[ys[rule.rid]] > 0]
    derivable = _derivable(bpp, init, used)
    if all(rule.lhs in derivable for rule in used):
        return None
    inside = [(ys[r.rid], 1) for r in bpp.rules if r.lhs not in derivable]
    feeders = [
        (ys[r.rid], 1)
        for r in bpp.rules
        if r.lhs in derivable and not derivable.issuperset(r.rhs)
    ]
    # The feeder disjunct goes first: the bundled solver tries disjuncts in
    # order, and inside = 0 first sends it into deep, mostly futile branching.
    no_inside = lin(inside, "=", 0)
    return disj([lin(feeders, ">=", 1), no_inside]) if feeders else no_inside


def decide(run: CheckRun, node: EF, m: Marking) -> bool | None:
    """Decide the EF node at the concrete marking m for ``ctl.check``.

    One refinement loop: solve the flow equations from m, the body over x
    and the cuts so far; while the model's used rules are not derivable
    from m, add the cut that ``siphon_cut`` returns and solve again. Each
    round is one self-contained script and gets the time the check has
    left; a node whose time runs out between rounds is unknown with reason
    ``timeout``. The accepted model is the node's witness."""
    bpp = run.bpp
    flow = encode_flow(bpp, m)
    run.counts["flow_vars"] = len(flow.declarations)  # the same names at every node
    parts = list(flow.constraints) + [atoms_to_node(node.sub, flow.vars.x)]
    while True:
        if run.left() <= 0:
            return run.unknown("timeout")
        formula = conj(parts)
        outcome = run.solve(to_smtlib(formula, flow.declarations))
        # Never trust model printing: the bindings must satisfy every
        # emitted constraint under the independent evaluator.
        if outcome.status == "sat" and not eval_node(formula, outcome.model):
            raise SolverProtocolError("solver model does not satisfy the encoding")
        run.counts.update(ef_rounds=1, n_asserts=len(parts))
        if outcome.status == "unsat":
            return False
        if outcome.status != "sat":
            return run.unknown(outcome.reason_unknown)
        cut = siphon_cut(bpp, m, flow.vars.y, outcome.model)
        if cut is None:
            return run.holds(outcome.model)
        parts.append(cut)


def realize_firing_counts(
    bpp: Bpp, init: Marking, counts: dict[int, int]
) -> tuple[list[int], Marking] | None:
    """Fire every rule its counted number of times, with all intermediate
    markings nonnegative.

    Returns the rule-id sequence and the marking it reaches, or None when the
    counts are unrealizable. This is the constructive proof of the
    characterization above: firing never changes init + sum_r counts_r*delta_r,
    so while the remaining counts are realizable, some enabled rule leaves
    remaining counts whose used rules are all derivable from the marking after
    it; fire the first such rule. Unrealizable counts run out of such rules.
    Each step tries each rule once with one closure, so no search is needed.
    """
    bpp.check_marking(init)
    remaining = [0] * len(bpp.rules)
    for rid, count in counts.items():
        if count < 0:
            raise ValueError("negative firing count")
        if not 0 <= rid < len(bpp.rules):
            raise ValueError(f"no rule with id {rid}")
        remaining[rid] = count
    marking, sequence = init, []
    while any(remaining):
        for rule in bpp.rules:
            if not remaining[rule.rid] or marking[bpp.index[rule.lhs]] < 1:
                continue
            remaining[rule.rid] -= 1
            after = fire(marking, rule.rid, bpp)
            used = [r for r in bpp.rules if remaining[r.rid]]
            derivable = _derivable(bpp, after, used)
            if all(r.lhs in derivable for r in used):
                marking = after
                sequence.append(rule.rid)
                break
            remaining[rule.rid] += 1
        else:
            return None
    return sequence, marking
