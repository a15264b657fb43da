"""Actor communicating systems and their over-approximating conversion.

An actor system has finite control states, process classes, and messages;
configurations count processes per state and messages per mailbox. The
conversion splits each mailbox counter into an in/out pair so that a
receive, which would need two tokens on the left side, becomes a single
left symbol plus an out token on the right. The converted system admits
every original behavior, so unreachability transfers back.
"""

from __future__ import annotations

from functools import cached_property
from typing import Union

from .core import TAU, Bpp, Marking, Rule
from .ctl import (
    And,
    Atom,
    Cmp,
    EF,
    EG,
    ENext,
    Formula,
    Imp,
    LinearAtom,
    Not,
    Or,
    ANext,
    AF,
)
from .errors import NameCollision, UnknownReference
from .record import Record, setfield


class Nop(Record):
    __slots__ = ()


class Spawn(Record):
    __slots__ = __match_args__ = ("state",)

    def __init__(self, state: str):
        setfield(self, "state", state)


class Send(Record):
    __slots__ = __match_args__ = ("proc", "msg")

    def __init__(self, proc: str, msg: str):
        setfield(self, "proc", proc)
        setfield(self, "msg", msg)


class Recv(Record):
    __slots__ = __match_args__ = ("proc", "msg")

    def __init__(self, proc: str, msg: str):
        setfield(self, "proc", proc)
        setfield(self, "msg", msg)


AcsOp = Union[Nop, Spawn, Send, Recv]


class AcsRule(Record):
    __slots__ = __match_args__ = ("rid", "src", "op", "dst")

    def __init__(self, rid: int, src: str, op: AcsOp, dst: str):
        setfield(self, "rid", rid)
        setfield(self, "src", src)
        setfield(self, "op", op)
        setfield(self, "dst", dst)


class Acs(Record):
    # The instance dict holds the cached properties, outside equality.
    __match_args__ = ("states", "procs", "msgs", "rules")
    __slots__ = __match_args__ + ("__dict__",)

    def __init__(self, states: tuple[str, ...], procs: tuple[str, ...], msgs: tuple[str, ...],
                 rules: tuple[AcsRule, ...]):
        setfield(self, "states", states)
        setfield(self, "procs", procs)
        setfield(self, "msgs", msgs)
        setfield(self, "rules", rules)
        for group in (self.states, self.procs, self.msgs):
            if len(set(group)) != len(group):
                raise ValueError("duplicate declaration")
        states = set(self.states)
        procs = set(self.procs)
        msgs = set(self.msgs)
        for i, rule in enumerate(self.rules):
            if rule.rid != i:
                raise ValueError("rule ids must be 0-based declaration order")
            if rule.src not in states or rule.dst not in states:
                raise UnknownReference(f"rule {i} endpoint not a declared state")
            op = rule.op
            if isinstance(op, Spawn) and op.state not in states:
                raise UnknownReference(f"rule {i} spawns undeclared state {op.state!r}")
            if isinstance(op, (Send, Recv)):
                if op.proc not in procs:
                    raise UnknownReference(f"rule {i} uses undeclared process {op.proc!r}")
                if op.msg not in msgs:
                    raise UnknownReference(f"rule {i} uses undeclared message {op.msg!r}")

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, m) for p in self.procs for m in self.msgs)

    @cached_property
    def pair_index(self) -> dict[tuple[str, str], int]:
        return {pm: i for i, pm in enumerate(self.pairs)}


class AcsPlace(Record):
    """Counter configuration: u counts processes per state, v counts
    messages per (process, message) mailbox slot."""

    __slots__ = __match_args__ = ("u", "v")

    def __init__(self, u: tuple[int, ...], v: tuple[int, ...]):
        if any(c < 0 for c in u) or any(c < 0 for c in v):
            raise ValueError("negative counter")
        setfield(self, "u", u)
        setfield(self, "v", v)


def acs_step(acs: Acs, place: AcsPlace, rule: AcsRule) -> AcsPlace | None:
    """One counter-semantics step, or None when the rule is disabled."""
    src = acs.state_index[rule.src]
    if place.u[src] == 0:
        return None
    op = rule.op
    if isinstance(op, Recv) and place.v[acs.pair_index[(op.proc, op.msg)]] == 0:
        return None
    u = list(place.u)
    v = list(place.v)
    u[src] -= 1
    u[acs.state_index[rule.dst]] += 1
    if isinstance(op, Spawn):
        u[acs.state_index[op.state]] += 1
    elif isinstance(op, Send):
        v[acs.pair_index[(op.proc, op.msg)]] += 1
    elif isinstance(op, Recv):
        v[acs.pair_index[(op.proc, op.msg)]] -= 1
    return AcsPlace(tuple(u), tuple(v))


def acs_successors(acs: Acs, place: AcsPlace) -> list[tuple[int, AcsPlace]]:
    out = []
    for rule in acs.rules:
        nxt = acs_step(acs, place, rule)
        if nxt is not None:
            out.append((rule.rid, nxt))
    return out


class ConvertedBpp(Record):
    """Conversion result plus the name maps back into the actor system."""

    __slots__ = __match_args__ = ("acs", "bpp", "in_symbol", "out_symbol")

    def __init__(self, acs: Acs, bpp: Bpp, in_symbol: dict[tuple[str, str], str],
                 out_symbol: dict[tuple[str, str], str]):
        setfield(self, "acs", acs)
        setfield(self, "bpp", bpp)
        setfield(self, "in_symbol", in_symbol)
        setfield(self, "out_symbol", out_symbol)


def convert(acs: Acs) -> ConvertedBpp:
    """One rule per actor rule, all under the reserved unlabeled action.

    Symbols are the states in declaration order, then an in/out pair per
    (process, message) slot. Receives are unguarded: they emit an out token
    instead of consuming an in token, which is what makes this an
    over-approximation.
    """
    in_symbol = {pm: f"{pm[0]}_{pm[1]}_in" for pm in acs.pairs}
    out_symbol = {pm: f"{pm[0]}_{pm[1]}_out" for pm in acs.pairs}
    symbols = list(acs.states)
    for pm in acs.pairs:
        symbols.append(in_symbol[pm])
        symbols.append(out_symbol[pm])
    if len(set(symbols)) != len(symbols):
        raise NameCollision("generated in/out symbol names collide with declared states")

    rules = []
    for rule in acs.rules:
        rhs = [rule.dst]
        op = rule.op
        if isinstance(op, Spawn):
            rhs.append(op.state)
        elif isinstance(op, Send):
            rhs.append(in_symbol[(op.proc, op.msg)])
        elif isinstance(op, Recv):
            rhs.append(out_symbol[(op.proc, op.msg)])
        rules.append(Rule(rule.rid, rule.src, TAU, tuple(rhs)))
    bpp = Bpp(tuple(symbols), tuple(rules))
    return ConvertedBpp(acs=acs, bpp=bpp, in_symbol=in_symbol, out_symbol=out_symbol)


def convert_place(cb: ConvertedBpp, place: AcsPlace) -> Marking:
    """State counters copy over; in counters take the mailbox counts; out
    counters start at zero."""
    acs = cb.acs
    if len(place.u) != len(acs.states) or len(place.v) != len(acs.pairs):
        raise ValueError("place does not match the actor system")
    counts = dict.fromkeys(cb.bpp.symbols, 0)
    for q, i in acs.state_index.items():
        counts[q] = place.u[i]
    for pm, i in acs.pair_index.items():
        counts[cb.in_symbol[pm]] = place.v[i]
        counts[cb.out_symbol[pm]] = 0
    return tuple(counts[s] for s in cb.bpp.symbols)


def mailbox_content(cb: ConvertedBpp, marking: Marking, proc: str, msg: str) -> int:
    """in-count minus out-count for one mailbox slot of a converted marking."""
    i = cb.bpp.index[cb.in_symbol[(proc, msg)]]
    o = cb.bpp.index[cb.out_symbol[(proc, msg)]]
    return marking[i] - marking[o]


#: Term references in actor-level properties: a plain name (state or direct
#: converted symbol) or a mailbox content term mail(p, m).
NameRef = tuple[str]
MailRef = tuple[str, str, str]


def name_ref(name: str) -> NameRef:
    return (name,)


def mail_ref(proc: str, msg: str) -> MailRef:
    return ("mail", proc, msg)


class PropertyAtom(Record):
    """Pre-lift linear atom whose terms reference actor-level names."""

    __slots__ = __match_args__ = ("terms", "cmp", "bound")

    def __init__(self, terms: tuple[tuple[NameRef | MailRef, int], ...], cmp: Cmp, bound: int):
        setfield(self, "terms", terms)
        setfield(self, "cmp", cmp)
        setfield(self, "bound", bound)


def lift_atom(
    cb: ConvertedBpp,
    terms: list[tuple[NameRef | MailRef, int]],
    cmp: Cmp,
    bound: int,
) -> LinearAtom:
    """Rewrite an actor-level linear atom over converted symbols.

    State counters map to state symbols, mail(p, m) maps to +coeff on the
    in symbol and -coeff on the out symbol, and direct in/out symbol names
    pass through.
    """
    out: list[tuple[str, int]] = []
    for ref, coeff in terms:
        if len(ref) == 3 and ref[0] == "mail":
            _, proc, msg = ref
            if (proc, msg) not in cb.acs.pair_index:
                raise UnknownReference(f"no mailbox slot ({proc}, {msg})")
            out.append((cb.in_symbol[(proc, msg)], coeff))
            out.append((cb.out_symbol[(proc, msg)], -coeff))
        else:
            (name,) = ref
            if name not in cb.bpp.index:
                raise UnknownReference(f"{name!r} is neither a state nor a converted symbol")
            out.append((name, coeff))
    return LinearAtom(tuple(out), cmp, bound)


def lift_formula(cb: ConvertedBpp, f) -> Formula:
    """Map a formula tree whose leaves are PropertyAtom references."""
    if isinstance(f, PropertyAtom):
        return Atom(lift_atom(cb, list(f.terms), f.cmp, f.bound))
    if isinstance(f, Not):
        return Not(lift_formula(cb, f.sub))
    if isinstance(f, And):
        return And(lift_formula(cb, f.left), lift_formula(cb, f.right))
    if isinstance(f, Or):
        return Or(lift_formula(cb, f.left), lift_formula(cb, f.right))
    if isinstance(f, Imp):
        return Imp(lift_formula(cb, f.left), lift_formula(cb, f.right))
    if isinstance(f, ENext):
        return ENext(f.action, lift_formula(cb, f.sub))
    if isinstance(f, ANext):
        return ANext(f.action, lift_formula(cb, f.sub))
    if isinstance(f, EG):
        return EG(lift_formula(cb, f.sub))
    if isinstance(f, AF):
        return AF(lift_formula(cb, f.sub))
    if isinstance(f, EF):
        return EF(lift_formula(cb, f.sub))
    raise TypeError(f"not a formula node: {f!r}")
