"""Actor communicating systems: their text format, their over-approximating
conversion, and properties over the converted system.

An actor system has finite control states, process classes, and messages;
configurations count processes per state and messages per mailbox. The
conversion splits each mailbox counter into an in/out pair so that a
receive, which would need two tokens on the left side, becomes a single
left symbol plus an out token on the right. The converted system admits
every original behavior, so unreachability transfers back. A property over
an actor system is an ordinary formula over the converted symbols:
``parse_property`` reads state names, in/out symbol names and mailbox terms
mail(p, m) straight into atoms over them, with the formula grammar of
``parsing.parse_problem``. ``parse_acs`` and ``parse_property`` share the
problem front end's tokenizer, cursor and formula and atom readers; the CLI
loads this module only for ``--acs``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Union

from .core import TAU, Bpp, Marking, Rule
from .ctl import Formula
from .errors import NameCollision, UnknownReference
from .parsing import _Cursor, _parse_atom, _parse_formula, tokenize
from .record import Record, setfield


class Nop(Record):
    __slots__ = ()


class Spawn(Record):
    __slots__ = __match_args__ = ("state",)


class Send(Record):
    __slots__ = __match_args__ = ("proc", "msg")


class Recv(Record):
    __slots__ = __match_args__ = ("proc", "msg")


AcsOp = Union[Nop, Spawn, Send, Recv]


class AcsRule(Record):
    __slots__ = __match_args__ = ("rid", "src", "op", "dst")


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


# ---------------------------------------------------------------------------
# Actor-system format
# ---------------------------------------------------------------------------


def parse_acs(text: str) -> tuple[Acs, AcsPlace]:
    """Parse the actor-system description format.

    Sections: ``states`` (required), ``procs`` and ``msgs`` (optional),
    ``rules`` with one transition per line, and a required ``init`` with
    ``state:count`` and ``(proc,msg):count`` entries (omitted entries are 0).
    """
    cur = _Cursor(tokenize(text))

    def names(what: str) -> list[str]:
        return cur.comma_list(lambda: _expect_acs_name(cur, what))

    cur.expect_keyword("states")
    states = names("a state name")
    procs: list[str] = []
    msgs: list[str] = []
    if cur.at_ident("procs"):
        cur.next()
        procs = names("a process name")
    if cur.at_ident("msgs"):
        cur.next()
        msgs = names("a message name")

    cur.expect_keyword("rules")
    state_set = set(states)
    proc_set = set(procs)
    msg_set = set(msgs)
    if len(states) != len(state_set) or len(procs) != len(proc_set) or len(msgs) != len(msg_set):
        raise cur.fail("distinct declarations", cur.tokens[0])
    rules = cur.rule_section(
        "init", lambda rid: _parse_acs_rule(cur, rid, state_set, proc_set, msg_set))
    acs = Acs(tuple(states), tuple(procs), tuple(msgs), tuple(rules))

    counts: dict[str | tuple[str, str], int] = {}

    def entry() -> None:
        # state:count or (proc,msg):count, each named at most once.
        tok = cur.peek()
        if tok.text == "(":
            cur.next()
            tok = cur.peek()
            p = _expect_declared(cur, proc_set, "a declared process")
            cur.expect_punct(",")
            key = (p, _expect_declared(cur, msg_set, "a declared message"))
            cur.expect_punct(")")
        elif tok.kind == "ident":
            key = _expect_declared(cur, state_set, "a declared state")
        else:
            raise cur.fail("an init entry")
        cur.expect_punct(":")
        count = cur.expect_number()
        if key in counts:
            raise cur.fail("a fresh init entry", tok)
        counts[key] = count

    cur.comma_list(entry)
    cur.expect_end()
    u = tuple(counts.get(q, 0) for q in states)
    return acs, AcsPlace(u, tuple(counts.get(pm, 0) for pm in acs.pairs))


def _expect_acs_name(cur: _Cursor, what: str) -> str:
    tok = cur.peek()
    if tok.kind != "ident" or tok.text.startswith(TAU):
        raise cur.fail(what)
    return cur.next().text


def _expect_declared(cur: _Cursor, names: set, what: str) -> str:
    """An actor-system name from the declared set; what names it."""
    tok = cur.peek()
    name = _expect_acs_name(cur, what)
    if name not in names:
        raise cur.fail(what, tok)
    return name


def _parse_acs_rule(cur: _Cursor, rid: int, states: set, procs: set, msgs: set) -> AcsRule:
    src = _expect_declared(cur, states, "a declared state")
    cur.expect_punct("->")

    tok = cur.peek()
    if tok.kind != "ident":
        raise cur.fail("an operation (nop, new, p!m, p?m)")
    if tok.text == "nop":
        cur.next()
        op = Nop()
    elif tok.text == "new":
        cur.next()
        op = Spawn(_expect_declared(cur, states, "a declared state"))
    else:
        proc = _expect_declared(cur, procs, "a declared process")
        kind_tok = cur.peek()
        if kind_tok.text not in ("!", "?"):
            raise cur.fail("'!' or '?'")
        cur.next()
        msg = _expect_declared(cur, msgs, "a declared message")
        op = Send(proc, msg) if kind_tok.text == "!" else Recv(proc, msg)

    cur.expect_punct("->")
    dst = _expect_declared(cur, states, "a declared state")
    return AcsRule(rid, src, op, dst)


# ---------------------------------------------------------------------------
# Actor-level properties
# ---------------------------------------------------------------------------


def parse_property(text: str, cb: ConvertedBpp) -> Formula:
    """Parse a property formula over a converted actor system.

    The formula grammar is the problem-file one; a term is a state name, a
    converted in/out symbol name, or mail(p, m), which reads as
    ``p_m_in - p_m_out``. The atoms come out over converted symbols.
    """
    cur = _Cursor(tokenize(text))

    def term(cur: _Cursor) -> list[tuple[str, int]]:
        if cur.peek().text == "mail" and cur.peek(1).text == "(":
            cur.next()
            cur.expect_punct("(")
            p_tok = cur.peek()
            proc = _expect_acs_name(cur, "a declared process")
            cur.expect_punct(",")
            msg = _expect_acs_name(cur, "a declared message")
            cur.expect_punct(")")
            if (proc, msg) not in cb.acs.pair_index:
                raise cur.fail("a declared mailbox slot", p_tok)
            return [(cb.in_symbol[(proc, msg)], 1), (cb.out_symbol[(proc, msg)], -1)]
        if cur.peek().text not in cb.bpp.index:
            raise cur.fail("a declared state or converted symbol")
        return [(cur.next().text, 1)]

    what = "a state, symbol, or mail(p, m) term"
    formula = _parse_formula(cur, cb.bpp.actions, lambda: _parse_atom(cur, term, what))
    cur.expect_end()
    return formula
