"""Text front-ends: the problem language, the actor-system format, and
actor-level property formulas.

The problem grammar is the hand-written recursive-descent kind: whitespace
and newlines are insignificant between tokens, ``#`` starts a comment,
keywords (initial, rules, formula, nil) are reserved. Numbers are ASCII
decimals and accept 0 in addition to the positive ones of the base grammar.
Every parse error carries a 1-based line/column pointing at the first
offending token.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .core import TAU, Bpp, Rule, parikh
from .ctl import (
    AF,
    EF,
    EG,
    And,
    ANext,
    Atom,
    Cmp,
    ENext,
    Formula,
    Imp,
    LinearAtom,
    Not,
    Or,
)
from .errors import ParseError
from .record import Record

if TYPE_CHECKING:
    from .acs import Acs, AcsPlace, AcsRule, ConvertedBpp

KEYWORDS = ("initial", "rules", "formula", "nil")
UNARY_OPS = {"Neg": Not, "EG": EG, "AF": AF, "EF": EF}
BINARY_OPS = {"Conj": And, "Disj": Or, "Imp": Imp}
NEXT_OPS = {"EX": ENext, "AX": ANext}
CMP_TOKENS = {"==": Cmp.EQ, "!=": Cmp.NE, ">=": Cmp.GE, "<=": Cmp.LE, ">": Cmp.GT, "<": Cmp.LT}
#: Deepest operator nesting a formula may have. The parser and the passes
#: after it (classification, the encoders, the serializer) recurse once per
#: level, and a derived operator (Disj, Imp, AX, AF) builds up to three core
#: levels; deeper input is rejected here with a parse error instead of
#: overflowing the interpreter stack later.
MAX_FORMULA_DEPTH = 100


class Token(Record):
    # kind is ident, number, punct or eof.
    __slots__ = __match_args__ = ("kind", "text", "line", "col")


_PUNCT = ("->", "==", "!=", ">=", "<=", "(", ")", ",", "*", "+", "-", ">", "<", ":", "!", "?")
# Numbers are ASCII decimals: str.isdigit also accepts "²" and "①", which
# int() then refuses.
_DIGITS = "0123456789"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for punct in _PUNCT:
            if text.startswith(punct, i):
                matched = punct
                break
        if matched:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            word = text[i:j]
            if len(word) > 1 and word[0] == "0":
                raise ParseError(line, col, "a number without leading zeros", word)
            tokens.append(Token("number", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or text.startswith(TAU, i):
            # Identifiers may carry underscores at the model level (converted
            # in/out symbols); the strict surface-grammar contexts reject
            # them one level up, with the token's position.
            j = i
            if text.startswith(TAU, i):
                j = i + len(TAU)
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("ident", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, "a token", ch)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(tok.line, tok.col, expected, found)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.fail(f"'{text}'")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(f"'{word}'")
        return self.next()

    def expect_number(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("a number")
        self.next()
        return int(tok.text)

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        if tok.kind != "ident":
            return False
        return text is None or tok.text == text


class ProblemFile(Record):
    __slots__ = __match_args__ = ("bpp", "initial", "formula")


def _expect_var(cur: _Cursor, expected: str = "a symbol name") -> Token:
    # Problem-file VAR is strict: letter first, letters and digits only.
    tok = cur.peek()
    if tok.kind != "ident" or not tok.text[0].isalpha() or "_" in tok.text:
        raise cur.fail(expected)
    if tok.text in KEYWORDS:
        raise cur.fail(expected)
    return cur.next()


def parse_problem(text: str) -> ProblemFile:
    """Parse one problem file: system, initial expression, formula."""
    cur = _Cursor(tokenize(text))
    declared: dict[str, None] = {}

    cur.expect_keyword("initial")
    initial_syms = [_expect_var(cur).text]
    declared.setdefault(initial_syms[0])
    while cur.peek().text == ",":
        cur.next()
        sym = _expect_var(cur).text
        initial_syms.append(sym)
        declared.setdefault(sym)

    cur.expect_keyword("rules")
    rules: list[Rule] = []
    first_rule_tok = cur.peek()
    while cur.at_ident() and not cur.at_ident("formula"):
        rules.append(_parse_rule(cur, len(rules), declared))
    if not rules:
        raise cur.fail("a rule", first_rule_tok)

    cur.expect_keyword("formula")
    bpp = Bpp(tuple(declared), tuple(rules))

    def symbol(cur: _Cursor) -> list[tuple[str, int]]:
        if cur.peek().text not in bpp.index:
            raise cur.fail("a declared symbol")
        return [(cur.next().text, 1)]

    formula = _parse_formula(cur, bpp.actions, lambda: _parse_atom(cur, symbol, "a symbol name"))
    tok = cur.peek()
    if tok.kind != "eof":
        raise cur.fail("end of input")
    return ProblemFile(bpp=bpp, initial=parikh(initial_syms, bpp), formula=formula)


def _parse_rule(cur: _Cursor, rid: int, declared: dict[str, None]) -> Rule:
    lhs = _expect_var(cur).text
    declared.setdefault(lhs)
    cur.expect_punct("->")
    action = TAU
    rhs: list[str] = []

    if cur.at_ident("nil"):
        cur.next()
        return Rule(rid, lhs, action, ())

    tok = cur.peek()
    if tok.kind != "ident" or tok.text in KEYWORDS:
        raise cur.fail("a symbol, label, or 'nil'")
    first = cur.next().text
    if cur.peek().text == "->":
        # A label: the base identifier shape, or the reserved action
        # written out explicitly.
        if first != TAU and (not first[0].isalpha() or "_" in first):
            raise cur.fail("an action label", tok)
        action = first
        cur.next()
        if cur.at_ident("nil"):
            cur.next()
            return Rule(rid, lhs, action, ())
        rhs.append(_expect_var(cur).text)
    else:
        if not first[0].isalpha() or "_" in first:
            raise cur.fail("a symbol name", tok)
        rhs.append(first)
    declared.setdefault(rhs[0])
    while cur.peek().text == ",":
        cur.next()
        sym = _expect_var(cur).text
        rhs.append(sym)
        declared.setdefault(sym)
    return Rule(rid, lhs, action, tuple(rhs))


def _parse_formula(
    cur: _Cursor, actions: frozenset[str], parse_atom: Callable[[], Formula], depth: int = 0
) -> Formula:
    """One formula over the given step labels; atoms come from parse_atom."""
    tok = cur.peek()
    if tok.kind != "ident" or cur.peek(1).text != "(":
        return parse_atom()
    if tok.text not in UNARY_OPS and tok.text not in BINARY_OPS and tok.text not in NEXT_OPS:
        return parse_atom()
    if depth == MAX_FORMULA_DEPTH:
        raise cur.fail(f"a formula nested at most {MAX_FORMULA_DEPTH} operators deep")
    cur.next()
    cur.expect_punct("(")
    if tok.text in UNARY_OPS:
        sub = _parse_formula(cur, actions, parse_atom, depth + 1)
        cur.expect_punct(")")
        return UNARY_OPS[tok.text](sub)
    if tok.text in BINARY_OPS:
        left = _parse_formula(cur, actions, parse_atom, depth + 1)
        cur.expect_punct(",")
        right = _parse_formula(cur, actions, parse_atom, depth + 1)
        cur.expect_punct(")")
        return BINARY_OPS[tok.text](left, right)
    label_tok = cur.peek()
    if label_tok.kind != "ident" or label_tok.text in KEYWORDS:
        raise cur.fail("an action label")
    if label_tok.text not in actions:
        raise cur.fail("a declared action label")
    cur.next()
    cur.expect_punct(",")
    sub = _parse_formula(cur, actions, parse_atom, depth + 1)
    cur.expect_punct(")")
    return NEXT_OPS[tok.text](label_tok.text, sub)


def _parse_atom(
    cur: _Cursor, resolve: Callable[[_Cursor], list[tuple[str, int]]], what: str
) -> Atom:
    """One linear atom: signed terms, a comparison, a bound. resolve reads
    the term at the cursor and gives its (symbol, coefficient) pairs, which
    the sign and the ``* n`` factor then scale; what names a term."""
    terms: list[tuple[str, int]] = []
    scale = 1
    while True:
        tok = cur.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS or tok.text == TAU:
            raise cur.fail(what)
        pairs = resolve(cur)
        if cur.peek().text == "*":
            cur.next()
            scale *= cur.expect_number()
        terms.extend((sym, scale * coeff) for sym, coeff in pairs)
        if cur.peek().text not in ("+", "-"):
            break
        scale = 1 if cur.next().text == "+" else -1

    cmp_tok = cur.peek()
    if cmp_tok.text not in CMP_TOKENS:
        raise cur.fail("a comparison operator")
    cur.next()
    bound = cur.expect_number()
    return Atom(LinearAtom(tuple(terms), CMP_TOKENS[cmp_tok.text], bound))


# ---------------------------------------------------------------------------
# Actor-system format
# ---------------------------------------------------------------------------


def parse_acs(text: str) -> tuple[Acs, AcsPlace]:
    """Parse the actor-system description format.

    Sections: ``states`` (required), ``procs`` and ``msgs`` (optional),
    ``rules`` with one transition per line, and a required ``init`` with
    ``state:count`` and ``(proc,msg):count`` entries (omitted entries are 0).
    """
    from .acs import Acs, AcsPlace

    cur = _Cursor(tokenize(text))

    def ident_list(what: str) -> list[str]:
        names = [_expect_acs_name(cur, what)]
        while cur.peek().text == ",":
            cur.next()
            names.append(_expect_acs_name(cur, what))
        return names

    cur.expect_keyword("states")
    states = ident_list("a state name")
    procs: list[str] = []
    msgs: list[str] = []
    if cur.at_ident("procs"):
        cur.next()
        procs = ident_list("a process name")
    if cur.at_ident("msgs"):
        cur.next()
        msgs = ident_list("a message name")

    cur.expect_keyword("rules")
    state_set = set(states)
    proc_set = set(procs)
    msg_set = set(msgs)
    if len(states) != len(state_set) or len(procs) != len(proc_set) or len(msgs) != len(msg_set):
        raise cur.fail("distinct declarations", cur.tokens[0])

    rules: list[AcsRule] = []
    first_rule_tok = cur.peek()
    while cur.at_ident() and not cur.at_ident("init"):
        rules.append(_parse_acs_rule(cur, len(rules), state_set, proc_set, msg_set))
    if not rules:
        raise cur.fail("a rule", first_rule_tok)

    cur.expect_keyword("init")
    acs = Acs(tuple(states), tuple(procs), tuple(msgs), tuple(rules))
    u = [0] * len(states)
    v = [0] * len(acs.pairs)
    seen: set = set()
    while True:
        tok = cur.peek()
        if tok.text == "(":
            cur.next()
            p_tok = cur.peek()
            p = _expect_declared(cur, proc_set, "a declared process")
            cur.expect_punct(",")
            m = _expect_declared(cur, msg_set, "a declared message")
            cur.expect_punct(")")
            cur.expect_punct(":")
            count = cur.expect_number()
            if ("pair", p, m) in seen:
                raise cur.fail("a fresh init entry", p_tok)
            seen.add(("pair", p, m))
            v[acs.pair_index[(p, m)]] = count
        elif tok.kind == "ident":
            q = _expect_declared(cur, state_set, "a declared state")
            cur.expect_punct(":")
            count = cur.expect_number()
            if ("state", q) in seen:
                raise cur.fail("a fresh init entry", tok)
            seen.add(("state", q))
            u[acs.state_index[q]] = count
        else:
            raise cur.fail("an init entry")
        if cur.peek().text != ",":
            break
        cur.next()
    if cur.peek().kind != "eof":
        raise cur.fail("end of input")
    return acs, AcsPlace(tuple(u), tuple(v))


def _expect_acs_name(cur: _Cursor, what: str) -> str:
    tok = cur.peek()
    if tok.kind != "ident" or tok.text == TAU:
        raise cur.fail(what)
    return cur.next().text


def _expect_declared(cur: _Cursor, names: set, what: str) -> str:
    """An actor-system name from the declared set; what names it."""
    tok = cur.peek()
    name = _expect_acs_name(cur, what)
    if name not in names:
        raise cur.fail(what, tok)
    return name


def _parse_acs_rule(cur, rid: int, states: set, procs: set, msgs: set) -> AcsRule:
    from .acs import AcsRule, Nop, Recv, Send, Spawn

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
    if cur.peek().kind != "eof":
        raise cur.fail("end of input")
    return formula
