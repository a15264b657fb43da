"""The problem-file front end, and the tokenizer, cursor and formula and
atom readers that the actor front end (``acs.parse_acs`` and
``acs.parse_property``) shares with it.

The problem grammar is the hand-written recursive-descent kind: whitespace
and newlines are insignificant between tokens, ``#`` starts a comment,
keywords (initial, rules, formula, nil) are reserved. Identifiers and
numbers are ASCII; numbers are decimals and accept 0 in addition to the
positive ones of the base grammar.
Every parse error carries a 1-based line/column pointing at the first
offending token.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

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

T = TypeVar("T")
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


#: One token or gap, tried in this order: a newline, blanks or a ``#``
#: comment (no group: skipped), a punctuation mark (two-character ones
#: first), a number with a leading zero, a number, an identifier, and any
#: other character. Numbers and identifiers are ASCII; an identifier starts
#: with a letter or the reserved action name, and may carry underscores at
#: the model level (converted in/out symbols), which the strict
#: surface-grammar contexts reject one level up, with the token's position.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<punct>->|==|!=|>=|<=|[(),*+\-><:!?])"
    r"|(?P<zeros>0[0-9]+)|(?P<number>[0-9]+)|(?P<ident>(?:[A-Za-z]|" + TAU + r")[A-Za-z0-9_]*)"
    r"|(?P<bad>.)"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: offset of the line's first character
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line, start = line + 1, match.end()
        elif kind is not None:
            col = match.start() - start + 1
            if kind == "bad":
                raise ParseError(line, col, "a token", match.group())
            if kind == "zeros":
                raise ParseError(line, col, "a number without leading zeros", match.group())
            tokens.append(Token(kind, match.group(), line, col))
    # A comment takes no column: the end of input sits where it starts. No
    # token holds a '#', so the last line's first one starts its comment.
    last = text[start:]
    end = last.find("#")
    tokens.append(Token("eof", "", line, (len(last) if end < 0 else end) + 1))
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

    def expect_end(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail("end of input")

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        if tok.kind != "ident":
            return False
        return text is None or tok.text == text

    def comma_list(self, read: Callable[[], T]) -> list[T]:
        """read() once, then once more after each ','."""
        items = [read()]
        while self.peek().text == ",":
            self.next()
            items.append(read())
        return items

    def rule_section(self, end: str, read: Callable[[int], T]) -> list[T]:
        """One or more read(rule id) up to the keyword end, which is consumed."""
        first = self.peek()
        items: list[T] = []
        while self.at_ident() and not self.at_ident(end):
            items.append(read(len(items)))
        if not items:
            raise self.fail("a rule", first)
        self.expect_keyword(end)
        return items


class ProblemFile(Record):
    __slots__ = __match_args__ = ("bpp", "initial", "formula")


def parse_problem(text: str) -> ProblemFile:
    """Parse one problem file: system, initial expression, formula."""
    cur = _Cursor(tokenize(text))
    declared: dict[str, None] = {}

    def var() -> str:
        # A problem-file symbol is strict: letter first, letters and digits only.
        tok = cur.peek()
        if tok.kind != "ident" or "_" in tok.text or tok.text in KEYWORDS:
            raise cur.fail("a symbol name")
        declared.setdefault(tok.text)
        return cur.next().text

    cur.expect_keyword("initial")
    initial_syms = cur.comma_list(var)
    cur.expect_keyword("rules")
    rules = cur.rule_section("formula", lambda rid: _parse_rule(cur, rid, var))
    bpp = Bpp(tuple(declared), tuple(rules))

    def symbol(cur: _Cursor) -> list[tuple[str, int]]:
        if cur.peek().text not in bpp.index:
            raise cur.fail("a declared symbol")
        return [(cur.next().text, 1)]

    formula = _parse_formula(cur, bpp.actions, lambda: _parse_atom(cur, symbol, "a symbol name"))
    cur.expect_end()
    return ProblemFile(bpp=bpp, initial=parikh(initial_syms, bpp), formula=formula)


def _parse_rule(cur: _Cursor, rid: int, var: Callable[[], str]) -> Rule:
    lhs = var()
    cur.expect_punct("->")
    tok = cur.peek()
    if tok.kind != "ident" or (tok.text in KEYWORDS and tok.text != "nil"):
        raise cur.fail("a symbol, label, or 'nil'")
    action = TAU
    if tok.text != "nil" and cur.peek(1).text == "->":
        # A label: the base identifier shape, or the reserved action
        # written out explicitly.
        if tok.text != TAU and "_" in tok.text:
            raise cur.fail("an action label")
        action = tok.text
        cur.next()
        cur.next()
    if cur.at_ident("nil"):
        cur.next()
        return Rule(rid, lhs, action, ())
    return Rule(rid, lhs, action, tuple(cur.comma_list(var)))


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


def __getattr__(name: str):
    # The actor front end lives in acs. The benchmark's traced pipeline
    # (clibench/trace.py) still reads its two entry points here.
    if name in ("parse_acs", "parse_property"):
        from . import acs

        return getattr(acs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
