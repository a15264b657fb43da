"""Tiny s-expression reader, enough for SMT-LIB2 scripts and solver output."""

from __future__ import annotations

import re

from .errors import SolverProtocolError

Sexpr = "str | list"


#: One token: a parenthesis, a "string" with "" escapes (running to the end
#: of the text when unterminated), a |symbol|, a lone | (an unterminated
#: symbol), a ; comment, or an atom. Whitespace matches nothing and is skipped.
_TOKEN = re.compile(r'[()]|"(?:[^"]*"")*[^"]*"?|\|[^|]*\||\||;[^\n]*|[^ \t\r\n();"|]+')


def tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if "|" in text and "|" in tokens:
        raise SolverProtocolError("unterminated |symbol|")
    if ";" in text:
        tokens = [tok for tok in tokens if tok[0] != ";"]
    return tokens


def parse_all(text: str) -> list:
    """Parse every top-level s-expression in the text.

    Iterative, with an explicit stack of open lists, so nesting depth is
    bounded by memory rather than by Python's recursion limit.
    """
    forms: list = []
    open_lists: list[list] = []
    for tok in tokenize(text):
        if tok == "(":
            open_lists.append([])
        elif tok == ")":
            if not open_lists:
                raise SolverProtocolError("unexpected ')'")
            done = open_lists.pop()
            (open_lists[-1] if open_lists else forms).append(done)
        else:
            (open_lists[-1] if open_lists else forms).append(tok)
    if open_lists:
        raise SolverProtocolError("unbalanced parenthesis")
    return forms


_CLOSE = object()


def render(form) -> str:
    """Print a parsed form back as text, with an explicit stack like
    ``parse_all``."""
    parts: list[str] = []
    stack = [form]
    while stack:
        item = stack.pop()
        if item is _CLOSE:
            parts.append(")")
            continue
        if parts and parts[-1] != "(":
            parts.append(" ")
        if isinstance(item, list):
            parts.append("(")
            stack.append(_CLOSE)
            stack.extend(reversed(item))
        else:
            parts.append(item)
    return "".join(parts)
