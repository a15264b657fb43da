"""Tiny s-expression reader, enough for SMT-LIB2 scripts and solver output."""

from __future__ import annotations

from .errors import SolverProtocolError

Sexpr = "str | list"


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SolverProtocolError("unterminated |symbol|")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"|':
                j += 1
            tokens.append(text[i:j])
            i = j
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
