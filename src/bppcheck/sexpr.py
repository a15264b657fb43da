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
    """Parse every top-level s-expression in the text."""
    tokens = tokenize(text)
    forms: list = []
    pos = 0

    def parse_one(at: int):
        if at >= len(tokens):
            raise SolverProtocolError("unexpected end of input")
        tok = tokens[at]
        if tok == "(":
            items = []
            at += 1
            while at < len(tokens) and tokens[at] != ")":
                item, at = parse_one(at)
                items.append(item)
            if at >= len(tokens):
                raise SolverProtocolError("unbalanced parenthesis")
            return items, at + 1
        if tok == ")":
            raise SolverProtocolError("unexpected ')'")
        return tok, at + 1

    while pos < len(tokens):
        form, pos = parse_one(pos)
        forms.append(form)
    return forms
