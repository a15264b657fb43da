"""Script assembly: declarations plus one assertion, rendered once."""

from __future__ import annotations

from ..errors import IllFormedFormula
from ..record import Record
from .terms import _NAME_RE, Node, free_vars, has_quantifier, to_sexpr

QF_LOGIC = "QF_LIA"
QUANTIFIED_LOGIC = "LIA"


class SmtScript(Record):
    """One self-contained SMT-LIB2 script.

    ``text`` is exactly what the solver gets, on stdin or in process; the
    timeout is runner metadata (a deadline for the bundled solver, a kill
    for a child), not part of the script.
    """

    __slots__ = __match_args__ = ("logic", "declarations", "text")


def to_smtlib(node: Node, declarations: tuple[str, ...]) -> SmtScript:
    """Serialize a formula with its declared integer constants.

    Every free variable must be declared exactly once; the logic is
    quantifier-free linear integers unless a quantifier survives in the body.
    """
    seen: set[str] = set()
    for name in declarations:
        if not _NAME_RE.match(name):
            raise IllFormedFormula(f"bad constant name {name!r}")
        if name in seen:
            raise IllFormedFormula(f"constant {name!r} declared twice")
        seen.add(name)
    undeclared = free_vars(node) - seen
    if undeclared:
        raise IllFormedFormula(f"free variables not declared: {sorted(undeclared)}")
    logic = QUANTIFIED_LOGIC if has_quantifier(node) else QF_LOGIC

    lines = ["(set-option :produce-models true)", f"(set-logic {logic})"]
    for name in declarations:
        lines.append(f"(declare-const {name} Int)")
    lines.append(f"(assert {to_sexpr(node)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    lines.append("(get-info :reason-unknown)")
    lines.append("(get-info :all-statistics)")
    text = "\n".join(lines) + "\n"
    return SmtScript(logic=logic, declarations=tuple(declarations), text=text)
