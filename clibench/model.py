"""The benchmark's own picture of its inputs, kept apart from the program.

A system is a tuple of symbols, a tuple of rules ``(lhs, action, rhs)`` and
an initial marking; a formula is a nested tuple:

    ("atom", ((sym, coeff), ...), cmp, bound)
    ("not", f)  ("and", f, g)  ("or", f, g)
    ("ef", f)   ("eg", f)      ("af", f)
    ("ex", action, f)          ("ax", action, f)

Actor systems are states, process classes, message kinds, rules
``(src, op, arg, dst)`` with ``op`` in ``send``/``recv``/``nop`` and an
initial count per state and per mailbox slot. Only this module turns these
into the program's text formats; the reference checker reads the tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

TAU = "_tau"


@dataclass(frozen=True)
class System:
    symbols: tuple[str, ...]
    rules: tuple[tuple[str, str, tuple[str, ...]], ...]
    init: tuple[int, ...]

    def index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}


@dataclass(frozen=True)
class Actors:
    states: tuple[str, ...]
    procs: tuple[str, ...]
    msgs: tuple[str, ...]
    rules: tuple[tuple[str, str, tuple[str, str] | None, str], ...]
    init_states: tuple[int, ...]
    init_mail: tuple[int, ...]  # one count per (proc, msg) in procs x msgs order

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, m) for p in self.procs for m in self.msgs)


def atom(terms, cmp: str, bound: int):
    return ("atom", tuple(terms), cmp, bound)


def _atom_text(terms, cmp: str, bound: int, name_of=lambda ref: ref) -> str:
    parts = []
    for i, (ref, coeff) in enumerate(terms):
        name = name_of(ref)
        mag = abs(coeff)
        term = name if mag == 1 else f"{name} * {mag}"
        if i == 0:
            if coeff < 0:
                raise ValueError("the first term of an atom must be positive")
            parts.append(term)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + term)
    return f"{' '.join(parts)} {cmp} {bound}"


def formula_text(f, name_of=lambda ref: ref) -> str:
    kind = f[0]
    if kind == "atom":
        return _atom_text(f[1], f[2], f[3], name_of)
    if kind in ("not", "ef", "eg", "af"):
        op = {"not": "Neg", "ef": "EF", "eg": "EG", "af": "AF"}[kind]
        return f"{op}({formula_text(f[1], name_of)})"
    if kind in ("and", "or"):
        op = "Conj" if kind == "and" else "Disj"
        return f"{op}({formula_text(f[1], name_of)}, {formula_text(f[2], name_of)})"
    if kind in ("ex", "ax"):
        op = "EX" if kind == "ex" else "AX"
        return f"{op}({f[1]}, {formula_text(f[2], name_of)})"
    raise ValueError(f"unknown formula node {kind!r}")


def problem_text(system: System, formula) -> str:
    """The problem-file format: initial multiset, rules, formula."""
    initial = [s for s, c in zip(system.symbols, system.init) for _ in range(c)]
    if not initial:
        raise ValueError("the initial multiset may not be empty")
    lines = ["initial", ", ".join(initial), "rules"]
    for lhs, action, rhs in system.rules:
        right = ", ".join(rhs) if rhs else "nil"
        lines.append(f"{lhs} -> {right}" if action == TAU else f"{lhs} -> {action} -> {right}")
    lines += ["formula", formula_text(formula)]
    return "\n".join(lines) + "\n"


def acs_text(actors: Actors) -> str:
    lines = [f"states {', '.join(actors.states)}"]
    if actors.procs:
        lines.append(f"procs {', '.join(actors.procs)}")
    if actors.msgs:
        lines.append(f"msgs {', '.join(actors.msgs)}")
    lines.append("rules")
    for src, op, arg, dst in actors.rules:
        if op == "nop":
            lines.append(f"{src} -> nop -> {dst}")
        else:
            mark = "!" if op == "send" else "?"
            lines.append(f"{src} -> {arg[0]}{mark}{arg[1]} -> {dst}")
    entries = [f"{q}:{c}" for q, c in zip(actors.states, actors.init_states) if c]
    entries += [f"({p},{m}):{c}" for (p, m), c in zip(actors.pairs, actors.init_mail) if c]
    lines.append("init " + ", ".join(entries))
    return "\n".join(lines) + "\n"


def property_text(formula) -> str:
    """Actor properties reference a state by name or a mailbox as
    ``("mail", proc, msg)``."""

    def name_of(ref) -> str:
        if isinstance(ref, tuple):
            return f"mail({ref[1]}, {ref[2]})"
        return ref

    return formula_text(formula, name_of) + "\n"
