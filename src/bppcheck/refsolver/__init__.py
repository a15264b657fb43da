"""A small, exact decision procedure for linear integer arithmetic scripts.

This is the fallback back-end used when no external SMT solver is
installed. ``solve_text`` takes an SMT-LIB2 script and returns what a
solver would print: sat/unsat/unknown plus a model. The checker calls it
in its own process; ``python -m bppcheck.refsolver`` serves the same text
over stdin/stdout like any other solver on the other end of a pipe.
``(get-info :reason-unknown)`` and ``(get-info :all-statistics)`` report
on the last check-sat: why it gave up, and its steps, propagate rounds,
branches, Omega calls, failed-memo hits and solving time (``:time``,
seconds, without loading the Omega test). Since nothing kills a solve in
process, the engine stops itself: at a deadline (reason ``timeout``), at
its step budget, and at ``RECURSION_LIMIT`` or an exhausted memory
(unknown, never a traceback).

This module reads the script into negation normal form; ``search.py``
decides it, branching only over disjunctions, and the Omega test
(``omega.py``) is loaded by the first leaf of the search that hands it
literals. A quantified goal left with a free variable that no equality
pins answers unknown (reason ``non-ground quantified subformula``).
"""

from __future__ import annotations

import sys
import time

from ..sexpr import parse_all, render
from .search import RefsolverUnknown, _Engine, _mk_lit

#: Python stack depth allowed while a script is read and solved. The search
#: and the Omega test are loops; the formula builder recurses once per nesting
#: level and a nested sub-solve once per quantifier level, and input deeper
#: than this answers unknown with reason ``recursion depth exceeded``.
RECURSION_LIMIT = 20_000


def omega_solve(lits, deadline=None):
    """The Omega test, imported at the first call. The search looks this
    name up here at each leaf, so a caller may wrap it here."""
    from .omega import omega_solve as solve

    return solve(lits, deadline=deadline)


def _mk_junction(kind: str, children):
    """Flattened 'and' / 'or' of the children, with true and false folded."""
    unit, zero = (("true",), ("false",)) if kind == "and" else (("false",), ("true",))
    out = []
    for ch in children:
        if ch == unit:
            continue
        if ch == zero:
            return zero
        if ch[0] == kind:
            out.extend(ch[1])
        else:
            out.append(ch)
    if not out:
        return unit
    return out[0] if len(out) == 1 else (kind, tuple(out))


class _Script:
    def __init__(self):
        self.decls: list[str] = []
        self.asserts: list = []
        self.rename_counter = 0
        self.outputs: list[str] = []
        self.last_status: str | None = None
        self.last_model: dict[str, int] | None = None
        self.last_reason: str | None = None
        self.last_stats: dict[str, int | float] | None = None

    def fresh(self, base: str) -> str:
        self.rename_counter += 1
        return f"{base}!{self.rename_counter}"


def _parse_term(e, env) -> tuple[dict[str, int], int]:
    """Linear integer term -> (coefficients, constant)."""
    if isinstance(e, str):
        if e.lstrip("-").isdigit():
            return {}, int(e)
        name = env.get(e, e)
        return {name: 1}, 0
    if not e:
        raise RefsolverUnknown("empty term")
    head = e[0]
    if head in ("+", "-"):
        if head == "-" and len(e) < 2:
            raise ValueError("'-' without arguments")
        coeffs: dict[str, int] = {}
        const = 0
        # (- a) negates a; (- a b c) subtracts b and c from a.
        sign = -1 if head == "-" and len(e) == 2 else 1
        for sub in e[1:]:
            c, k = _parse_term(sub, env)
            for v, x in c.items():
                coeffs[v] = coeffs.get(v, 0) + sign * x
            const += sign * k
            sign = -1 if head == "-" else 1
        return coeffs, const
    if head == "*":
        symbolic: tuple[dict[str, int], int] | None = None
        scale = 1
        for sub in e[1:]:
            c, k = _parse_term(sub, env)
            if c:
                if symbolic is not None:
                    raise RefsolverUnknown("nonlinear product")
                symbolic = (c, k)
            else:
                scale *= k
        if symbolic is None:
            return {}, scale
        c, k = symbolic
        return {v: scale * x for v, x in c.items()}, scale * k
    raise RefsolverUnknown(f"unsupported term {head!r}")


#: A term t in ``t REL 0`` as ``s * t + offset >= 0``, keyed by REL as
#: (s, offset). Its negation is (-s, -1 - offset): not (t >= 0) is -t - 1 >= 0.
_AS_GE = {">=": (1, 0), ">": (1, -1), "<=": (-1, 0), "<": (-1, -1)}


def _mk_rel(rel: str, diff: dict[str, int], const: int, sign: bool):
    """The literal for ``diff + const REL 0``, or for its negation."""
    s, offset = _AS_GE[rel]
    if not sign:
        s, offset = -s, -1 - offset
    coeffs = diff if s == 1 else {v: -c for v, c in diff.items()}
    return _mk_lit("ge", coeffs, s * const + offset)


_DUAL = {"and": "or", "or": "and"}


def _build(e, env, sign: bool, script: _Script):
    """NNF formula builder; sign False means the expression is negated."""
    if isinstance(e, str):
        if e == "true":
            return ("true",) if sign else ("false",)
        if e == "false":
            return ("false",) if sign else ("true",)
        raise RefsolverUnknown(f"boolean symbol {e!r}")
    if not e:
        raise RefsolverUnknown("empty form")
    head = e[0]
    if head == "not":
        return _build(e[1], env, not sign, script)
    if head in ("and", "or", "=>"):
        if head == "=>":
            if len(e) != 3:
                raise RefsolverUnknown("n-ary =>")
            # a => b is (or (not a) b).
            parts = [_build(e[1], env, not sign, script), _build(e[2], env, sign, script)]
            head = "or"
        else:
            parts = [_build(sub, env, sign, script) for sub in e[1:]]
        return _mk_junction(head if sign else _DUAL[head], parts)
    if head in (">=", ">", "<=", "<", "=", "distinct"):
        if len(e) != 3:
            raise RefsolverUnknown(f"non-binary {head}")
        lc, lk = _parse_term(e[1], env)
        rc, rk = _parse_term(e[2], env)
        diff = dict(lc)
        for v, c in rc.items():
            diff[v] = diff.get(v, 0) - c
        const = lk - rk  # lhs - rhs, relation against 0
        want_eq = head == "="
        if head == "distinct":
            want_eq, sign = True, not sign
        if not want_eq:
            return _mk_rel(head, diff, const, sign)
        if sign:
            return _mk_lit("eq", diff, const)
        parts = [_mk_rel(">", diff, const, True), _mk_rel("<", diff, const, True)]
        return _mk_junction("or", parts)
    if head in ("exists", "forall"):
        binders = e[1]
        names = []
        inner_env = dict(env)
        for binder in binders:
            if isinstance(binder, str) or len(binder) != 2 or not isinstance(binder[0], str):
                raise ValueError(f"binder {binder!r}")
            name, sort = binder
            if sort != "Int":
                raise RefsolverUnknown(f"sort {sort!r}")
            fresh = script.fresh(name)
            inner_env[name] = fresh
            names.append(fresh)
        if head == "exists":
            body = _build(e[2], inner_env, True, script)
            # exists v. B under negation is "no witness": notex.
            return ("ex", tuple(names), body) if sign else ("notex", tuple(names), body)
        # forall v. B == not exists v. not B
        body = _build(e[2], inner_env, False, script)
        return ("notex", tuple(names), body) if sign else ("ex", tuple(names), body)
    raise RefsolverUnknown(f"unsupported form {head!r}")


def solve_text(text: str, deadline: float | None = None) -> str:
    """Interpret an SMT-LIB2 script and return the solver's printed output.

    ``deadline`` is a ``time.perf_counter()`` value: a check-sat still
    running past it answers unknown with reason ``timeout``. The search and
    the formula builder run under ``RECURSION_LIMIT``, whichever entry point
    calls this (the pipe driver or a solver call in the checker's process);
    running out of stack depth or of memory answers unknown with a reason.
    """
    limit = sys.getrecursionlimit()
    if limit < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        return _interpret(text, deadline)
    finally:
        if limit < RECURSION_LIMIT:
            sys.setrecursionlimit(limit)


def _interpret(text: str, deadline: float | None) -> str:
    script = _Script()
    try:
        forms = parse_all(text)
    except Exception:
        return '(error "parse error")\n'
    # Each form is dropped once interpreted: a long script's parse tree would
    # otherwise stay alive through every check-sat.
    forms.reverse()
    while forms:
        form = forms.pop()
        if not isinstance(form, list) or not form:
            continue
        cmd = form[0]
        if cmd in ("set-logic", "set-info", "set-option"):
            continue
        if cmd in ("declare-const", "declare-fun", "assert"):
            try:
                _read(script, form)
            except (IndexError, ValueError):
                # A missing or misshapen argument: like an unsupported
                # command, the script cannot go on past it.
                script.outputs.append(f'(error "ill-formed {cmd}")')
                break
        elif cmd == "check-sat":
            _check(script, deadline)
        elif cmd == "get-model":
            _emit_model(script)
        elif cmd == "get-info" and len(form) == 2:
            _emit_info(script, form[1])
        elif cmd == "exit":
            break
        else:
            # Ignoring a command such as push or pop would answer later
            # checks about the wrong assertion set, so the script ends here.
            head = render(cmd).replace('"', '""')
            script.outputs.append(f'(error "unsupported command {head}")')
            break
    return "\n".join(script.outputs) + ("\n" if script.outputs else "")


def _read(script: _Script, form: list) -> None:
    """Take in a declaration or an assertion. A form with a missing or
    misshapen argument raises IndexError or ValueError."""
    if form[0] == "assert":
        try:
            node = _build(form[1], {}, True, script)
        except RefsolverUnknown:
            node = ("unsupported", "unsupported formula shape")
        except (RecursionError, MemoryError) as exc:
            node = ("unsupported", _limit_reason(exc))
        script.asserts.append(node)
        return
    name = form[1]
    if not isinstance(name, str):
        raise ValueError(f"constant name {name!r}")
    if form[0] == "declare-fun" and form[2] != []:
        script.outputs.append('(error "only constants are supported")')
        return
    script.decls.append(name)


def _limit_reason(exc: BaseException) -> str:
    return "recursion depth exceeded" if isinstance(exc, RecursionError) else "out of memory"


def _check(script: _Script, deadline: float | None) -> None:
    engine = _Engine(deadline=deadline)
    start = time.perf_counter()
    status, witness, reason = "unknown", None, None
    unsupported = next((node for node in script.asserts if node[0] == "unsupported"), None)
    if unsupported is not None:
        reason = unsupported[1]
    else:
        try:
            witness = engine.solve(script.asserts, {})
            status = "unsat" if witness is None else "sat"
        except RefsolverUnknown as exc:
            reason = str(exc)
        except (RecursionError, MemoryError) as exc:
            reason = _limit_reason(exc)
    # :time is solving: importing the Omega test at the first leaf is left out.
    script.last_stats = dict(engine.statistics(),
                             time=time.perf_counter() - start - engine.load_s)
    script.last_status = status
    script.last_reason = reason
    script.last_model = None
    if witness is not None:
        script.last_model = {name: witness.get(name, 0) for name in script.decls}
    script.outputs.append(status)


def _emit_info(script: _Script, flag: str) -> None:
    """Answer get-info about the last check-sat: :reason-unknown and
    :all-statistics (steps, propagate rounds, branches, Omega calls, failed
    memo hits, and :time in seconds)."""
    if flag == ":reason-unknown" and script.last_status != "unknown":
        out = '(error "the last check-sat did not return unknown")'
    elif flag == ":reason-unknown":
        out = '(:reason-unknown "{}")'.format(script.last_reason.replace('"', '""'))
    elif flag == ":all-statistics" and script.last_stats is None:
        out = '(error "no check-sat to report on")'
    elif flag == ":all-statistics":
        out = "(" + " ".join(
            f":{key} {value:.6f}" if isinstance(value, float) else f":{key} {value}"
            for key, value in script.last_stats.items()
        ) + ")"
    else:
        out = "unsupported"
    script.outputs.append(out)


def _emit_model(script: _Script) -> None:
    if script.last_status != "sat" or script.last_model is None:
        script.outputs.append('(error "model is not available")')
        return
    lines = ["("]
    for name, value in script.last_model.items():
        rendered = str(value) if value >= 0 else f"(- {-value})"
        lines.append(f"  (define-fun {name} () Int {rendered})")
    lines.append(")")
    script.outputs.append("\n".join(lines))
