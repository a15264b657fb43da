"""A small, exact decision procedure for linear integer arithmetic scripts.

This is the fallback back-end used when no external SMT solver is
installed. It reads SMT-LIB2 on stdin (``python -m bppcheck.refsolver``)
and answers sat/unsat/unknown plus a model, like any other solver on the
other end of the pipe.

Decision strategy: negation normal form, then a backtracking search that
eagerly substitutes pinned variables, splits disjunctions with failure
memoization, splices positive existential blocks, decides universally
quantified subformulas recursively once they are ground, and hands
conjunctions of literals to the Omega test. It is a generic engine: it
knows nothing about where its input formulas came from.
"""

from __future__ import annotations

from .omega import OmegaBudgetExceeded, omega_solve
from ..sexpr import parse_all

DEFAULT_STEP_BUDGET = 20_000_000


class RefsolverUnknown(Exception):
    """Raised when the engine cannot decide (unsupported shape or budget)."""


class _Fail(Exception):
    pass


# ---------------------------------------------------------------------------
# Formula representation: immutable tuples built once at parse time.
#   ('true',) ('false',)
#   ('ge', coeffs, const)   sum + const >= 0      coeffs: tuple[(var, c), ...]
#   ('eq', coeffs, const)   sum + const == 0
#   ('and', children) ('or', children)
#   ('ex', names, body)     exists names. body
#   ('notex', names, body)  NOT exists names. body   (body stored positive)
# ---------------------------------------------------------------------------


def _mk_lit(kind: str, coeffs: dict[str, int], const: int):
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    if not items:
        if kind == "eq":
            return ("true",) if const == 0 else ("false",)
        return ("true",) if const >= 0 else ("false",)
    return (kind, items, const)


def _mk_and(children):
    out = []
    for ch in children:
        if ch == ("true",):
            continue
        if ch == ("false",):
            return ("false",)
        if ch[0] == "and":
            out.extend(ch[1])
        else:
            out.append(ch)
    if not out:
        return ("true",)
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def _mk_or(children):
    out = []
    for ch in children:
        if ch == ("false",):
            continue
        if ch == ("true",):
            return ("true",)
        if ch[0] == "or":
            out.extend(ch[1])
        else:
            out.append(ch)
    if not out:
        return ("false",)
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


class _FreeVars:
    """Free-variable sets cached by node identity (nodes are built once)."""

    def __init__(self):
        self.cache: dict[int, frozenset[str]] = {}

    def of(self, node) -> frozenset[str]:
        got = self.cache.get(id(node))
        if got is not None:
            return got
        kind = node[0]
        if kind in ("true", "false"):
            out = frozenset()
        elif kind in ("ge", "eq"):
            out = frozenset(v for v, _ in node[1])
        elif kind in ("and", "or"):
            acc: set[str] = set()
            for ch in node[1]:
                acc |= self.of(ch)
            out = frozenset(acc)
        else:  # ex / notex
            out = self.of(node[2]) - frozenset(node[1])
        self.cache[id(node)] = out
        return out


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET):
        self.steps = 0
        self.budget = step_budget
        self.frees = _FreeVars()
        self.notex_memo: dict[tuple, bool] = {}
        self.detached_memo: dict[tuple, dict[str, int] | None] = {}
        self.failed: set[frozenset] = set()

    def charge(self, units: int = 1) -> None:
        self.steps += units
        if self.steps > self.budget:
            raise RefsolverUnknown("step budget exhausted")

    # -- literal reduction --------------------------------------------------

    def _reduce_lit(self, node, subst):
        kind, items, const = node
        coeffs: dict[str, int] = {}
        for v, c in items:
            val = subst.get(v)
            if val is None:
                coeffs[v] = coeffs.get(v, 0) + c
            else:
                const += c * val
        return _mk_lit(kind, coeffs, const)

    def _peek(self, node, subst):
        """Tri-state evaluation under a partial assignment: True/False/None."""
        kind = node[0]
        if kind == "true":
            return True
        if kind == "false":
            return False
        if kind in ("ge", "eq"):
            red = self._reduce_lit(node, subst)
            if red == ("true",):
                return True
            if red == ("false",):
                return False
            return None
        if kind == "and":
            saw_none = False
            for ch in node[1]:
                r = self._peek(ch, subst)
                if r is False:
                    return False
                if r is None:
                    saw_none = True
            return None if saw_none else True
        if kind == "or":
            saw_none = False
            for ch in node[1]:
                r = self._peek(ch, subst)
                if r is True:
                    return True
                if r is None:
                    saw_none = True
            return None if saw_none else False
        # Quantified: only decidable when ground.
        if self.frees.of(node) <= subst.keys():
            return self._decide_ground(node, subst)
        return None

    def _decide_ground(self, node, subst) -> bool:
        kind, names, body = node
        key = (id(node), tuple(sorted((v, subst[v]) for v in self.frees.of(node))))
        got = self.notex_memo.get(key)
        if got is None:
            inner = {v: subst[v] for v in self.frees.of(node)}
            witness = self.solve_exists(list(names), [body], inner)
            got = witness is not None
            self.notex_memo[key] = got
        return got if kind == "ex" else not got

    # -- main search ---------------------------------------------------------

    def solve_exists(self, evars: list[str], goal_nodes: list, outer: dict[str, int]):
        """Witness for exists(evars) over the conjunction of goals, or None.

        outer maps every free variable of the goals (other than evars) to a
        concrete integer.
        """
        subst = dict(outer)
        lits: list = []
        pending: list = []  # 'or' / 'notex' / non-ground 'ex'... nodes

        try:
            for node in goal_nodes:
                self._push_into(node, evars, lits, pending, subst)
            return self._search(evars, lits, pending, subst)
        except _Fail:
            return None

    def _propagate(self, evars, lits, pending, subst) -> None:
        """Pin forced variables and simplify until nothing changes."""
        while True:
            self.charge()
            changed = False

            new_lits: list = []
            for lit in lits:
                red = self._reduce_lit(lit, subst)
                if red == ("true",):
                    changed = True
                    continue
                if red == ("false",):
                    raise _Fail()
                kind, items, const = red
                if kind == "eq" and len(items) == 1:
                    v, c = items[0]
                    if const % c != 0:
                        raise _Fail()
                    subst[v] = -const // c
                    changed = True
                    continue
                new_lits.append(red)
            lits[:] = new_lits

            new_pending: list = []
            for node in pending:
                result = self._peek(node, subst)
                if result is True:
                    changed = True
                    continue
                if result is False:
                    raise _Fail()
                if node[0] == "or":
                    live = [ch for ch in node[1] if self._peek(ch, subst) is not False]
                    if not live:
                        raise _Fail()
                    if len(live) == 1:
                        # Forced disjunct: splice it as a direct goal.
                        changed = True
                        self._push_into(live[0], evars, lits, new_pending, subst)
                        continue
                new_pending.append(node)
            pending[:] = new_pending

            if not changed and (len(pending) > 1 or (pending and lits)):
                changed = self._resolve_detached(lits, pending, subst)
            if not changed:
                return

    def _resolve_detached(self, lits, pending, subst) -> bool:
        """Decide pending goals whose unpinned variables occur nowhere else.

        Such a goal is an independent existential subproblem: solve it once,
        merge its witness, and drop it. Memoized on (goal, pinned frees), this
        is what keeps per-position witness goals from exploding the search.
        """
        all_unpinned: list[set[str]] = []
        for lit in lits:
            all_unpinned.append({v for v, _ in lit[1]})
        for node in pending:
            all_unpinned.append(set(self.frees.of(node)) - subst.keys())
        for idx, node in enumerate(pending):
            mine = set(self.frees.of(node)) - subst.keys()
            if not mine:
                continue
            others: set[str] = set()
            for j, group in enumerate(all_unpinned):
                if j != idx + len(lits):
                    others |= group
            if mine & others:
                continue
            key = (
                id(node),
                tuple(sorted((v, subst[v]) for v in self.frees.of(node) if v in subst)),
            )
            if key in self.detached_memo:
                witness = self.detached_memo[key]
            else:
                inner = {v: subst[v] for v in self.frees.of(node) if v in subst}
                witness = self.solve_exists(sorted(mine), [node], inner)
                self.detached_memo[key] = witness
            if witness is None:
                raise _Fail()
            for v in mine:
                subst[v] = witness.get(v, 0)
            del pending[idx]
            return True
        return False

    def _push_into(self, node, evars, lits, pending, subst) -> None:
        """Add a goal: literals to lits, other non-trivial nodes to pending."""
        kind = node[0]
        if kind == "true":
            return
        if kind == "false":
            raise _Fail()
        if kind == "and":
            for ch in node[1]:
                self._push_into(ch, evars, lits, pending, subst)
            return
        if kind == "ex":
            evars.extend(node[1])
            self._push_into(node[2], evars, lits, pending, subst)
            return
        if kind in ("ge", "eq"):
            red = self._reduce_lit(node, subst)
            if red == ("true",):
                return
            if red == ("false",):
                raise _Fail()
            lits.append(red)
            return
        pending.append(node)

    def _residual_key(self, lits, pending, subst):
        entries = [("lit",) + lit for lit in lits]
        for node in pending:
            pinned = tuple(
                sorted((v, subst[v]) for v in self.frees.of(node) if v in subst)
            )
            entries.append(("node", id(node), pinned))
        return frozenset(entries)

    def _search(self, evars, lits, pending, subst):
        self._propagate(evars, lits, pending, subst)

        if not lits and not pending:
            return {v: subst.get(v, 0) for v in evars}

        if not pending:
            try:
                witness = omega_solve(lits)
            except OmegaBudgetExceeded:
                raise RefsolverUnknown("omega budget exhausted") from None
            if witness is None:
                raise _Fail()
            out = {v: subst.get(v, 0) for v in evars}
            out.update(witness)
            return out

        key = self._residual_key(lits, pending, subst)
        if key in self.failed:
            raise _Fail()

        # Branch on the disjunction with the fewest unpinned variables: the
        # most-determined goal first, which follows chained equalities in the
        # order they pin each other instead of guessing ahead.
        branch = None
        branch_unpinned = None
        for node in pending:
            if node[0] != "or":
                continue
            unpinned = sum(1 for v in self.frees.of(node) if v not in subst)
            if branch is None or unpinned < branch_unpinned:
                branch, branch_unpinned = node, unpinned
                if unpinned == 0:
                    break
        if branch is None:
            return self._branch_on_values(evars, lits, pending, subst, key)
        branch_live = [ch for ch in branch[1] if self._peek(ch, subst) is not False]
        if not branch_live:
            raise _Fail()

        rest = [node for node in pending if node is not branch]
        undecided = False
        for choice in branch_live:
            self.charge()
            c_evars = list(evars)
            c_lits = list(lits)
            c_pending = list(rest)
            c_subst = dict(subst)
            try:
                self._push_into(choice, c_evars, c_lits, c_pending, c_subst)
                result = self._search(c_evars, c_lits, c_pending, c_subst)
                return result
            except _Fail:
                continue
            except RefsolverUnknown:
                undecided = True
                continue
        if undecided:
            raise RefsolverUnknown("undecided branch")
        self.failed.add(key)
        raise _Fail()

    #: Probe width for quantified free variables bounded on one side only;
    #: finding a witness inside the window is sound, exhausting it is not,
    #: so the half-bounded case ends in unknown instead of unsat.
    PROBE_WIDTH = 32

    def _branch_on_values(self, evars, lits, pending, subst, key):
        """Last resort for quantified goals with unpinned free variables:
        enumerate a variable the current literals box into a finite interval
        (complete), or probe a window when only one side is bounded (sat
        only). Anything else stays undecided."""
        candidates: set[str] = set()
        for node in pending:
            candidates |= self.frees.of(node) - subst.keys()
        boxed = None
        half = None
        for var in sorted(candidates):
            lo = None
            hi = None
            for kind, items, const in lits:
                if kind != "ge" or len(items) != 1 or items[0][0] != var:
                    continue
                c = items[0][1]
                if c > 0:  # c*v + const >= 0  ->  v >= ceil(-const/c)
                    bound = (-const + c - 1) // c
                    lo = bound if lo is None else max(lo, bound)
                else:  # c < 0: v <= floor(const / -c)
                    bound = const // (-c)
                    hi = bound if hi is None else min(hi, bound)
            if lo is not None and hi is not None:
                if hi < lo:
                    raise _Fail()
                if boxed is None or hi - lo < boxed[1]:
                    boxed = (var, hi - lo, lo, hi)
            elif half is None:
                if lo is not None:
                    half = (var, lo, lo + self.PROBE_WIDTH)
                elif hi is not None:
                    half = (var, hi - self.PROBE_WIDTH, hi)
                else:
                    half = (var, -self.PROBE_WIDTH // 2, self.PROBE_WIDTH // 2)

        if boxed is not None:
            var, _, lo, hi = boxed
            complete = True
        elif half is not None:
            var, lo, hi = half
            complete = False
        else:
            raise RefsolverUnknown("non-ground quantified subformula")

        undecided = False
        for value in range(lo, hi + 1):
            self.charge()
            c_subst = dict(subst)
            c_subst[var] = value
            try:
                return self._search(list(evars), list(lits), list(pending), c_subst)
            except _Fail:
                continue
            except RefsolverUnknown:
                undecided = True
                continue
        if undecided or not complete:
            raise RefsolverUnknown("value enumeration inconclusive")
        self.failed.add(key)
        raise _Fail()


# ---------------------------------------------------------------------------
# SMT-LIB2 front end
# ---------------------------------------------------------------------------


class _Script:
    def __init__(self):
        self.decls: list[str] = []
        self.asserts: list = []
        self.rename_counter = 0
        self.outputs: list[str] = []
        self.last_status: str | None = None
        self.last_model: dict[str, int] | None = None
        self.produce_models = False

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
    if head == "+":
        coeffs: dict[str, int] = {}
        const = 0
        for sub in e[1:]:
            c, k = _parse_term(sub, env)
            for v, x in c.items():
                coeffs[v] = coeffs.get(v, 0) + x
            const += k
        return coeffs, const
    if head == "-":
        if len(e) == 2:
            c, k = _parse_term(e[1], env)
            return {v: -x for v, x in c.items()}, -k
        coeffs, const = _parse_term(e[1], env)
        coeffs = dict(coeffs)
        for sub in e[2:]:
            c, k = _parse_term(sub, env)
            for v, x in c.items():
                coeffs[v] = coeffs.get(v, 0) - x
            const -= k
        return coeffs, const
    if head == "*":
        coeffs: dict[str, int] = {}
        const = 1
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


_REL_POS = {
    ">=": lambda d, k: _mk_lit("ge", d, k),
    ">": lambda d, k: _mk_lit("ge", d, k - 1),
    "<=": lambda d, k: _mk_lit("ge", {v: -c for v, c in d.items()}, -k),
    "<": lambda d, k: _mk_lit("ge", {v: -c for v, c in d.items()}, -k - 1),
}


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
    if head == "and":
        parts = [_build(sub, env, sign, script) for sub in e[1:]]
        return _mk_and(parts) if sign else _mk_or(parts)
    if head == "or":
        parts = [_build(sub, env, sign, script) for sub in e[1:]]
        return _mk_or(parts) if sign else _mk_and(parts)
    if head == "=>":
        if len(e) != 3:
            raise RefsolverUnknown("n-ary =>")
        a_neg = _build(e[1], env, not sign, script)
        b_pos = _build(e[2], env, sign, script)
        return _mk_or([a_neg, b_pos]) if sign else _mk_and([a_neg, b_pos])
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
        if want_eq:
            if sign:
                return _mk_lit("eq", diff, const)
            gt = _mk_lit("ge", diff, const - 1)
            lt = _mk_lit("ge", {v: -c for v, c in diff.items()}, -const - 1)
            return _mk_or([gt, lt])
        if sign:
            return _REL_POS[head](diff, const)
        negated = {">=": "<", ">": "<=", "<=": ">", "<": ">="}[head]
        return _REL_POS[negated](diff, const)
    if head in ("exists", "forall"):
        binders = e[1]
        names = []
        inner_env = dict(env)
        for binder in binders:
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


def solve_text(text: str) -> str:
    """Interpret an SMT-LIB2 script and return the solver's printed output."""
    script = _Script()
    try:
        forms = parse_all(text)
    except Exception:
        return '(error "parse error")\n'
    for form in forms:
        if not isinstance(form, list) or not form:
            continue
        cmd = form[0]
        if cmd in ("set-logic", "set-info"):
            continue
        if cmd == "set-option":
            if len(form) >= 3 and form[1] == ":produce-models":
                script.produce_models = form[2] == "true"
            continue
        if cmd == "declare-const":
            script.decls.append(form[1])
            continue
        if cmd == "declare-fun":
            if form[2] != []:
                script.outputs.append('(error "only constants are supported")')
                continue
            script.decls.append(form[1])
            continue
        if cmd == "assert":
            try:
                script.asserts.append(_build(form[1], {}, True, script))
            except RefsolverUnknown:
                script.asserts.append(("unsupported",))
            continue
        if cmd == "check-sat":
            _check(script)
            continue
        if cmd == "get-model":
            _emit_model(script)
            continue
        if cmd == "exit":
            break
        # Ignoring a command such as push or pop would answer later checks
        # about the wrong assertion set, so the script ends here instead.
        script.outputs.append(f'(error "unsupported command {cmd}")')
        break
    return "\n".join(script.outputs) + ("\n" if script.outputs else "")


def _check(script: _Script) -> None:
    if any(node == ("unsupported",) for node in script.asserts):
        script.last_status = "unknown"
        script.last_model = None
        script.outputs.append("unknown")
        return
    engine = _Engine()
    goal = list(script.asserts)
    try:
        witness = engine.solve_exists(list(script.decls), goal, {})
    except RefsolverUnknown:
        script.last_status = "unknown"
        script.last_model = None
        script.outputs.append("unknown")
        return
    if witness is None:
        script.last_status = "unsat"
        script.last_model = None
        script.outputs.append("unsat")
        return
    script.last_status = "sat"
    script.last_model = {name: witness.get(name, 0) for name in script.decls}
    script.outputs.append("sat")


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
