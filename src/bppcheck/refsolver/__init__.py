"""A small, exact decision procedure for linear integer arithmetic scripts.

This is the fallback back-end used when no external SMT solver is
installed. ``solve_text`` takes an SMT-LIB2 script and returns what a
solver would print: sat/unsat/unknown plus a model. The checker calls it
in its own process; ``python -m bppcheck.refsolver`` serves the same text
over stdin/stdout like any other solver on the other end of a pipe.
``(get-info :reason-unknown)`` and ``(get-info :all-statistics)`` report
on the last check-sat: why it gave up, and its steps, propagate rounds,
branches, Omega calls, failed-memo hits and solving time (``:time``,
seconds). Since nothing kills a solve in process, the engine stops itself:
at a deadline (reason ``timeout``), at its step budget, and at
``RECURSION_LIMIT`` or an exhausted memory (unknown, never a traceback).

Decision strategy: negation normal form, then a backtracking search that
eagerly substitutes pinned variables, splices positive existential blocks
and hands conjunctions of literals to the Omega test. Propagation is
incremental: each search level looks again only at the goals its branch
added and at those that mention a variable pinned since they were last
looked at (the watched-literal idea of Chaff, Moskewicz et al., DAC 2001).
The search is one loop over a stack of choice points: one child per live
disjunct of a disjunction, or per value of a variable when only quantified
goals are left; an exhausted complete choice memoizes the residual problem
as failed. Quantified subformulas once ground, and goals whose unpinned
variables occur nowhere else, are decided by one memoized sub-solve,
``_sub_solve``, keyed on the goal and the values of its pinned variables.
The failure-memo key, the branch choice and the detached-goal check still
scan every goal once per level.
It is a generic engine: it knows nothing about where its input formulas
came from.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from .omega import OmegaBudgetExceeded, omega_solve
from ..sexpr import parse_all, render

DEFAULT_STEP_BUDGET = 20_000_000

#: Python stack depth allowed while a script is read and solved. The search
#: and the Omega test are loops; the formula builder recurses once per nesting
#: level and a nested sub-solve once per quantifier level, and input deeper
#: than this answers unknown with reason ``recursion depth exceeded``.
RECURSION_LIMIT = 20_000


class RefsolverUnknown(Exception):
    """Raised when the engine cannot decide (unsupported shape or budget)."""


class _Stop(RefsolverUnknown):
    """The deadline or the step budget ran out: the whole solve stops, and
    no choice point records it as one more undecided child."""


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
    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET, deadline: float | None = None):
        self.steps = 0
        self.budget = step_budget
        self.deadline = deadline
        self.frees = _FreeVars()
        self.sub_memo: dict[tuple, dict[str, int] | None] = {}
        self.failed: set[tuple[int, ...]] = set()
        self.entry_ids: dict[tuple, int] = {}  # failure-memo entries, interned
        self.rounds = 0
        self.branches = 0
        self.omega_calls = 0
        self.memo_hits = 0

    def charge(self, units: int = 1) -> None:
        self.steps += units
        if self.steps > self.budget:
            raise _Stop("step budget exhausted")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise _Stop("timeout")

    def statistics(self) -> dict[str, int]:
        return {
            "steps": self.steps,
            "propagate-rounds": self.rounds,
            "branches": self.branches,
            "omega-calls": self.omega_calls,
            "failed-memo-hits": self.memo_hits,
        }

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
            live = self._live(node, subst)
            return True if live is None else (None if live else False)
        # Quantified: only decidable when ground.
        if self.frees.of(node) <= subst.keys():
            found = self._sub_solve(node, list(node[1]), node[2], subst) is not None
            return found if kind == "ex" else not found
        return None

    def _live(self, node, subst):
        """The disjuncts of an 'or' not yet false, or None once one is true."""
        live = []
        for ch in node[1]:
            r = self._peek(ch, subst)
            if r is True:
                return None
            if r is None:
                live.append(ch)
        return live

    def _pinned(self, node, subst) -> tuple:
        """The node's pinned free variables with their values, sorted."""
        return tuple(sorted((v, subst[v]) for v in self.frees.of(node) if v in subst))

    def _sub_solve(self, node, evars: list[str], goal, subst):
        """Witness for exists(evars) over goal, with the node's pinned free
        variables at their values; memoized on (node, pinned frees). Ground
        quantified nodes have every free variable pinned and detached goals
        at least one unpinned, so their keys never meet."""
        key = (id(node), self._pinned(node, subst))
        if key not in self.sub_memo:
            self.sub_memo[key] = self.solve_exists(evars, [goal], dict(key[1]))
        return self.sub_memo[key]

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

    def _propagate(self, evars, lits, pending, subst, lit_from, pend_from, pinned) -> None:
        """Pin forced variables and simplify until nothing changes.

        Incremental: lits[:lit_from] and pending[:pend_from] were at fixpoint
        before the variables in ``pinned`` were assigned. A round reduces or
        peeks only the items appended since the last round (the caller's
        push, spliced disjuncts) and the items that mention a variable pinned
        since they were last looked at, which is the watched-literal idea
        with per-round sets of pinned variables as the watch lists. Items
        keep their order, so the search branches as a full rescan would.
        """
        lit_fresh = set(pinned)  # pins some literal has not been reduced by
        node_fresh = set(pinned)  # pins no pending pass has seen yet
        new_nodes = {id(node) for node in pending[pend_from:]}
        while True:
            self.charge()
            self.rounds += 1
            pins: set[str] = set()

            if lit_fresh or lit_from < len(lits):
                kept: list = []
                for i, lit in enumerate(lits):
                    if i < lit_from and (not lit_fresh or lit_fresh.isdisjoint(dict(lit[1]))):
                        kept.append(lit)
                        continue
                    red = self._reduce_lit(lit, subst)
                    if red == ("true",):
                        continue
                    if red == ("false",):
                        raise _Fail()
                    kind, items, const = red
                    if kind == "eq" and len(items) == 1:
                        v, c = items[0]
                        if const % c != 0:
                            raise _Fail()
                        subst[v] = -const // c
                        pins.add(v)
                        lit_fresh.add(v)
                        continue
                    kept.append(red)
                lits[:] = kept
            lit_from = len(lits)
            node_fresh |= pins

            spliced = False
            next_new: set[int] = set()
            if node_fresh or new_nodes:
                kept = []
                for node in pending:
                    if id(node) not in new_nodes and (
                        not node_fresh or node_fresh.isdisjoint(self.frees.of(node))
                    ):
                        kept.append(node)
                        continue
                    if node[0] != "or":
                        result = self._peek(node, subst)
                        if result is False:
                            raise _Fail()
                        if result is None:
                            kept.append(node)
                        continue
                    live = self._live(node, subst)
                    if live is None:
                        continue
                    if not live:
                        raise _Fail()
                    if len(live) == 1:
                        # Forced disjunct: splice it as a direct goal.
                        mark = len(kept)
                        self._push_into(live[0], evars, lits, kept, subst)
                        next_new.update(id(n) for n in kept[mark:])
                        spliced = True
                        continue
                    kept.append(node)
                pending[:] = kept

            if not pins and not spliced:
                if len(pending) > 1 or (pending and lits):
                    self._resolve_detached(lits, pending, subst)
                return
            lit_fresh = pins
            node_fresh = set()
            new_nodes = next_new

    def _resolve_detached(self, lits, pending, subst) -> None:
        """Decide pending goals whose unpinned variables occur nowhere else.

        Such a goal is an independent existential subproblem: solve it once,
        merge its witness, and drop it. Memoized on (goal, pinned frees), this
        is what keeps per-position witness goals from exploding the search.
        One pass counts in how many items each unpinned variable occurs; a
        goal is detached when each of its unpinned variables counts once.
        Resolving it pins only variables no other item mentions, so every
        other goal stays as it was and the pass goes on in order. It stops
        while a single goal and no literal would be left, which the search
        branches on instead.
        """
        unpinned = [self.frees.of(node).difference(subst) for node in pending]
        occurs = Counter(v for lit in lits for v, _ in lit[1])
        for mine in unpinned:
            occurs.update(mine)
        kept: list = []
        left = len(pending)
        for node, mine in zip(pending, unpinned):
            if not mine or not (left > 1 or lits) or any(occurs[v] > 1 for v in mine):
                kept.append(node)
                continue
            witness = self._sub_solve(node, sorted(mine), node, subst)
            if witness is None:
                raise _Fail()
            for v in mine:
                subst[v] = witness.get(v, 0)
            left -= 1
        pending[:] = kept

    def _push_into(self, node, evars, lits, pending, subst) -> None:
        """Add a goal: literals to lits, other non-trivial nodes to pending."""
        if node[0] in ("ge", "eq"):
            node = self._reduce_lit(node, subst)
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
        (lits if kind in ("ge", "eq") else pending).append(node)

    def _residual_key(self, lits, pending, subst) -> tuple[int, ...]:
        """The residual problem as the sorted ids of its distinct entries:
        each literal, and each pending goal with the values of its pinned
        free variables. An entry gets its id the first time the engine sees
        it, so the failure memo stores small int tuples, not the goals."""
        ids = self.entry_ids
        entries = {ids.setdefault(lit, len(ids)) for lit in lits}
        for node in pending:
            entries.add(ids.setdefault((id(node), self._pinned(node, subst)), len(ids)))
        return tuple(sorted(entries))

    def _search(self, evars, lits, pending, subst):
        """Depth-first search, one loop over a stack of choice points.

        A node is propagated, then decided: Omega on a pure conjunction, else
        it pushes a choice point ``[options, parent, var, key, complete,
        undecided]``. Each option is charged and counted as a branch, then its
        child is a copy of the parent ``(evars, lits, pending, subst)`` with
        the option as a goal or, for a ``var``, as its value. A failed child
        moves on to the next option; so does an undecided one, whose reason is
        raised once no sibling answers sat. The deadline and the step budget
        are no such reason: they stop the whole search. When every child
        failed, the residual problem is memoized as failed if the options
        were complete (all disjuncts, a boxed range); a probe window is not,
        and ends in unknown. A child's items before lit_from / pend_from are
        at fixpoint up to the variables in pinned; see _propagate.
        """
        stack: list[list] = []
        point = None  # the choice point whose option is entered; None: the root
        lit_from = pend_from = 0
        pinned = ()
        while True:
            outcome = None  # why the node was undecided; None when it failed
            try:
                if point is not None:
                    (p_evars, p_lits, p_pending, p_subst), var = point[1], point[2]
                    evars, lits, pending, subst = list(p_evars), list(p_lits), list(p_pending), dict(p_subst)
                    lit_from, pend_from = len(p_lits), len(p_pending)
                    if var is None:
                        pinned = ()
                        self._push_into(option, evars, lits, pending, subst)
                    else:
                        subst[var] = option
                        pinned = (var,)
                self._propagate(evars, lits, pending, subst, lit_from, pend_from, pinned)

                if not pending:
                    witness = {}
                    if lits:
                        self.omega_calls += 1
                        try:
                            witness = omega_solve(lits, deadline=self.deadline)
                        except OmegaBudgetExceeded as exc:
                            self.charge(0)  # past the deadline: stop, do not record
                            raise RefsolverUnknown(str(exc)) from None
                        if witness is None:
                            raise _Fail()
                    return {**{v: subst.get(v, 0) for v in evars}, **witness}

                key = self._residual_key(lits, pending, subst)
                if key in self.failed:
                    self.memo_hits += 1
                    raise _Fail()

                # Branch on the disjunction with the fewest unpinned variables:
                # the most-determined goal first, which follows chained
                # equalities in the order they pin each other instead of
                # guessing ahead.
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
                    stack.append(self._branch_on_values(evars, lits, pending, subst, key))
                else:
                    rest = [node for node in pending if node is not branch]
                    stack.append([iter(self._live(branch, subst)), (evars, lits, rest, subst),
                                  None, key, True, None])
            except _Fail:
                pass
            except _Stop:
                raise
            except RefsolverUnknown as exc:
                outcome = str(exc)

            # Enter the next option of the innermost choice point that has one.
            # An exhausted point is popped and reports to the point below it.
            while True:
                if not stack:
                    raise _Fail() if outcome is None else RefsolverUnknown(outcome)
                point = stack[-1]
                point[5] = point[5] or outcome
                option = next(point[0], None)
                if option is not None:
                    self.charge()
                    self.branches += 1
                    break
                outcome = point[5]
                if outcome is None and not point[4]:
                    outcome = "probe window exhausted"
                elif outcome is None:
                    self.failed.add(point[3])
                stack.pop()

    #: Probe width for quantified free variables bounded on one side only;
    #: finding a witness inside the window is sound, exhausting it is not,
    #: so the half-bounded case ends in unknown instead of unsat.
    PROBE_WIDTH = 32

    def _branch_on_values(self, evars, lits, pending, subst, key):
        """Last resort for quantified goals with unpinned free variables: a
        choice point over the values of a variable the current literals box
        into a finite interval (complete), or over a probe window when only
        one side is bounded (sat only). Anything else stays undecided."""
        candidates: set[str] = set()
        for node in pending:
            candidates |= self.frees.of(node).difference(subst)
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
                if boxed is None or hi - lo < boxed[2] - boxed[1]:
                    boxed = (var, lo, hi)
            elif half is None:
                if lo is not None:
                    half = (var, lo, lo + self.PROBE_WIDTH)
                elif hi is not None:
                    half = (var, hi - self.PROBE_WIDTH, hi)
                else:
                    half = (var, -self.PROBE_WIDTH // 2, self.PROBE_WIDTH // 2)

        if boxed is None and half is None:
            raise RefsolverUnknown("non-ground quantified subformula")
        var, lo, hi = boxed or half

        return [iter(range(lo, hi + 1)), (evars, lits, pending, subst), var, key, boxed is not None, None]


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
            witness = engine.solve_exists(list(script.decls), list(script.asserts), {})
            status = "unsat" if witness is None else "sat"
        except RefsolverUnknown as exc:
            reason = str(exc)
        except (RecursionError, MemoryError) as exc:
            reason = _limit_reason(exc)
    script.last_stats = dict(engine.statistics(), time=time.perf_counter() - start)
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
    if flag == ":reason-unknown":
        if script.last_status != "unknown":
            script.outputs.append('(error "the last check-sat did not return unknown")')
            return
        reason = script.last_reason.replace('"', '""')
        script.outputs.append(f'(:reason-unknown "{reason}")')
        return
    if flag == ":all-statistics":
        if script.last_stats is None:
            script.outputs.append('(error "no check-sat to report on")')
            return
        pairs = " ".join(
            f":{key} {value:.6f}" if isinstance(value, float) else f":{key} {value}"
            for key, value in script.last_stats.items()
        )
        script.outputs.append(f"({pairs})")
        return
    script.outputs.append("unsupported")


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
