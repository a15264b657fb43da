"""The bundled solver's search: an integer witness for a conjunction of
goals in negation normal form, or None.

A backtracking search branches only over the disjuncts of a disjunction;
a variable is pinned only by an equality, and substituted. Positive
existential blocks are spliced into the goals, and once no disjunction is
left the literals go to the Omega test as one conjunction. A negated
block, once its free variables are pinned, goes to one memoized sub-solve
with a search of its own; one that no equality grounds leaves the search
undecided (``non-ground quantified subformula``). A search changes one
state in place, its ``_Trail``, and backtracking undoes the changes.
Occurrence lists map each variable to the goals that mention it, so a pin
visits only those (the watched-literal idea of Chaff, Moskewicz et al.,
DAC 2001); the failure-memo key and the branch choice are kept current the
same way, so a search level costs what its pins touch, not what the
problem holds.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import defaultdict
from itertools import count

DEFAULT_STEP_BUDGET = 20_000_000


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
#   ('eq', coeffs, const)   sum + const == 0      sorted by var, each c != 0
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


class _FreeVars:
    """Free-variable sets cached by node identity (nodes are built once)."""

    def __init__(self):
        self.cache: dict[int, frozenset[str]] = {}

    def of(self, node) -> frozenset[str]:
        got = self.cache.get(id(node))
        if got is None:
            kind = node[0]
            if kind in ("ge", "eq"):
                got = frozenset(v for v, _ in node[1])
            elif kind in ("and", "or"):
                got = frozenset().union(*map(self.of, node[1]))
            elif kind in ("ex", "notex"):
                got = self.of(node[2]) - frozenset(node[1])
            else:
                got = frozenset()
            self.cache[id(node)] = got
        return got


class _Item:
    """A goal of one search. A literal has ``node`` None, its reduced form
    as ``entry`` and its creation index as ``rank``. A pending node has its
    ``_entry`` and a ``rank`` tuple in goal order: a splice's goals extend
    the rank of the disjunction they replace, a branch's go last. ``vars``
    were unpinned when it was made; ``count`` of them still are."""

    __slots__ = ("node", "entry", "digest", "rank", "vars", "count", "alive")

    def __init__(self, node, entry, rank, vars_):
        self.node, self.entry, self.digest = node, entry, hash(entry)
        self.rank, self.vars, self.count, self.alive = rank, vars_, len(vars_), False


class _Trail:
    """The state of one search, changed in place. Each change logs a record
    ``(function, a, b)``, and ``undo(mark)`` calls them back to a mark; the
    functions are plain, so the log holds no reference cycle. ``occ`` lists
    the goals made while a variable was unpinned. ``digests`` counts the
    live goals per hash of their residual-key entry, ``hash`` is the XOR of
    the distinct hashes (so equal residual problems hash alike), and ``ors``
    holds the live disjunctions as sorted (count, rank, item)."""

    def __init__(self, outer: dict[str, int]):
        self.subst = dict(outer)
        self.log: list[tuple] = []
        self.items: list[_Item] = []  # in creation order, dead ones too
        self.occ: dict[str, list[_Item]] = defaultdict(list)
        self.digests: dict[int, int] = {}
        self.hash = 0
        self.ors: list[tuple] = []
        self.live_lits = self.live_nodes = 0
        self.serial = count()  # literal ranks
        self.ranks = count()  # top-level goal ranks
        self.fresh: list[_Item] = []  # goals no propagation round has seen

    def undo(self, mark: int) -> None:
        log = self.log
        while len(log) > mark:
            undo, a, b = log.pop()
            undo(self, a, b)

    def residual_key(self, ids: dict) -> tuple[int, ...]:
        """The residual problem as the sorted ids of its live goals' distinct
        entries; an entry is numbered the first time a key needs it."""
        return tuple(sorted({ids.setdefault(it.entry, len(ids)) for it in self.items if it.alive}))

    def make(self, node, entry, rank, vars_) -> None:
        item = _Item(node, entry, rank, vars_)
        for v in vars_:
            self.occ[v].append(item)
        self.items.append(item)
        self.fresh.append(item)
        self.flip(item, True)
        self.log.append((_Trail._unmake, item, None))

    def _unmake(self, item: _Item, _) -> None:
        self.flip(item, False)
        for v in item.vars:
            self.occ[v].pop()
        self.items.pop()

    def flip(self, item: _Item, alive: bool) -> None:
        """Add a goal to the live ones, or take it out."""
        item.alive = alive
        step = 1 if alive else -1
        self._tally(item.digest, step)
        node = item.node
        if node is None:
            self.live_lits += step
            return
        self.live_nodes += step
        if node[0] == "or":
            if alive:
                insort(self.ors, (item.count, item.rank, item))
            else:
                del self.ors[bisect_left(self.ors, (item.count, item.rank))]

    def kill(self, item: _Item) -> None:
        self.flip(item, False)
        self.log.append((_Trail.flip, item, True))

    def pin(self, var: str, value) -> None:
        """Assign var, or unassign it with value None, and move the live
        disjunctions that mention it to their new unpinned count."""
        if value is None:
            del self.subst[var]
        else:
            self.subst[var] = value
            self.log.append((_Trail.pin, var, None))
        ors = self.ors
        for item in self.occ.get(var, ()):
            if item.alive and item.node is not None and item.node[0] == "or":
                del ors[bisect_left(ors, (item.count, item.rank))]
                item.count += 1 if value is None else -1
                insort(ors, (item.count, item.rank, item))

    def set_entry(self, item: _Item, entry) -> None:
        self.log.append((_Trail._swap, item, item.entry))
        self._swap(item, entry)

    def _swap(self, item: _Item, entry) -> None:
        self._tally(item.digest, -1)
        item.entry, item.digest = entry, hash(entry)
        self._tally(item.digest, 1)

    def _tally(self, digest: int, step: int) -> None:
        digests = self.digests
        now = digests.get(digest, 0) + step
        if now:
            digests[digest] = now
        else:
            del digests[digest]
        if now == step or not now:  # the first goal with it, or the last gone
            self.hash ^= digest


class _Engine:
    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET, deadline: float | None = None):
        self.steps = 0
        self.budget = step_budget
        self.deadline = deadline
        self.frees = _FreeVars()
        self.sub_memo: dict[tuple, bool] = {}
        self.failed: dict[int, set[tuple[int, ...]]] = {}  # residual hash -> keys
        self.entry_ids: dict = {}  # failure-memo entries, interned
        self.rounds = self.branches = self.omega_calls = self.memo_hits = 0
        self.load_s = 0.0  # importing the Omega test, which is not solving

    def charge(self, units: int = 1) -> None:
        self.steps += units
        if self.steps > self.budget:
            raise _Stop("step budget exhausted")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise _Stop("timeout")

    def statistics(self) -> dict[str, int]:
        return {"steps": self.steps, "propagate-rounds": self.rounds, "branches": self.branches,
                "omega-calls": self.omega_calls, "failed-memo-hits": self.memo_hits}

    # -- literal reduction --------------------------------------------------

    def _reduce_lit(self, node, subst):
        """The literal with its pinned variables substituted. Its terms are
        sorted with distinct variables and nonzero coefficients, so the
        unpinned ones stay in order; with none pinned it is the node itself."""
        kind, items, const = node
        kept = []
        for item in items:
            val = subst.get(item[0])
            if val is None:
                kept.append(item)
            else:
                const += item[1] * val
        if len(kept) == len(items):
            return node
        return (kind, tuple(kept), const) if kept else _mk_lit(kind, {}, const)

    def _peek(self, node, subst):
        """Tri-state evaluation under a partial assignment: True/False/None."""
        kind = node[0]
        if kind in ("ge", "eq"):
            kind = self._reduce_lit(node, subst)[0]
        if kind in ("true", "false"):
            return kind == "true"
        if kind in ("ge", "eq"):
            return None
        if kind == "and":
            saw_none = False
            for ch in node[1]:
                r = self._peek(ch, subst)
                if r is False:
                    return False
                saw_none = saw_none or r is None
            return None if saw_none else True
        if kind == "or":
            live = self._live(node, subst)
            return True if live is None else (None if live else False)
        # Quantified: only decidable when ground.
        if self.frees.of(node) <= subst.keys():
            found = self._sub_solve(node, subst)
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

    def _entry(self, node, subst) -> tuple:
        """The node's id and the values of its free variables, None where
        unpinned, in the order of its cached set: the node's residual-key
        entry, and its sub-solve memo key."""
        return (id(node), *map(subst.get, self.frees.of(node)))

    def _sub_solve(self, node, subst) -> bool:
        """Whether a ground quantified node's block has a witness, with its
        free variables at their values; memoized on the node's entry."""
        key = self._entry(node, subst)
        if key not in self.sub_memo:
            outer = dict(zip(self.frees.of(node), key[1:]))
            self.sub_memo[key] = self.solve([node[2]], outer) is not None
        return self.sub_memo[key]

    # -- main search ---------------------------------------------------------

    def solve(self, goal_nodes: list, outer: dict[str, int]):
        """A witness for the conjunction of goals, or None: the values of the
        pinned variables and of the Omega test's model. outer maps some free
        variables of the goals to concrete integers.
        """
        trail = _Trail(outer)
        try:
            for node in goal_nodes:
                self._push(trail, node, (), trail.ranks)
            return self._search(trail)
        except _Fail:
            return None

    def _push(self, trail: _Trail, node, prefix: tuple, ranks) -> None:
        """Add a goal: a literal, reduced, or a pending node ranked
        ``prefix + (next(ranks),)``; conjunctions and existential blocks are
        taken apart."""
        if node[0] in ("ge", "eq"):
            node = self._reduce_lit(node, trail.subst)
        kind = node[0]
        if kind == "false":
            raise _Fail()
        if kind == "and":
            for ch in node[1]:
                self._push(trail, ch, prefix, ranks)
        elif kind == "ex":
            self._push(trail, node[2], prefix, ranks)
        elif kind in ("ge", "eq"):
            trail.make(None, node, next(trail.serial), tuple(v for v, _ in node[1]))
        elif kind != "true":
            mine = tuple(v for v in self.frees.of(node) if v not in trail.subst)
            trail.make(node, self._entry(node, trail.subst), prefix + (next(ranks),), mine)

    def _propagate(self, trail: _Trail) -> None:
        """Pin forced variables and simplify until nothing changes. A round
        reduces, in creation order, the new literals and those that mention
        a variable pinned since (a unit equality pins at once, and the later
        literals it touches join the pass); then it peeks, in goal order, the
        new pending nodes and those that mention a pin of this round, and
        splices a disjunction with one live disjunct. A round with no pin and
        no splice is the last."""
        subst, occ = trail.subst, trail.occ
        lit_fresh: set[str] = set()
        while True:
            self.charge()
            self.rounds += 1
            pins: set[str] = set()
            fresh, trail.fresh = trail.fresh, []

            queue = {item.rank: item for item in fresh if item.node is None}
            for v in lit_fresh:
                for item in occ.get(v, ()):
                    if item.alive and item.node is None and any(x == v for x, _ in item.entry[1]):
                        queue[item.rank] = item
            order = sorted(queue)
            at = 0
            while at < len(order):
                rank = order[at]
                at += 1
                item = queue[rank]
                red = self._reduce_lit(item.entry, subst)
                if red == ("false",):
                    raise _Fail()
                if red == ("true",):
                    trail.kill(item)
                elif red[0] == "eq" and len(red[1]) == 1:
                    (v, c), const = red[1][0], red[2]
                    if const % c != 0:
                        raise _Fail()
                    trail.pin(v, -const // c)
                    trail.kill(item)
                    pins.add(v)
                    for other in occ[v]:
                        if other.alive and other.node is None and other.rank > rank \
                                and other.rank not in queue:
                            queue[other.rank] = other
                            insort(order, other.rank, at)
                elif red != item.entry:
                    trail.set_entry(item, red)

            spliced = False
            touched = {item.rank: item for item in fresh if item.node is not None}
            for v in pins:
                for item in occ.get(v, ()):
                    if item.alive and item.node is not None:
                        touched[item.rank] = item
            for rank in sorted(touched):
                item = touched[rank]
                node = item.node
                if node[0] == "or":
                    live = self._live(node, subst)
                    result = None if live else live is None
                else:
                    result = self._peek(node, subst)
                if result is False:
                    raise _Fail()
                if result is True:
                    trail.kill(item)
                elif node[0] == "or" and len(live) == 1:
                    trail.kill(item)
                    self._push(trail, live[0], rank, count())
                    spliced = True
                else:
                    entry = self._entry(node, subst)
                    if entry != item.entry:
                        trail.set_entry(item, entry)

            if not pins and not spliced:
                return
            lit_fresh = pins

    def _search(self, trail: _Trail):
        """Depth-first search, one loop over a stack of choice points.

        A node is propagated, then decided: Omega on a pure conjunction, else
        it pushes a choice point ``[options, mark, hash, undecided, branch]``
        over the live disjuncts of a disjunction. Each option is charged and
        counted as a branch; its child undoes the trail to ``mark`` (the
        node) and adds the option as a goal in place of ``branch``. A failed
        or undecided child moves on to the next option; an undecided one's
        reason is raised once no sibling answers sat, while the deadline and
        the step budget stop the whole search. When every child failed, the
        node's residual problem is memoized as failed. A node with no
        disjunction left whose quantified goals are not ground is undecided.
        """
        stack: list[list] = []
        point = None  # the choice point whose option is entered; None: the root
        while True:
            outcome = None  # why the node was undecided; None when it failed
            try:
                if point is not None:
                    trail.undo(point[1])
                    trail.fresh = []
                    trail.kill(point[4])
                    self._push(trail, option, (), trail.ranks)
                self._propagate(trail)

                if not trail.live_nodes:
                    return self._leaf(trail)
                key = trail.hash
                if key in self.failed and trail.residual_key(self.entry_ids) in self.failed[key]:
                    self.memo_hits += 1
                    raise _Fail()
                if not trail.ors:
                    raise RefsolverUnknown("non-ground quantified subformula")

                # Branch on the first disjunction with the fewest unpinned
                # variables: the most-determined goal first, which follows
                # chained equalities in the order they pin each other instead
                # of guessing ahead.
                branch = trail.ors[0][2]
                live = self._live(branch.node, trail.subst)
                stack.append([iter(live), len(trail.log), key, None, branch])
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
                point[3] = point[3] or outcome
                option = next(point[0], None)
                if option is not None:
                    self.charge()
                    self.branches += 1
                    break
                outcome = point[3]
                if outcome is None:
                    trail.undo(point[1])
                    keys = self.failed.setdefault(point[2], set())
                    keys.add(trail.residual_key(self.entry_ids))
                stack.pop()

    def _leaf(self, trail: _Trail) -> dict[str, int]:
        """The witness once only literals are left, which Omega decides."""
        witness = {}
        if trail.live_lits:
            loading = time.perf_counter()
            from . import omega_solve  # looked up there, so a wrapper applies
            from .omega import OmegaBudgetExceeded

            self.load_s += time.perf_counter() - loading
            self.omega_calls += 1
            lits = [item.entry for item in trail.items if item.alive and item.node is None]
            try:
                witness = omega_solve(lits, deadline=self.deadline)
            except OmegaBudgetExceeded as exc:
                self.charge(0)  # past the deadline: stop, do not record
                raise RefsolverUnknown(str(exc)) from None
            if witness is None:
                raise _Fail()
        return {**trail.subst, **witness}
