"""Independent explicit-state answers for every benchmark check.

Written apart from the program: it reads the benchmark's own tuples
(`model.py`) and never imports the package under test. Three procedures:

* EF: breadth-first search over markings for one that satisfies the body;
  definite when the target is found or the reachable set is exhausted.
* Bounded EG/AF/EX/AX: a memoised recursion over (marking, steps left),
  the k-step semantics with exact-length paths.
* Actor systems: breadth-first search over the converted system's counter
  semantics, quotiented to (state counts, mailbox contents), plus a search
  of the real actor semantics to confirm the over-approximation is sound.

Every search is budgeted; ``None`` means "not definite" and the generator
drops the instance.
"""

from __future__ import annotations

import operator
from collections import deque

from .model import Actors, System

_CMP = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}


class Indefinite(Exception):
    """A search ran out of budget."""


def eval_prop(f, value_of) -> bool:
    """Evaluate a propositional formula; ``value_of`` maps a term reference
    to its count."""
    kind = f[0]
    if kind == "atom":
        total = sum(c * value_of(ref) for ref, c in f[1])
        return _CMP[f[2]](total, f[3])
    if kind == "not":
        return not eval_prop(f[1], value_of)
    if kind == "and":
        return eval_prop(f[1], value_of) and eval_prop(f[2], value_of)
    if kind == "or":
        return eval_prop(f[1], value_of) or eval_prop(f[2], value_of)
    raise ValueError(f"not propositional: {kind!r}")


def successors(system: System, m: tuple[int, ...]):
    """(rule index, action, next marking) for every enabled rule."""
    idx = system.index()
    for rid, (lhs, action, rhs) in enumerate(system.rules):
        i = idx[lhs]
        if m[i] < 1:
            continue
        out = list(m)
        out[i] -= 1
        for s in rhs:
            out[idx[s]] += 1
        yield rid, action, tuple(out)


def bfs_find(init, succ, goal, max_states: int) -> bool:
    """True when a state satisfying ``goal`` is reachable, False when the
    reachable set is exhausted without one; Indefinite past the budget."""
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        if goal(state):
            return True
        for nxt in succ(state):
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise Indefinite()
                seen.add(nxt)
                queue.append(nxt)
    return False


def ef_nodes(f) -> list:
    """EF nodes left to right: the order the program evaluates them in."""
    kind = f[0]
    if kind == "ef":
        return [f]
    if kind == "not":
        return ef_nodes(f[1])
    if kind in ("and", "or"):
        return ef_nodes(f[1]) + ef_nodes(f[2])
    return []


def ef_answers(system: System, f, max_states: int) -> dict[int, bool]:
    """Answer of every EF node of a boolean combination, keyed by id()."""
    idx = system.index()
    out = {}
    for node in ef_nodes(f):
        body = node[1]
        out[id(node)] = bfs_find(
            system.init,
            lambda m: (t for _, _, t in successors(system, m)),
            lambda m: eval_prop(body, lambda s: m[idx[s]]),
            max_states,
        )
    return out


def eval_ef_class(system: System, f, answers: dict[int, bool]) -> bool:
    """A boolean combination of atoms and EF nodes at the initial marking."""
    idx = system.index()
    kind = f[0]
    if kind == "atom":
        return eval_prop(f, lambda s: system.init[idx[s]])
    if kind == "ef":
        return answers[id(f)]
    if kind == "not":
        return not eval_ef_class(system, f[1], answers)
    if kind == "and":
        return eval_ef_class(system, f[1], answers) and eval_ef_class(system, f[2], answers)
    if kind == "or":
        return eval_ef_class(system, f[1], answers) or eval_ef_class(system, f[2], answers)
    raise ValueError(f"not an EF-class node: {kind!r}")


class Bounded:
    """The k-step semantics: EX needs k >= 1 and an action successor; EG
    needs a path of exactly k rule steps whose every position satisfies the
    body; nesting does not consume the bound."""

    def __init__(self, system: System, k: int, max_evals: int = 400_000):
        self.system = system
        self.k = k
        self.idx = system.index()
        self.memo: dict = {}
        self.evals = 0
        self.max_evals = max_evals
        self.succ: dict = {}

    def _successors(self, m):
        got = self.succ.get(m)
        if got is None:
            got = self.succ[m] = tuple(successors(self.system, m))
        return got

    def _charge(self) -> None:
        self.evals += 1
        if self.evals > self.max_evals:
            raise Indefinite()

    def holds(self, f, m) -> bool:
        key = (id(f), m)
        got = self.memo.get(key)
        if got is not None:
            return got
        self._charge()
        kind = f[0]
        if kind == "atom":
            res = eval_prop(f, lambda s: m[self.idx[s]])
        elif kind == "not":
            res = not self.holds(f[1], m)
        elif kind == "and":
            res = self.holds(f[1], m) and self.holds(f[2], m)
        elif kind == "or":
            res = self.holds(f[1], m) or self.holds(f[2], m)
        elif kind == "ex":
            res = self.k >= 1 and any(
                self.holds(f[2], t) for _, a, t in self._successors(m) if a == f[1]
            )
        elif kind == "ax":
            res = self.k < 1 or all(
                self.holds(f[2], t) for _, a, t in self._successors(m) if a == f[1]
            )
        elif kind == "eg":
            res = self.path(f[1], m, self.k)
        elif kind == "af":
            res = not self.path(("not", f[1]), m, self.k)
        else:
            raise ValueError(f"not a bounded formula node: {kind!r}")
        self.memo[key] = res
        return res

    def path(self, body, m, left: int) -> bool:
        """A path of exactly ``left`` steps from m with the body everywhere
        (depth-first, first witness wins; the recursion is k deep)."""
        key = ("path", id(body), m, left)
        got = self.memo.get(key)
        if got is not None:
            return got
        self._charge()
        if not self.holds(body, m):
            res = False
        elif left == 0:
            res = True
        else:
            res = any(self.path(body, t, left - 1) for _, _, t in self._successors(m))
        self.memo[key] = res
        return res


def check_bounded(system: System, f, k: int, max_evals: int = 400_000) -> bool | None:
    try:
        return Bounded(system, k, max_evals).holds(f, system.init)
    except Indefinite:
        return None


# ---------------------------------------------------------------------------
# Actor systems
# ---------------------------------------------------------------------------


def _actor_succ(actors: Actors, guarded: bool):
    """Counter-semantics successors over (state counts, mailbox contents).

    ``guarded`` is the actor semantics (a receive needs a message);
    unguarded is the converted system, where a receive adds an out token
    and the mailbox content in - out may go below zero."""
    sidx = {q: i for i, q in enumerate(actors.states)}
    pidx = {pm: i for i, pm in enumerate(actors.pairs)}

    def succ(place):
        u, v = place
        for src, op, arg, dst in actors.rules:
            if u[sidx[src]] < 1:
                continue
            nu = list(u)
            nu[sidx[src]] -= 1
            nu[sidx[dst]] += 1
            nv = v
            if op in ("send", "recv"):
                j = pidx[arg]
                if op == "recv" and guarded and v[j] < 1:
                    continue
                lst = list(v)
                lst[j] += 1 if op == "send" else -1
                nv = tuple(lst)
            yield (tuple(nu), nv)

    return succ


def _actor_value(actors: Actors, place):
    sidx = {q: i for i, q in enumerate(actors.states)}
    pidx = {pm: i for i, pm in enumerate(actors.pairs)}
    u, v = place

    def value_of(ref) -> int:
        if isinstance(ref, tuple):
            return v[pidx[(ref[1], ref[2])]]
        return u[sidx[ref]]

    return value_of


def check_actor_ef(actors: Actors, body, max_states: int = 20_000) -> bool | None:
    """EF(body) on the converted system. A converted marking's future and
    every property over state counts and mailbox contents depend on it only
    through (state counts, in - out per slot), so the search runs there."""
    init = (actors.init_states, actors.init_mail)
    try:
        return bfs_find(
            init,
            _actor_succ(actors, guarded=False),
            lambda pl: eval_prop(body, _actor_value(actors, pl)),
            max_states,
        )
    except Indefinite:
        return None


def actor_reaches(actors: Actors, body, max_states: int = 20_000) -> bool | None:
    """EF(body) in the actor semantics itself (receives need a message)."""
    init = (actors.init_states, actors.init_mail)
    try:
        return bfs_find(
            init,
            _actor_succ(actors, guarded=True),
            lambda pl: eval_prop(body, _actor_value(actors, pl)),
            max_states,
        )
    except Indefinite:
        return None


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------


def replay_counts(system: System, counts: list[int], max_nodes: int = 200_000):
    """A firing sequence that uses rule r exactly counts[r] times from the
    initial marking, or None when there is none. Depth-first with a memo of
    dead remainders (the marking is a function of the remainder)."""
    if any(c < 0 for c in counts):
        return None
    idx = system.index()
    lhs_idx = [idx[lhs] for lhs, _, _ in system.rules]
    deltas = []
    for lhs, _, rhs in system.rules:
        d = [0] * len(system.symbols)
        d[idx[lhs]] -= 1
        for s in rhs:
            d[idx[s]] += 1
        deltas.append(d)
    dead: set = set()
    nodes = 0
    path: list[int] = []
    stack = [(list(system.init), tuple(counts), 0)]
    while stack:
        marking, rem, start = stack[-1]
        if not any(rem):
            return path
        for rid in range(start, len(rem)):
            if rem[rid] == 0 or marking[lhs_idx[rid]] < 1:
                continue
            child_rem = rem[:rid] + (rem[rid] - 1,) + rem[rid + 1:]
            if child_rem in dead:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise Indefinite()
            stack[-1] = (marking, rem, rid + 1)
            stack.append(([a + b for a, b in zip(marking, deltas[rid])], child_rem, 0))
            path.append(rid)
            break
        else:
            dead.add(rem)
            stack.pop()
            if path:
                path.pop()
    return None


def fire_sequence(system: System, sequence: list[int]) -> tuple[int, ...]:
    idx = system.index()
    m = list(system.init)
    for rid in sequence:
        lhs, _, rhs = system.rules[rid]
        m[idx[lhs]] -= 1
        for s in rhs:
            m[idx[s]] += 1
    return tuple(m)


def one_step(system: System, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return any(t == b for _, _, t in successors(system, a))
