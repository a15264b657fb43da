"""Desk-scale ground truth: explicit-state BFS and direct bounded evaluation.

Both SMT engines are differentially tested against this module, so it stays
deliberately naive: plain breadth-first search over concrete markings, and
the k-step semantics evaluated by ``ctl.evaluate`` with explicit deciders
for its EG and EF nodes. Budgets make every call total.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, TypeVar

from .core import Bpp, Marking, successors
from .ctl import EG, Formula, atoms_only, evaluate
from .record import Record, setfield

S = TypeVar("S", bound=Hashable)


class ExplorationBudget(Record):
    __slots__ = __match_args__ = ("max_states", "max_depth")

    def __init__(self, max_states: int = 50_000, max_depth: int | None = None):
        if max_states < 1:
            raise ValueError("max_states must be >= 1")
        setfield(self, "max_states", max_states)
        setfield(self, "max_depth", max_depth)


class OracleAnswer(Record):
    """Either a definite boolean or the admission that the budget tripped."""

    __slots__ = __match_args__ = ("value",)

    @classmethod
    def definitely(cls, value: bool) -> "OracleAnswer":
        return cls(bool(value))

    @classmethod
    def exhausted(cls) -> "OracleAnswer":
        return cls(None)

    @property
    def is_definite(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        if self.value is None:
            return "ExhaustedBudget"
        return f"Definitely({self.value})"


class _Exhausted(Exception):
    pass


def explore(
    init: S,
    succ: Callable[[S], Iterable[S]],
    budget: ExplorationBudget,
    target: Callable[[S], bool] | None = None,
) -> tuple[dict[S, int], bool]:
    """BFS from init. Returns {state: depth} and a trustworthy complete flag.

    complete is True only if every successor of every visited state is
    itself visited, i.e. nothing was lost to the state or depth cap.

    With a target, the search stops at the first state satisfying it, even
    one found when the state cap is reached; that state is then the last
    key of the returned dict and complete is False.
    """
    depth_of: dict[S, int] = {init: 0}
    if target is not None and target(init):
        return depth_of, False
    frontier: deque[S] = deque([init])
    cut: list[S] = []
    truncated = False

    while frontier:
        state = frontier.popleft()
        d = depth_of[state]
        if budget.max_depth is not None and d >= budget.max_depth:
            cut.append(state)
            continue
        for nxt in succ(state):
            if nxt in depth_of:
                continue
            if target is not None and target(nxt):
                depth_of[nxt] = d + 1
                return depth_of, False
            if len(depth_of) >= budget.max_states:
                truncated = True
                frontier.clear()
                break
            depth_of[nxt] = d + 1
            frontier.append(nxt)
        if truncated:
            break

    complete = not truncated
    if complete:
        for state in cut:
            if any(nxt not in depth_of for nxt in succ(state)):
                complete = False
                break
    return depth_of, complete


def _bpp_succ(bpp: Bpp) -> Callable[[Marking], list[Marking]]:
    def succ(m: Marking) -> list[Marking]:
        return [t for _, t in successors(m, bpp)]

    return succ


def reachable_set(
    bpp: Bpp, init: Marking, budget: ExplorationBudget | None = None
) -> tuple[frozenset[Marking], bool]:
    """All markings reachable from init, within budget."""
    bpp.check_marking(init)
    budget = budget or ExplorationBudget()
    depth_of, complete = explore(init, _bpp_succ(bpp), budget)
    return frozenset(depth_of), complete


def check_ef_oracle(
    bpp: Bpp,
    init: Marking,
    psi: Formula,
    budget: ExplorationBudget | None = None,
) -> OracleAnswer:
    """Is some reachable marking a model of the propositional formula psi?"""
    bpp.check_marking(init)

    def target(m: Marking) -> bool:
        return evaluate(psi, m, bpp, 0)

    depth_of, complete = explore(init, _bpp_succ(bpp), budget or ExplorationBudget(), target)
    if target(next(reversed(depth_of))):
        return OracleAnswer.definitely(True)
    if complete:
        return OracleAnswer.definitely(False)
    return OracleAnswer.exhausted()


def eval_bounded(
    f: Formula,
    m: Marking,
    k: int,
    bpp: Bpp,
    budget: ExplorationBudget | None = None,
) -> OracleAnswer:
    """The k-step bounded semantics of f at m, by ``ctl.evaluate`` with two
    explicit deciders.

    EG needs a rule path of exactly k steps whose every position satisfies
    the body at the same k, found by a memoized search over (marking, steps
    left); EF, whose body must be propositional, is ``check_ef_oracle`` at
    the marking. The budget counts the distinct (marking, steps left) pairs
    the EG searches visit, and each EF search's states on their own. An EF
    search that trips leaves its node unknown, as in ``ctl.check``: the
    answer is ExhaustedBudget when that unknown decides it or sits in an EG
    body, and when the EG count trips.
    """
    bpp.check_marking(m)
    if k < 0:
        raise ValueError("k must be >= 0")
    budget = budget or ExplorationBudget()
    memo: dict[tuple, bool | None] = {}
    paths: dict[tuple, bool] = {}
    visits = 0

    def eg_path(g: EG, mm: Marking, remaining: int) -> bool:
        nonlocal visits
        key = (id(g), mm, remaining)
        if key not in paths:
            visits += 1
            if visits > budget.max_states:
                raise _Exhausted()
            body = evaluate(g.sub, mm, bpp, k, decide, memo)
            if body is None:
                raise _Exhausted()
            paths[key] = body and (
                remaining == 0
                or any(eg_path(g, t, remaining - 1) for _, t in successors(mm, bpp)))
        return paths[key]

    def decide(g: Formula, mm: Marking) -> bool | None:
        if isinstance(g, EG):
            return eg_path(g, mm, k)
        if not atoms_only(g.sub):
            raise TypeError(f"eval_bounded needs EF bodies over atoms, got {g!r}")
        return check_ef_oracle(bpp, mm, g.sub, budget).value

    try:
        return OracleAnswer(evaluate(f, m, bpp, k, decide, memo))
    except _Exhausted:
        return OracleAnswer.exhausted()


def to_dot(bpp: Bpp, init: Marking, budget: ExplorationBudget | None = None) -> str:
    """Render the explored transition graph in Graphviz DOT format."""
    bpp.check_marking(init)
    budget = budget or ExplorationBudget()
    depth_of, complete = explore(init, _bpp_succ(bpp), budget)
    order = {m: i for i, m in enumerate(sorted(depth_of, key=lambda s: (depth_of[s], s)))}

    def label(m: Marking) -> str:
        inner = ",".join(str(c) for c in m)
        return f"({inner})"

    lines = ["digraph reachability {"]
    if not complete:
        lines.append('  truncated [shape=plaintext, label="(truncated)"];')
    for m, i in order.items():
        shape = "doublecircle" if m == init else "circle"
        lines.append(f'  n{i} [shape={shape}, label="{label(m)}"];')
    for m, i in order.items():
        if budget.max_depth is not None and depth_of[m] >= budget.max_depth:
            continue
        for action, t in successors(m, bpp):
            if t in order:
                lines.append(f'  n{i} -> n{order[t]} [label="{action}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
