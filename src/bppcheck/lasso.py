"""The lasso window: EG decided at every bound by an explicit search.

``decide`` decides the EG nodes ``ctl.check`` meets, each at its concrete
marking. An EG φ node whose body has no EG is first tried on a window, at
k > WINDOW: a depth-first search over the rule paths of ``WINDOW`` steps
from the node's concrete marking, with φ evaluated at every position, for
a lasso, a position i < WINDOW with u_i ≤ u_WINDOW in every component,
where the drift d = u_WINDOW − u_i moves no atom of φ (in negation normal
form) towards false. BPP firing is monotone, so the segment from u_i fires
again from u_WINDOW forever (u_t = u_{t−L} + d), φ holds at every
position, and EG φ holds at every bound. ``decide`` pumps the path to k
steps and replays it concretely before it counts. A node the window does
not decide goes to the paper's k-step unrolling (``eg.encode_eg``), the
only EG path that makes a script: the encoder and the solver back end are
imported at a node's first unrolling, so a check the window decides
compiles neither.
"""

from __future__ import annotations

import time

from .core import Bpp, Marking, successors
from .ctl import EG, And, Atom, CheckRun, Cmp, ENext, Formula, LinearAtom, Not, evaluate, walk
from .errors import EncodingTimeout, SolverProtocolError

#: Steps of the lasso window. With no lasso the search tries every rule
#: path of the window, so its cost grows like (rules ** WINDOW); it runs
#: under half of the time the check has left.
WINDOW = 4


#: The sign a drift must have on an atom's linear form so that adding it
#: keeps the atom true: the form grows for >= and >, shrinks for <= and <,
#: and stays put for = and !=.
_DRIFT_SIGN = {">=": ">=", ">": ">=", "<=": "<=", "<": "<=", "=": "=", "!=": "="}
_FLIPPED = {">=": "<=", "<=": ">=", "=": "="}


def _drift_signs(f: Formula, positive: bool, bpp: Bpp, out: dict) -> None:
    """Collect, as the atom ``terms sign 0`` over a drift, the sign of every
    atom of f in negation normal form, the enabledness atom u[lhs] >= 1 of
    each rule an E<a> can take included (u[lhs] <= 0 under a negation, so
    no rule becomes enabled)."""
    if isinstance(f, Atom):
        sign = _DRIFT_SIGN[f.atom.cmp.value]
        out[LinearAtom(f.atom.terms, Cmp(sign if positive else _FLIPPED[sign]), 0)] = None
    elif isinstance(f, Not):
        _drift_signs(f.sub, not positive, bpp, out)
    elif isinstance(f, And):
        _drift_signs(f.left, positive, bpp, out)
        _drift_signs(f.right, positive, bpp, out)
    elif isinstance(f, ENext):
        for rule in bpp.rules:
            if rule.action == f.action:
                out[LinearAtom(((rule.lhs, 1),), Cmp.GE if positive else Cmp.LE, 0)] = None
        _drift_signs(f.sub, positive, bpp, out)


def _window_path(
    bpp: Bpp, m: Marking, body: Formula, deadline: float
) -> tuple[list[Marking], int] | None:
    """The lasso window for EG body at m, found by depth-first search over
    the distinct successor markings of each position, in rule order: a
    path u_0..u_WINDOW from m with body at every position and the first
    i < WINDOW whose drift u_WINDOW - u_i passes every sign of
    ``_drift_signs``, or None when no such path exists. Only bounds
    k > WINDOW use it, so E<a> is evaluated as at any k >= 1. Raises
    EncodingTimeout past the deadline, which is checked at every position."""
    # Every component may only grow: d >= 0. An atom sign on a single
    # symbol that says the same thing is the same key, so it is kept once.
    signs: dict = {LinearAtom(((sym, 1),), Cmp.GE, 0): None for sym in bpp.symbols}
    _drift_signs(body, True, bpp, signs)
    memo: dict = {}

    def extend(path: list[Marking]) -> tuple[list[Marking], int] | None:
        if time.perf_counter() >= deadline:
            raise EncodingTimeout("the lasso window ran past the deadline")
        u = path[-1]
        if not evaluate(body, u, bpp, WINDOW, memo=memo):
            return None
        if len(path) > WINDOW:
            for i in range(WINDOW):
                drift = tuple(b - a for a, b in zip(path[i], u))
                if all(sign.evaluate(drift, bpp) for sign in signs):
                    return path, i
            return None
        for t in dict.fromkeys(t for _, t in successors(u, bpp)):
            found = extend(path + [t])
            if found is not None:
                return found
        return None

    return extend([m])


def _pump(
    bpp: Bpp, body: Formula, window: list[Marking], start: int, k: int, deadline: float
) -> list[Marking]:
    """Pump the lasso window[start:] to a k-step path and replay it.

    Past the window, u_t = u_{t-L} + d with L = WINDOW - start and
    d = window[WINDOW] - window[start]. Every position must satisfy body
    and every step must fire one enabled rule; a path that does not is an
    engine bug (SolverProtocolError). Raises EncodingTimeout past the
    deadline, which is checked at every step."""
    loop = WINDOW - start
    drift = tuple(b - a for a, b in zip(window[start], window[WINDOW]))
    path = [window[0]]
    memo: dict = {}
    for j in range(k + 1):
        if time.perf_counter() >= deadline:
            raise EncodingTimeout("pumping the lasso ran past the deadline")
        m = path[j]
        if not evaluate(body, m, bpp, k, memo=memo):
            raise SolverProtocolError(f"lasso path fails the EG body at position {j}")
        if j == k:
            break
        if j < WINDOW:
            nxt = window[j + 1]
        else:
            nxt = tuple(a + b for a, b in zip(path[j + 1 - loop], drift))
        if all(t != nxt for _, t in successors(m, bpp)):
            raise SolverProtocolError(f"lasso path step {j} fires no rule")
        path.append(nxt)
    return path


def decide(run: CheckRun, node: EG, m: Marking) -> bool | None:
    """Decide the EG node at the concrete marking m for ``ctl.check``.

    At k > WINDOW a node whose body has no EG is first tried on the lasso
    window, which decides it at every bound with no solver call; otherwise,
    or when the window does not decide, ``eg.encode_eg`` of the node at m
    (imported here, at the first unrolling) decides it at bound k. The witness is a pumped lasso (its loop goes
    with it) or the unrolling's model. The window search gets half of the
    time the check has left when it starts, the unrolling what is left; an
    encoding, pumping or replay that runs past the deadline leaves the node
    unknown (reason ``timeout``) without a solver call, and one that runs
    out of memory leaves it unknown too (reason ``out of memory``)."""
    bpp, k = run.bpp, run.k
    run.counts.update(eg_nodes=1)
    try:
        if k > WINDOW and not any(isinstance(g, EG) for g in walk(node.sub)):
            now = time.perf_counter()
            try:
                found = _window_path(bpp, m, node.sub, now + (run.deadline - now) / 2)
            except EncodingTimeout:
                found = None
            if found is not None:
                window, start = found
                path = _pump(bpp, node.sub, window, start, k, run.deadline)
                run.counts.update(lasso_nodes=1)
                return run.holds({f"u{j}_{sym}": p[c] for j, p in enumerate(path)
                                  for c, sym in enumerate(bpp.symbols)}, [start, WINDOW])
        from .eg import encode_eg

        enc = encode_eg(bpp, m, node, k, run.deadline)
    except EncodingTimeout:
        return run.unknown("timeout")
    except MemoryError:
        return run.unknown("out of memory")
    outcome = run.solve(enc.script)
    run.counts.update(enc.counts())
    if outcome.status == "sat":
        return run.holds(outcome.model)
    if outcome.status == "unsat":
        return False
    return run.unknown(outcome.reason_unknown)
