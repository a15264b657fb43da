"""Seeded instance families. Every function is a pure function of its
arguments and the ``random.Random`` it is handed."""

from __future__ import annotations

import random

from .model import TAU, Actors, System, atom

CMPS = (">=", "<=", ">", "<", "==", "!=")


# ---------------------------------------------------------------------------
# Small random systems and formulas (the acceptance-corpus shape)
# ---------------------------------------------------------------------------


def random_system(rng: random.Random, max_symbols: int = 5, max_rules: int = 8,
                  max_rhs: int = 3, actions=("a", "b")) -> System:
    """Random BPP over P0..P(n-1); every symbol occurs in some rule, so the
    problem file declares all of them."""
    n = rng.randint(2, max_symbols)
    symbols = tuple(f"P{i}" for i in range(n))
    rules = []
    for lhs in symbols:  # one rule per symbol keeps every symbol declared
        rules.append(_random_rule(rng, lhs, symbols, max_rhs, actions))
    for _ in range(rng.randint(0, max_rules - n)):
        rules.append(_random_rule(rng, rng.choice(symbols), symbols, max_rhs, actions))
    rng.shuffle(rules)
    init = [rng.randint(0, 2) for _ in symbols]
    if not any(init):
        init[rng.randrange(n)] = 1
    return System(symbols, tuple(rules), tuple(init))


def _random_rule(rng, lhs, symbols, max_rhs, actions):
    rhs = tuple(rng.choice(symbols) for _ in range(rng.randint(0, max_rhs)))
    return (lhs, rng.choice(actions), rhs)


def random_atom(rng: random.Random, names) -> tuple:
    names = list(names)
    chosen = rng.sample(names, rng.randint(1, min(2, len(names))))
    terms = [(chosen[0], rng.randint(1, 2))]
    for name in chosen[1:]:
        terms.append((name, rng.choice((-2, -1, 1, 2))))
    return atom(terms, rng.choice(CMPS), rng.randint(0, 3))


def random_prop(rng: random.Random, names, depth: int = 1) -> tuple:
    if depth <= 0 or rng.random() < 0.5:
        return random_atom(rng, names)
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return ("not", random_prop(rng, names, depth - 1))
    return (kind, random_prop(rng, names, depth - 1), random_prop(rng, names, depth - 1))


def ef_combination(rng: random.Random, names, n_ef: int) -> tuple:
    """A Conj/Neg/Disj combination of exactly ``n_ef`` EF nodes."""
    nodes = [("ef", random_prop(rng, names)) for _ in range(n_ef)]
    nodes = [("not", f) if rng.random() < 0.4 else f for f in nodes]
    f = nodes[0]
    for g in nodes[1:]:
        f = (rng.choice(("and", "or")), f, g)
    return f


def bounded_formula(rng: random.Random, system: System) -> tuple:
    """One of a fixed set of bounded shapes over atoms."""
    names = system.symbols
    action = rng.choice(sorted({a for _, a, _ in system.rules}))
    a1, a2 = random_atom(rng, names), random_atom(rng, names)
    shape = rng.randrange(5)
    if shape == 0:
        return ("eg", a1)
    if shape == 1:
        return ("eg", ("ex", action, a1))
    if shape == 2:
        return ("af", a1)
    if shape == 3:
        return ("eg", ("and", a1, ("ex", action, a2)))
    return ("ex", action, ("eg", a1))


def random_actors(rng: random.Random) -> Actors:
    """A finite-control actor system: no spawns, so the number of actors is
    fixed, with sends, receives and plain moves over 2-3 states."""
    states = tuple(f"q{i}" for i in range(rng.randint(2, 3)))
    procs = ("p",) if rng.random() < 0.5 else ("p", "r")
    msgs = ("m",) if rng.random() < 0.5 else ("m", "n")
    pairs = [(p, m) for p in procs for m in msgs]
    rules = []
    for _ in range(rng.randint(2, 5)):
        src, dst = rng.choice(states), rng.choice(states)
        op = rng.choice(("send", "recv", "nop"))
        arg = rng.choice(pairs) if op != "nop" else None
        rules.append((src, op, arg, dst))
    init_states = [0] * len(states)
    init_states[0] = rng.randint(1, 2)
    init_mail = tuple(rng.randint(0, 1) for _ in pairs)
    return Actors(states, procs, msgs, tuple(rules), tuple(init_states), init_mail)


def mailbox_property(rng: random.Random, actors: Actors) -> tuple:
    """EF over one mailbox content and possibly one state count."""
    p, m = rng.choice(actors.pairs)
    mail = atom([(("mail", p, m), 1)], rng.choice((">=", "<=", "==")), rng.randint(0, 3))
    if rng.random() < 0.5:
        return ("ef", mail)
    state = atom([(rng.choice(actors.states), 1)], rng.choice((">=", "==")), rng.randint(0, 2))
    return ("ef", ("and", mail, state))


PINGPONG = Actors(
    states=("q0", "q1"),
    procs=("p",),
    msgs=("m",),
    rules=(("q0", "send", ("p", "m"), "q1"), ("q1", "recv", ("p", "m"), "q0")),
    init_states=(1, 0),
    init_mail=(0,),
)

#: The three case-study properties shipped with the demos; none holds.
PINGPONG_PROPERTIES = (
    ("ef", atom([("q0", 1)], ">=", 2)),
    ("ef", atom([("q1", 1)], ">=", 2)),
    ("ef", atom([(("mail", "p", "m"), 1)], ">=", 2)),
)


# ---------------------------------------------------------------------------
# EF instances that only the connectivity block decides
# ---------------------------------------------------------------------------


def ring_instance(n: int, seed: int) -> tuple[System, tuple]:
    """A ring P0 -> P1 -> ... -> P0 plus n random growing rules, started
    from one P0 token; the target EF(P(n-1) >= 3) is reachable because the
    ring alone can carry a token around and growing rules add more."""
    rng = random.Random(f"ring-{n}-{seed}")
    symbols = tuple(f"P{i}" for i in range(n))
    rules = [(symbols[i], TAU, (symbols[(i + 1) % n],)) for i in range(n)]
    for _ in range(n):
        lhs = rng.choice(symbols)
        rhs = tuple(rng.choice(symbols) for _ in range(rng.randint(2, 3)))
        rules.append((lhs, TAU, rhs))
    rng.shuffle(rules)
    init = (1,) + (0,) * (n - 1)
    return System(symbols, tuple(rules), init), ("ef", atom([(symbols[-1], 1)], ">=", 3))


def dead_generator_instance(live: int, dead: int, seed: int) -> tuple[System, tuple]:
    """Live symbols L0..L(live-1) on a token-preserving ring, started from
    one L0 token, plus unmarked symbols D0..D(dead-1) that only feed each
    other and a target T. No live rule produces a D, so T is unreachable,
    yet D cycles that emit T balance the state equation: only the
    connectivity block refutes EF(T >= 1)."""
    rng = random.Random(f"dead-{live}x{dead}-{seed}")
    ls = tuple(f"L{i}" for i in range(live))
    ds = tuple(f"D{i}" for i in range(dead))
    rules = [(ls[i], TAU, (ls[(i + 1) % live],)) for i in range(live)]
    for i in range(live):
        rules.append((ls[i], TAU, (rng.choice(ls),)))
    for i in range(dead):
        rules.append((ds[i], TAU, (ds[(i + 1) % dead], "T")))
        rhs = tuple(rng.choice(ds) for _ in range(rng.randint(1, 2)))
        rules.append((ds[i], TAU, rhs))
    rng.shuffle(rules)
    symbols = ls + ds + ("T",)
    init = (1,) + (0,) * (len(symbols) - 1)
    body = atom([("T", 1)], ">=", 1)
    if rng.random() < 0.5:
        body = ("and", body, atom([(rng.choice(ls), 1)], ">=", 1))
    return System(symbols, tuple(rules), init), ("ef", body)


# ---------------------------------------------------------------------------
# Deep bounded checks on the demo liveness system
# ---------------------------------------------------------------------------

#: demos/inputs/liveness.bpp, restated so the reference never reads the
#: program's files.
LIVENESS = System(
    symbols=("X", "Y", "Z"),
    rules=(("X", "a", ("Y", "Z")), ("Y", "a", ("X", "Y")), ("Z", "b", ("X",))),
    init=(1, 0, 0),
)
