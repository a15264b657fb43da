"""Shared fixtures: the standard three-symbol system and small helpers."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bppcheck.core import TAU, Bpp, Rule
from bppcheck.ctl import Atom, Cmp, LinearAtom


@pytest.fixture
def triangle() -> Bpp:
    """X1 -a-> X2 X3,  X2 -a-> X1 X2,  X3 -a-> X1."""
    return Bpp(
        symbols=("X1", "X2", "X3"),
        rules=(
            Rule(0, "X1", "a", ("X2", "X3")),
            Rule(1, "X2", "a", ("X1", "X2")),
            Rule(2, "X3", "a", ("X1",)),
        ),
    )


@pytest.fixture
def grower() -> Bpp:
    """S -> X,  X -> X Y (both unlabeled): Y counts anything up to x uses."""
    return Bpp(
        symbols=("S", "X", "Y"),
        rules=(
            Rule(0, "S", TAU, ("X",)),
            Rule(1, "X", TAU, ("X", "Y")),
        ),
    )


@pytest.fixture
def labeled_cycle() -> Bpp:
    """X -a-> Y Z,  Y -a-> X Y,  Z -b-> X."""
    return Bpp(
        symbols=("X", "Y", "Z"),
        rules=(
            Rule(0, "X", "a", ("Y", "Z")),
            Rule(1, "Y", "a", ("X", "Y")),
            Rule(2, "Z", "b", ("X",)),
        ),
    )


def atom(sym_coeffs: dict[str, int], cmp: Cmp, bound: int) -> Atom:
    return Atom(LinearAtom(tuple(sym_coeffs.items()), cmp, bound))


def random_bpp(
    rng: random.Random,
    max_symbols: int = 5,
    max_rules: int = 8,
    max_rhs: int = 3,
    action_pool: tuple[str, ...] = ("a", "b"),
) -> Bpp:
    n = rng.randint(1, max_symbols)
    symbols = tuple(f"P{i}" for i in range(n))
    n_rules = rng.randint(1, max_rules)
    rules = []
    for rid in range(n_rules):
        lhs = rng.choice(symbols)
        action = rng.choice(action_pool)
        rhs = tuple(rng.choice(symbols) for _ in range(rng.randint(0, max_rhs)))
        rules.append(Rule(rid, lhs, action, rhs))
    return Bpp(symbols=symbols, rules=tuple(rules))


def random_marking(rng: random.Random, bpp: Bpp, max_count: int = 2) -> tuple[int, ...]:
    m = [rng.randint(0, max_count) for _ in bpp.symbols]
    if sum(m) == 0:
        m[rng.randrange(len(m))] = 1
    return tuple(m)


def random_atom(rng: random.Random, bpp: Bpp, allow_negative: bool = True) -> Atom:
    n_terms = rng.randint(1, min(2, len(bpp.symbols)))
    syms = rng.sample(list(bpp.symbols), n_terms)
    lo = -2 if allow_negative else 0
    terms = []
    for sym in syms:
        c = 0
        while c == 0:
            c = rng.randint(lo, 2)
        terms.append((sym, c))
    cmp = rng.choice(list(Cmp))
    bound = rng.randint(0, 3)
    return Atom(LinearAtom(tuple(terms), cmp, bound))


def pipe_driver(text: str) -> subprocess.CompletedProcess:
    """``python -m bppcheck.refsolver`` on the text, as an external solver."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "bppcheck.refsolver"],
        input=text, env=env, capture_output=True, text=True, timeout=120,
    )
