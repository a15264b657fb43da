import random
import sys

import pytest

from bppcheck.acs import (
    Acs,
    AcsPlace,
    AcsRule,
    Nop,
    Recv,
    Send,
    Spawn,
    acs_step,
    acs_successors,
    convert,
    convert_place,
    parse_property,
)
from bppcheck.core import TAU, enabled_rules
from bppcheck.ctl import Atom, Cmp, EF, LinearAtom, Not, check
from bppcheck.errors import NameCollision
from bppcheck.oracle import ExplorationBudget, explore, reachable_set
from bppcheck.smt import SolverConfig

REF = SolverConfig((sys.executable, "-m", "bppcheck.refsolver"), 30.0)


@pytest.fixture
def ping_pong() -> Acs:
    """Two states exchanging one message: q0 sends, q1 receives."""
    return Acs(
        states=("q0", "q1"),
        procs=("p",),
        msgs=("m",),
        rules=(
            AcsRule(0, "q0", Send("p", "m"), "q1"),
            AcsRule(1, "q1", Recv("p", "m"), "q0"),
        ),
    )


@pytest.fixture
def self_loop() -> Acs:
    """One state that can both send and receive the same message."""
    return Acs(
        states=("q",),
        procs=("p",),
        msgs=("m",),
        rules=(
            AcsRule(0, "q", Send("p", "m"), "q"),
            AcsRule(1, "q", Recv("p", "m"), "q"),
        ),
    )


class TestStep:
    def test_send_moves_state_and_fills_mailbox(self, ping_pong):
        got = acs_step(ping_pong, AcsPlace((1, 0), (0,)), ping_pong.rules[0])
        assert got == AcsPlace((0, 1), (1,))

    def test_receive_blocks_on_empty_mailbox(self, ping_pong):
        assert acs_step(ping_pong, AcsPlace((0, 1), (0,)), ping_pong.rules[1]) is None

    def test_receive_consumes(self, ping_pong):
        got = acs_step(ping_pong, AcsPlace((0, 1), (1,)), ping_pong.rules[1])
        assert got == AcsPlace((1, 0), (0,))

    def test_spawn_back_to_self(self):
        acs = Acs(("q", "q2"), (), (), (AcsRule(0, "q", Spawn("q2"), "q"),))
        got = acs_step(acs, AcsPlace((1, 0), ()), acs.rules[0])
        assert got == AcsPlace((1, 1), ())

    def test_disabled_without_source_token(self, ping_pong):
        assert acs_step(ping_pong, AcsPlace((0, 0), (5,)), ping_pong.rules[0]) is None

    def test_nop(self):
        acs = Acs(("a", "b"), (), (), (AcsRule(0, "a", Nop(), "b"),))
        assert acs_step(acs, AcsPlace((2, 0), ()), acs.rules[0]) == AcsPlace((1, 1), ())

    def test_successors_enumerate_enabled(self, ping_pong):
        succ = acs_successors(ping_pong, AcsPlace((1, 1), (1,)))
        assert [rid for rid, _ in succ] == [0, 1]


class TestConvert:
    def test_case_study_rules(self, ping_pong):
        cb = convert(ping_pong)
        assert cb.bpp.symbols == ("q0", "q1", "p_m_in", "p_m_out")
        assert len(cb.bpp.rules) == len(ping_pong.rules)
        r0, r1 = cb.bpp.rules
        assert (r0.lhs, tuple(sorted(r0.rhs))) == ("q0", ("p_m_in", "q1"))
        assert (r1.lhs, tuple(sorted(r1.rhs))) == ("q1", ("p_m_out", "q0"))
        assert all(r.action == TAU for r in cb.bpp.rules)

    def test_nop_rule_converts_plain(self):
        acs = Acs(("a", "b"), (), (), (AcsRule(0, "a", Nop(), "b"),))
        cb = convert(acs)
        assert cb.bpp.rules[0].rhs == ("b",)

    def test_in_out_never_on_left(self, ping_pong, self_loop):
        for acs in (ping_pong, self_loop):
            cb = convert(acs)
            special = set(cb.in_symbol.values()) | set(cb.out_symbol.values())
            assert all(r.lhs not in special for r in cb.bpp.rules)

    def test_over_approximation_enables_receive(self, self_loop):
        # Original semantics: the receive waits for a message. Converted:
        # both rules are enabled immediately.
        init = AcsPlace((1,), (0,))
        assert [rid for rid, _ in acs_successors(self_loop, init)] == [0]
        cb = convert(self_loop)
        assert enabled_rules(convert_place(cb, init), cb.bpp) == [0, 1]

    def test_collision_detected(self):
        acs = Acs(("p_m_in",), ("p",), ("m",), (AcsRule(0, "p_m_in", Nop(), "p_m_in"),))
        with pytest.raises(NameCollision):
            convert(acs)

    def test_rule_count_preserved_random(self):
        rng = random.Random(77)
        for _ in range(50):
            acs = random_acs(rng)
            assert len(convert(acs).bpp.rules) == len(acs.rules)


class TestConvertPlace:
    def test_case_study_initial(self, ping_pong):
        cb = convert(ping_pong)
        assert convert_place(cb, AcsPlace((1, 0), (0,))) == (1, 0, 0, 0)

    def test_mailbox_copies_to_in(self, ping_pong):
        cb = convert(ping_pong)
        assert convert_place(cb, AcsPlace((0, 0), (3,))) == (0, 0, 3, 0)

    def test_zero(self, ping_pong):
        cb = convert(ping_pong)
        assert convert_place(cb, AcsPlace((0, 0), (0,))) == (0, 0, 0, 0)


class TestLift:
    def test_lift_formula_tree(self, ping_pong):
        # A scaled mailbox term deep in the tree lifts to its in/out pair,
        # both scaled, and the operators above it are kept.
        cb = convert(ping_pong)
        lifted = parse_property("Neg(EF(mail(p, m) * 2 <= 4))", cb)
        assert lifted == Not(EF(Atom(LinearAtom((("p_m_in", 2), ("p_m_out", -2)), Cmp.LE, 4))))


class TestCaseStudyProperties:
    def test_all_three_unreachability_properties(self, ping_pong):
        # The one-token exchange never puts two tokens on a state and never
        # piles two unconsumed messages into the mailbox.
        cb = convert(ping_pong)
        init = convert_place(cb, AcsPlace((1, 0), (0,)))
        for prop in ("EF(q0 >= 2)", "EF(q1 >= 2)", "EF(mail(p, m) >= 2)"):
            verdict = check(cb.bpp, init, parse_property(prop, cb), 0, REF)
            assert verdict.result == "not-holds", prop

    def test_safety_transfer_to_original_semantics(self, ping_pong):
        # The converted system refutes reachability, so the original
        # semantics cannot reach a matching place either: confirmed by
        # exhaustive search on the (finite) original state space.
        places, complete = explore(
            AcsPlace((1, 0), (0,)),
            lambda pl: [nxt for _, nxt in acs_successors(ping_pong, pl)],
            ExplorationBudget(max_states=1000),
        )
        assert complete
        assert all(pl.u[0] < 2 and pl.u[1] < 2 and pl.v[0] < 2 for pl in places)


class TestMonotoneCounters:
    def test_in_out_counts_never_decrease_on_walks(self, ping_pong, self_loop):
        rng = random.Random(88)
        from bppcheck.core import successors as bpp_successors

        for acs in (ping_pong, self_loop):
            cb = convert(acs)
            special = [cb.bpp.index[s] for s in
                       list(cb.in_symbol.values()) + list(cb.out_symbol.values())]
            m = convert_place(cb, AcsPlace((1,) + (0,) * (len(acs.states) - 1),
                                           (0,) * len(acs.pairs)))
            for _ in range(100):
                nxt = bpp_successors(m, cb.bpp)
                if not nxt:
                    break
                m2 = rng.choice(nxt)[1]
                for idx in special:
                    assert m2[idx] >= m[idx]
                m = m2


def random_acs(rng: random.Random) -> Acs:
    n_states = rng.randint(1, 3)
    states = tuple(f"q{i}" for i in range(n_states))
    procs = tuple(f"w{i}" for i in range(rng.randint(0, 2)))
    msgs = tuple(f"m{i}" for i in range(rng.randint(0, 2))) if procs else ()
    n_rules = rng.randint(1, 5)
    rules = []
    for rid in range(n_rules):
        src = rng.choice(states)
        dst = rng.choice(states)
        kinds = ["nop", "spawn"]
        if procs and msgs:
            kinds += ["send", "recv"]
        kind = rng.choice(kinds)
        if kind == "nop":
            op = Nop()
        elif kind == "spawn":
            op = Spawn(rng.choice(states))
        elif kind == "send":
            op = Send(rng.choice(procs), rng.choice(msgs))
        else:
            op = Recv(rng.choice(procs), rng.choice(msgs))
        rules.append(AcsRule(rid, src, op, dst))
    return Acs(states, procs, msgs, tuple(rules))


def random_place(rng: random.Random, acs: Acs) -> AcsPlace:
    u = [rng.randint(0, 1) for _ in acs.states]
    if sum(u) == 0:
        u[0] = 1
    v = [rng.randint(0, 1) for _ in acs.pairs]
    return AcsPlace(tuple(u), tuple(v))


class TestOverApproximation:
    def test_every_reachable_place_has_a_counterpart(self):
        # For places reachable in <= 6 steps under the counter semantics,
        # the converted system reaches a marking with identical state counts
        # and in-minus-out equal to each mailbox count.
        rng = random.Random(99)
        for _ in range(30):
            acs = random_acs(rng)
            init = random_place(rng, acs)
            cb = convert(acs)
            bpp_init = convert_place(cb, init)

            places, _ = explore(
                init,
                lambda pl: [nxt for _, nxt in acs_successors(acs, pl)],
                ExplorationBudget(max_states=3000, max_depth=6),
            )
            markings, _ = reachable_set(
                cb.bpp, bpp_init, ExplorationBudget(max_states=60_000, max_depth=6)
            )

            projected = set()
            for m in markings:
                u = tuple(m[cb.bpp.index[q]] for q in acs.states)
                # a mailbox holds its in-count minus its out-count
                v = tuple(m[cb.bpp.index[cb.in_symbol[pm]]] - m[cb.bpp.index[cb.out_symbol[pm]]]
                          for pm in acs.pairs)
                projected.add((u, v))
            for pl in places:
                assert (pl.u, pl.v) in projected, (acs, init, pl)
