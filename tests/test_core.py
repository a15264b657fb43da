import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bppcheck.core import (
    Bpp,
    Rule,
    enabled_rules,
    fire,
    parikh,
    rule_delta,
    successors,
)
from bppcheck.errors import DimensionMismatch, RuleNotEnabled, UnknownSymbol


class TestParikh:
    def test_counts_in_declaration_order(self, triangle):
        expr = ["X1", "X2", "X2", "X3", "X3"]
        assert parikh(expr, triangle) == (1, 2, 2)

    def test_empty_multiset(self):
        bpp = Bpp(("X",), (Rule(0, "X", "a", ()),))
        assert parikh([], bpp) == (0,)

    def test_direct_count(self):
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X",)),))
        assert parikh(["X", "Y", "X"], bpp) == (2, 1)

    def test_unknown_symbol(self, triangle):
        with pytest.raises(UnknownSymbol):
            parikh(["X1", "W"], triangle)

    @given(st.permutations(["X1", "X1", "X2", "X3", "X3", "X3"]))
    def test_commutativity(self, perm):
        bpp = Bpp(
            ("X1", "X2", "X3"),
            (Rule(0, "X1", "a", ()),),
        )
        assert parikh(perm, bpp) == (2, 1, 3)


class TestEnabledRules:
    def test_single_token_enables_single_rule(self, triangle):
        assert enabled_rules((1, 0, 0), triangle) == [0]

    def test_nothing_enabled_at_zero(self, triangle):
        assert enabled_rules((0, 0, 0), triangle) == []

    def test_two_enabled(self, triangle):
        # X2 and X3 each carry a token, so r2 and r3 fire.
        assert enabled_rules((0, 1, 1), triangle) == [1, 2]

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatch):
            enabled_rules((1, 0), triangle)


class TestFire:
    def test_first_transition(self, triangle):
        assert fire((1, 0, 0), 0, triangle) == (0, 1, 1)

    def test_apply_update_formula(self, triangle):
        assert fire((0, 1, 1), 2, triangle) == (1, 1, 0)

    def test_self_loop_identity(self):
        bpp = Bpp(("X", "Y"), (Rule(0, "X", "a", ("X",)),))
        assert fire((1, 0), 0, bpp) == (1, 0)

    def test_not_enabled(self, triangle):
        with pytest.raises(RuleNotEnabled):
            fire((0, 1, 1), 0, triangle)


class TestSuccessors:
    def test_single_successor(self, triangle):
        assert successors((1, 0, 0), triangle) == [("a", (0, 1, 1))]

    def test_empty_at_zero(self, triangle):
        assert successors((0, 0, 0), triangle) == []

    def test_two_successors_checked_by_hand(self, triangle):
        # From (0,1,1): r2 consumes one X2 and emits X1 X2 -> (1,1,1);
        # r3 consumes one X3 and emits X1 -> (1,1,0).
        assert successors((0, 1, 1), triangle) == [
            ("a", (1, 1, 1)),
            ("a", (1, 1, 0)),
        ]

    def test_agrees_with_enabled_and_fire(self, triangle):
        rng = random.Random(7)
        m = (1, 0, 0)
        for _ in range(100):
            expected = [
                (triangle.rules[rid].action, fire(m, rid, triangle))
                for rid in enabled_rules(m, triangle)
            ]
            assert successors(m, triangle) == expected
            nxt = successors(m, triangle)
            if not nxt:
                break
            m = rng.choice(nxt)[1]


class TestInvariants:
    def test_nonnegativity_closure_random_walks(self, triangle, grower):
        rng = random.Random(11)
        for bpp in (triangle, grower):
            m = tuple(1 if i == 0 else 0 for i in range(bpp.n))
            for _ in range(300):
                nxt = successors(m, bpp)
                if not nxt:
                    break
                m = rng.choice(nxt)[1]
                assert all(c >= 0 for c in m)

    def test_positivity_preservation(self, triangle, grower, labeled_cycle):
        # From a strictly positive marking, firing keeps every component
        # nonnegative, and strictly positive whenever the consumed symbol
        # either reappears on the right side or had at least two tokens.
        # (The strict claim for a singly-marked, non-reproduced left symbol
        # is false: S -> X at S=1 leaves S at 0.)
        rng = random.Random(13)
        for bpp in (triangle, grower, labeled_cycle):
            for _ in range(200):
                m = tuple(rng.randint(1, 4) for _ in bpp.symbols)
                for rid in enabled_rules(m, bpp):
                    rule = bpp.rules[rid]
                    out = fire(m, rid, bpp)
                    assert all(c >= 0 for c in out)
                    lhs_idx = bpp.index[rule.lhs]
                    for i, c in enumerate(out):
                        if i != lhs_idx or rule.lhs in rule.rhs or m[lhs_idx] >= 2:
                            assert c > 0

    def test_rule_delta_matches_fire(self, triangle):
        for rule in triangle.rules:
            m = tuple(2 for _ in triangle.symbols)
            delta = rule_delta(rule, triangle)
            fired = fire(m, rule.rid, triangle)
            assert fired == tuple(a + d for a, d in zip(m, delta))


class TestValidation:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            Bpp(("X", "X"), ())

    def test_rhs_must_be_declared(self):
        with pytest.raises(UnknownSymbol):
            Bpp(("X",), (Rule(0, "X", "a", ("Y",)),))

    def test_rule_ids_are_file_order(self):
        with pytest.raises(ValueError):
            Bpp(("X",), (Rule(1, "X", "a", ()),))

    def test_producers(self, triangle):
        assert [r.rid for r in triangle.producers["X1"]] == [1, 2]
        assert [r.rid for r in triangle.producers["X2"]] == [0, 1]
        assert [r.rid for r in triangle.producers["X3"]] == [0]
