"""Value semantics of the package's records: equal fields and the same type
make equal, equally hashed records; hashed records cannot be changed."""

import pickle

import pytest

from bppcheck.acs import Recv, Send
from bppcheck.core import Bpp, Rule
from bppcheck.ctl import AF, EF, EG, And, Atom, Cmp, Imp, LinearAtom, Not, Or
from bppcheck.parsing import ProblemFile, parse_problem
from bppcheck.smt import AndF, OrF, lin

P = Atom(LinearAtom((("X", 1),), Cmp.GE, 1))
Q = Atom(LinearAtom((("Y", 2),), Cmp.LT, 3))


def test_equal_nodes_are_equal_and_hash_equal():
    a, b = And(EG(P), Not(Q)), And(EG(P), Not(Q))
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, And(EG(P), Not(P))}) == 2


@pytest.mark.parametrize("family", [
    [EG(P), EF(P), AF(P), Not(P)],
    [And(P, Q), Or(P, Q), Imp(P, Q)],
    [AndF((lin([("x", 1)], ">=", 0),)), OrF((lin([("x", 1)], ">=", 0),))],
    [Send("p", "m"), Recv("p", "m")],
])
def test_same_fields_different_types_are_unequal(family):
    for i, left in enumerate(family):
        for right in family[i + 1:]:
            assert left != right
            assert not left == right


@pytest.mark.parametrize("record, field", [
    (EG(P), "sub"),
    (P.atom, "bound"),
    (Rule(0, "X", "a", ()), "rhs"),
    (lin([("x", 1)], ">=", 0), "op"),
    (Bpp(("X",), ()), "symbols"),
])
def test_assigning_a_field_of_a_hashed_record_raises(record, field):
    before = hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert hash(record) == before


def test_cached_properties_stay_outside_equality():
    rules = (Rule(0, "X", "a", ("Y",)),)
    warm, cold = Bpp(("X", "Y"), rules), Bpp(("X", "Y"), rules)
    assert warm.index == {"X": 0, "Y": 1}
    assert warm == cold
    assert hash(warm) == hash(cold)


def test_problem_files_compare_by_fields():
    text = "initial X rules X -> Y formula EF(Y >= 1)\n"
    one, two = parse_problem(text), parse_problem(text)
    assert one == two
    assert hash(one) == hash(two)
    assert one != ProblemFile(one.bpp, (0, 1), one.formula)


def test_records_pickle_round_trip():
    problem = parse_problem("initial X rules X -> Y formula EF(Y >= 1)\n")
    copy = pickle.loads(pickle.dumps(problem))
    assert copy == problem
    assert copy.bpp.index == {"X": 0, "Y": 1}


def test_shared_constructor_takes_fields_by_position_and_name():
    rule = Rule(0, "X", action="a", rhs=("Y",))
    assert rule == Rule(rid=0, lhs="X", action="a", rhs=("Y",)) == Rule(0, "X", "a", ("Y",))
    assert (rule.rid, rule.lhs, rule.action, rule.rhs) == (0, "X", "a", ("Y",))


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, "X", "a"), {}, "Rule is missing field 'rhs'"),
    ((0, "X", "a", (), 5), {}, "Rule takes 4 fields, got 5"),
    ((0, "X", "a", ()), {"label": "b"}, "Rule got unknown or repeated field 'label'"),
    ((0, "X", "a", ()), {"rid": 1}, "Rule got unknown or repeated field 'rid'"),
])
def test_shared_constructor_rejects_a_missing_surplus_or_unknown_field(args, kwargs, message):
    with pytest.raises(TypeError) as err:
        Rule(*args, **kwargs)
    assert str(err.value) == message

