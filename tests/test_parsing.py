import random

import pytest

from bppcheck.acs import AcsPlace, Nop, Recv, Send, Spawn, convert, convert_place
from bppcheck.core import TAU
from bppcheck.ctl import EF, EG, And, Atom, Cmp, ENext, LinearAtom, Not, walk
from bppcheck.errors import BppCheckError, ParseError
from bppcheck.parsing import (
    CMP_TOKENS,
    MAX_FORMULA_DEPTH,
    ProblemFile,
    parse_acs,
    parse_problem,
    parse_property,
)

LABELED = """\
initial
X
rules
X -> a -> Y, Z
Y -> a -> X, Y
Z -> b -> X
formula
EG(EX(a, Y + Z >= 2))
"""

UNLABELED = """\
initial
S
rules
S -> X
X -> X, Y

formula
EF(Y == 1)
"""


class TestProblemExamples:
    def test_labeled_file(self):
        pf = parse_problem(LABELED)
        assert pf.bpp.symbols == ("X", "Y", "Z")
        assert [(r.lhs, r.action, r.rhs) for r in pf.bpp.rules] == [
            ("X", "a", ("Y", "Z")),
            ("Y", "a", ("X", "Y")),
            ("Z", "b", ("X",)),
        ]
        assert pf.initial == (1, 0, 0)
        assert pf.formula == EG(ENext("a", Atom(LinearAtom((("Y", 1), ("Z", 1)), Cmp.GE, 2))))

    def test_unlabeled_file(self):
        pf = parse_problem(UNLABELED)
        assert pf.bpp.symbols == ("S", "X", "Y")
        assert all(r.action == TAU for r in pf.bpp.rules)
        assert pf.initial == (1, 0, 0)
        assert pf.formula == EF(Atom(LinearAtom((("Y", 1),), Cmp.EQ, 1)))

    def test_rules_section_must_be_nonempty(self):
        with pytest.raises(ParseError) as err:
            parse_problem("initial X rules formula EF(X >= 1)")
        assert err.value.expected == "a rule"

    def test_whitespace_is_insignificant(self):
        squeezed = "initial X rules X->a->Y,Z Y->a->X,Y Z->b->X formula EG(EX(a,Y+Z>=2))"
        assert parse_problem(squeezed) == parse_problem(LABELED)

    def test_comments_ignored(self):
        commented = "# header\ninitial X # trailing\nrules\nX -> X # loop\nformula\nX >= 1\n"
        pf = parse_problem(commented)
        assert pf.bpp.symbols == ("X",)

    def test_initial_multiset_repetition(self):
        pf = parse_problem("initial X, Y, X rules X -> Y formula Y >= 1")
        assert pf.bpp.symbols == ("X", "Y")
        assert pf.initial == (2, 1)


# Accepted corpus: every production of the input grammar is exercised.
ACCEPT_CORPUS = [
    ("single_symbol_query", "initial X rules X -> X formula X >= 1",
     {"SYMBOLS-single", "RULE-unlabeled", "QUERY", "MULT-var", "COMPARE->=", "RULES-single"}),
    ("symbol_list", "initial X, Y, X rules X -> Y formula Y >= 1",
     {"SYMBOLS-list", "initial-multiset"}),
    ("labeled_rule", "initial X rules X -> go -> X formula EX(go, X >= 1)",
     {"RULE-labeled", "NEXT-EX", "LABEL"}),
    ("ax_rule", "initial X rules X -> go -> X formula AX(go, X >= 1)", {"NEXT-AX"}),
    ("rule_sequence", "initial X rules X -> Y Y -> X formula X + Y >= 1",
     {"RULES-multi", "ACC-plus"}),
    ("nil_rhs", "initial X rules X -> nil formula X <= 1", {"RULE-nil", "COMPARE-<="}),
    ("labeled_nil", "initial X rules X -> stop -> nil formula EX(stop, X == 0)",
     {"RULE-labeled-nil", "COMPARE-==", "NUMBER-zero"}),
    ("unary_neg", "initial X rules X -> X formula Neg(X >= 2)", {"UNARY-Neg"}),
    ("unary_eg", "initial X rules X -> X formula EG(X >= 1)", {"UNARY-EG"}),
    ("unary_af", "initial X rules X -> X formula AF(X >= 1)", {"UNARY-AF"}),
    ("unary_ef", "initial X rules X -> X formula EF(X >= 1)", {"UNARY-EF"}),
    ("binary_conj", "initial X rules X -> X formula Conj(X >= 1, X <= 5)", {"BINARY-Conj"}),
    ("binary_disj", "initial X rules X -> X formula Disj(X < 1, X > 0)",
     {"BINARY-Disj", "COMPARE-<", "COMPARE->"}),
    ("binary_imp", "initial X rules X -> X formula Imp(X != 0, X >= 1)",
     {"BINARY-Imp", "COMPARE-!="}),
    ("coefficient", "initial X rules X -> X, X formula X * 2 >= 2", {"MULT-var-number"}),
    ("connect_minus", "initial X, Y rules X -> Y formula X - Y * 3 >= 0",
     {"ACC-minus", "CONNECT"}),
    ("nested_formula",
     "initial X rules X -> a -> X formula Neg(Conj(EG(EX(a, X >= 1)), EF(X * 2 - X >= 1)))",
     {"FORMULA-nested"}),
    ("zero_coefficient", "initial X rules X -> X formula X * 0 >= 0", {"NUMBER-zero-coeff"}),
    ("tau_label_explicit", "initial X rules X -> _tau -> X formula EX(_tau, X >= 1)",
     {"LABEL-tau"}),
]

# Rejected corpus: the reported position must point at the first offending
# token (line, column are 1-based).
REJECT_CORPUS = [
    ("missing_rules", "initial X\nformula EF(X >= 1)\n", 2, 1),
    ("empty_rules", "initial X rules formula EF(X >= 1)", 1, 17),
    ("keyword_as_var", "initial rules\nrules\nX -> X\nformula X >= 1\n", 1, 9),
    ("nil_as_initial", "initial nil rules X -> X formula X >= 1", 1, 9),
    ("missing_arrow", "initial X\nrules\nX Y\nformula X >= 1\n", 3, 3),
    ("undeclared_in_formula", "initial X\nrules\nX -> X\nformula\nY >= 1\n", 5, 1),
    ("undeclared_label", "initial X\nrules\nX -> a -> X\nformula\nEX(b, X >= 1)\n", 5, 4),
    ("bad_number", "initial X rules X -> X formula X >= 01", 1, 37),
    ("missing_bound", "initial X\nrules\nX -> X\nformula\nX >=\n", 6, 1),
    ("unbalanced_paren", "initial X\nrules\nX -> X\nformula\nEF(X >= 1\n", 6, 1),
    ("trailing_garbage", "initial X\nrules\nX -> X\nformula\nX >= 1 extra\n", 5, 8),
    ("number_as_symbol", "initial 5 rules X -> X formula X >= 1", 1, 9),
    ("missing_comma_arg", "initial X rules X -> a -> X formula EX(a X >= 1)", 1, 42),
    ("lonely_connect", "initial X\nrules\nX -> X\nformula\nX + >= 1\n", 5, 5),
    ("bad_char", "initial X rules X -> X formula X @ 1", 1, 34),
    # Numbers are ASCII decimals; str.isdigit also takes these, int() does not.
    ("superscript_bound", "initial X rules X -> X formula X >= \u00b2", 1, 37),
    ("circled_bound", "initial X rules X -> X formula X >= \u2460", 1, 37),
    ("superscript_after_digit", "initial X rules X -> X formula X >= 1\u00b2", 1, 38),
    ("tau_as_symbol", "initial _tau rules X -> X formula X >= 1", 1, 9),
    ("tau_prefix_label", "initial X rules X -> _tau2 -> X formula X >= 1", 1, 22),
    ("minus_before_arrow", "initial X rules X --> X formula X >= 1", 1, 19),
    # nil ends a rule even where a label could stand.
    ("nil_before_arrow", "initial X rules X -> nil -> X formula X >= 1", 1, 26),
    # Identifiers are ASCII: a superscript digit ends the name and is no token.
    ("superscript_in_name", "initial X\u00b2 rules X -> X formula X >= 1", 1, 10),
    # A comment takes no column: the end of input sits where it starts.
    ("end_after_comment", "initial X\nrules X -> X\nformula X >=  # no bound", 3, 15),
    # Coefficients only come after the symbol: NUMBER * VAR is not a term.
    ("number_times_var", "initial X rules X -> X formula 2 * X >= 2", 1, 32),
    # 101 nested operators: the error points at the one past the limit.
    ("nested_too_deep",
     "initial X rules X -> X formula " + "Neg(" * 100 + "EF(X >= 1" + ")" * 101, 1, 432),
]


class TestGrammarCorpus:
    @pytest.mark.parametrize("name,text,tags", ACCEPT_CORPUS, ids=[c[0] for c in ACCEPT_CORPUS])
    def test_accepted(self, name, text, tags):
        pf = parse_problem(text)
        assert pf.bpp.rules

    def test_every_production_covered(self):
        covered = set()
        for _, _, tags in ACCEPT_CORPUS:
            covered |= tags
        required = {
            "SYMBOLS-single", "SYMBOLS-list", "RULES-single", "RULES-multi",
            "RULE-unlabeled", "RULE-labeled", "RULE-nil", "RULE-labeled-nil",
            "UNARY-Neg", "UNARY-EG", "UNARY-AF", "UNARY-EF",
            "BINARY-Conj", "BINARY-Disj", "BINARY-Imp",
            "NEXT-EX", "NEXT-AX", "QUERY", "ACC-plus", "ACC-minus",
            "MULT-var", "MULT-var-number", "CONNECT", "LABEL", "LABEL-tau",
            "COMPARE-==", "COMPARE-!=", "COMPARE->=", "COMPARE-<=",
            "COMPARE->", "COMPARE-<",
            "NUMBER-zero", "NUMBER-zero-coeff", "initial-multiset",
            "FORMULA-nested",
        }
        assert required <= covered

    @pytest.mark.parametrize("name,text,line,col", REJECT_CORPUS, ids=[c[0] for c in REJECT_CORPUS])
    def test_rejected_at_position(self, name, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, err.value.column) == (line, col), err.value


# Printers for the round-trip tests: parsing a printed problem gives it back.


def atom_to_text(atom):
    if not atom.terms:
        raise ValueError("cannot print an atom with no terms")
    if atom.terms[0][1] < 0:
        raise ValueError("cannot print an atom whose first coefficient is negative")
    parts = []
    for i, (sym, coeff) in enumerate(atom.terms):
        mag = abs(coeff)
        mult = sym if mag == 1 else f"{sym} * {mag}"
        if i == 0:
            parts.append(mult)
        else:
            parts.append(("+ " if coeff >= 0 else "- ") + mult)
    spelling = next(tok for tok, cmp in CMP_TOKENS.items() if cmp is atom.cmp)
    return " ".join(parts) + f" {spelling} {atom.bound}"


def formula_to_text(f):
    if isinstance(f, Atom):
        return atom_to_text(f.atom)
    if isinstance(f, Not):
        return f"Neg({formula_to_text(f.sub)})"
    if isinstance(f, And):
        return f"Conj({formula_to_text(f.left)}, {formula_to_text(f.right)})"
    if isinstance(f, ENext):
        return f"EX({f.action}, {formula_to_text(f.sub)})"
    if isinstance(f, EG):
        return f"EG({formula_to_text(f.sub)})"
    if isinstance(f, EF):
        return f"EF({formula_to_text(f.sub)})"
    raise TypeError(f"not a formula node: {f!r}")


def problem_to_text(pf):
    if sum(pf.initial) == 0:
        raise ValueError("cannot print an empty initial expression")
    initial_syms = []
    for sym, count in zip(pf.bpp.symbols, pf.initial):
        initial_syms.extend([sym] * count)
    lines = ["initial", ", ".join(initial_syms), "rules"]
    for rule in pf.bpp.rules:
        rhs = ", ".join(rule.rhs) if rule.rhs else "nil"
        if rule.action == TAU:
            lines.append(f"{rule.lhs} -> {rhs}")
        else:
            lines.append(f"{rule.lhs} -> {rule.action} -> {rhs}")
    lines.append("formula")
    lines.append(formula_to_text(pf.formula))
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    CASES = [LABELED, UNLABELED] + [text for _, text, _ in ACCEPT_CORPUS]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_identity(self, text):
        pf = parse_problem(text)
        printed = problem_to_text(pf)
        assert parse_problem(printed) == pf

    def test_formula_text_examples(self):
        pf = parse_problem(LABELED)
        assert formula_to_text(pf.formula) == "EG(EX(a, Y + Z >= 2))"

    def test_atom_rendering(self):
        atom = LinearAtom((("X", 2), ("Y", -1)), Cmp.LT, 7)
        assert atom_to_text(atom) == "X * 2 - Y < 7"

    @pytest.mark.parametrize("text", CASES)
    def test_parsed_formulas_are_core(self, text):
        formula = parse_problem(text).formula
        assert all(type(g) in (Atom, Not, And, ENext, EG, EF) for g in walk(formula))


class TestDerivedOperators:
    """Each derived operator parses to the tree of its core spelling."""

    @pytest.mark.parametrize("derived, core", [
        ("Disj(X >= 1, X <= 5)", "Neg(Conj(Neg(X >= 1), Neg(X <= 5)))"),
        ("Imp(X >= 1, X <= 5)", "Neg(Conj(X >= 1, Neg(X <= 5)))"),
        ("AX(go, X >= 1)", "Neg(EX(go, Neg(X >= 1)))"),
        ("AF(X >= 1)", "Neg(EG(Neg(X >= 1)))"),
    ], ids=["Disj", "Imp", "AX", "AF"])
    def test_same_tree_as_core_spelling(self, derived, core):
        head = "initial X rules X -> go -> X formula "
        pf = parse_problem(head + derived)
        assert pf == parse_problem(head + core)
        assert formula_to_text(pf.formula) == core


ACS_TEXT = """\
# one message bouncing between two states
states q0, q1
procs p
msgs m
rules
q0 -> p!m -> q1
q1 -> p?m -> q0
init q0:1
"""


class TestAcsParsing:
    def test_case_study_file(self):
        acs, place = parse_acs(ACS_TEXT)
        assert acs.states == ("q0", "q1")
        assert acs.procs == ("p",)
        assert acs.msgs == ("m",)
        assert len(acs.rules) == 2
        assert acs.rules[0].op == Send("p", "m")
        assert acs.rules[1].op == Recv("p", "m")
        assert place == AcsPlace((1, 0), (0,))

    def test_all_rule_kinds(self):
        text = """\
states a, b
procs w
msgs m
rules
a -> nop -> b
a -> new b -> a
b -> w!m -> a
b -> w?m -> b
init a:2, (w,m):1
"""
        acs, place = parse_acs(text)
        assert acs.rules[0].op == Nop()
        assert acs.rules[1].op == Spawn("b")
        assert place == AcsPlace((2, 0), (1,))

    def test_missing_init_section(self):
        text = "states q0\nrules\nq0 -> nop -> q0\n"
        with pytest.raises(ParseError) as err:
            parse_acs(text)
        assert err.value.expected == "'init'"

    def test_undeclared_spawn_target(self):
        text = "states q\nrules\nq -> new q2 -> q\ninit q:1\n"
        with pytest.raises(ParseError) as err:
            parse_acs(text)
        assert (err.value.line, err.value.column) == (3, 10)
        assert "state" in err.value.expected

    def test_duplicate_init_entry(self):
        text = "states q\nrules\nq -> nop -> q\ninit q:1, q:2\n"
        with pytest.raises(ParseError):
            parse_acs(text)

    def test_no_procs_section(self):
        text = "states q\nrules\nq -> nop -> q\ninit q:1\n"
        acs, place = parse_acs(text)
        assert acs.procs == ()
        assert place == AcsPlace((1,), ())


class TestPropertyParsing:
    def fixture_cb(self):
        acs, _ = parse_acs(ACS_TEXT)
        return convert(acs)

    def test_state_property(self):
        cb = self.fixture_cb()
        f = parse_property("EF(q0 >= 2)", cb)
        assert f == EF(Atom(LinearAtom((("q0", 1),), Cmp.GE, 2)))

    def test_mail_property(self):
        cb = self.fixture_cb()
        f = parse_property("EF(mail(p, m) >= 2)", cb)
        assert f == EF(Atom(LinearAtom((("p_m_in", 1), ("p_m_out", -1)), Cmp.GE, 2)))

    def test_direct_in_out_reference(self):
        cb = self.fixture_cb()
        f = parse_property("EF(p_m_in - p_m_out >= 0)", cb)
        assert f == EF(Atom(LinearAtom((("p_m_in", 1), ("p_m_out", -1)), Cmp.GE, 0)))

    def test_tau_next_over_converted_system(self):
        cb = self.fixture_cb()
        f = parse_property("EG(EX(_tau, q0 >= 1))", cb)
        assert f == EG(ENext(TAU, Atom(LinearAtom((("q0", 1),), Cmp.GE, 1))))

    def test_unknown_name_rejected_with_position(self):
        cb = self.fixture_cb()
        with pytest.raises(ParseError) as err:
            parse_property("EF(nope >= 1)", cb)
        assert (err.value.line, err.value.column) == (1, 4)

    def test_unknown_mailbox_slot(self):
        cb = self.fixture_cb()
        with pytest.raises(ParseError):
            parse_property("EF(mail(p, nope) >= 1)", cb)

    def test_nesting_limit(self):
        cb = self.fixture_cb()
        at_limit = "Neg(" * (MAX_FORMULA_DEPTH - 1) + "EF(q0 >= 1" + ")" * MAX_FORMULA_DEPTH
        parse_property(at_limit, cb)
        with pytest.raises(ParseError) as err:
            parse_property("Neg(" + at_limit + ")", cb)
        assert (err.value.line, err.value.column) == (1, 4 * MAX_FORMULA_DEPTH + 1)
        assert err.value.expected == "a formula nested at most 100 operators deep"
        assert err.value.found == "EF"


_ACS_HEAD = "states q\nprocs p\nmsgs m\nrules\n"
_ACS_RULE = _ACS_HEAD + "q -> nop -> q\n"

#: One input per error site of the actor-system parser and of the linear
#: atom parser, as (name, front end, text, line, column, expected).
#: Properties are parsed over the converted ACS_TEXT system.
FRONT_END_REJECT_CORPUS = [
    ("acs_distinct_states", "acs", "states q, q\nrules\nq -> nop -> q\ninit q:1\n",
     1, 1, "distinct declarations"),
    ("acs_state_name_tau", "acs", "states _tau\nrules\n_tau -> nop -> _tau\ninit _tau:1\n",
     1, 8, "a state name"),
    ("acs_state_name_tau_prefixed", "acs",
     "states q_1, _taux\nrules\nq_1 -> nop -> _taux\ninit q_1:1\n", 1, 13, "a state name"),
    ("acs_no_rules", "acs", _ACS_HEAD + "init q:1\n", 5, 1, "a rule"),
    ("acs_init_undeclared_process", "acs", _ACS_RULE + "init (r, m):1\n",
     6, 7, "a declared process"),
    ("acs_init_undeclared_message", "acs", _ACS_RULE + "init (p, x):1\n",
     6, 10, "a declared message"),
    ("acs_init_duplicate_pair", "acs", _ACS_RULE + "init (p, m):1, (p, m):2\n",
     6, 17, "a fresh init entry"),
    ("acs_init_undeclared_state", "acs", _ACS_RULE + "init r:1\n", 6, 6, "a declared state"),
    ("acs_init_duplicate_state", "acs", _ACS_RULE + "init q:1, q:2\n",
     6, 11, "a fresh init entry"),
    ("acs_init_bad_entry", "acs", _ACS_RULE + "init 5\n", 6, 6, "an init entry"),
    ("acs_trailing_garbage", "acs", _ACS_RULE + "init q:1 extra\n", 6, 10, "end of input"),
    ("acs_init_superscript_count", "acs", _ACS_RULE + "init q:\u00b2\n", 6, 8, "a token"),
    ("acs_rule_undeclared_source", "acs", _ACS_HEAD + "r -> nop -> q\ninit q:1\n",
     5, 1, "a declared state"),
    ("acs_rule_missing_operation", "acs", _ACS_HEAD + "q -> 5 -> q\ninit q:1\n",
     5, 6, "an operation (nop, new, p!m, p?m)"),
    ("acs_rule_undeclared_spawn", "acs", _ACS_HEAD + "q -> new r -> q\ninit q:1\n",
     5, 10, "a declared state"),
    ("acs_rule_undeclared_process", "acs", _ACS_HEAD + "q -> r!m -> q\ninit q:1\n",
     5, 6, "a declared process"),
    ("acs_rule_tau_process", "acs", _ACS_HEAD + "q -> _tau!m -> q\ninit q:1\n",
     5, 6, "a declared process"),
    ("acs_rule_missing_direction", "acs", _ACS_HEAD + "q -> p m -> q\ninit q:1\n",
     5, 8, "'!' or '?'"),
    ("acs_rule_undeclared_message", "acs", _ACS_HEAD + "q -> p?x -> q\ninit q:1\n",
     5, 8, "a declared message"),
    ("acs_rule_undeclared_destination", "acs", _ACS_HEAD + "q -> nop -> r\ninit q:1\n",
     5, 13, "a declared state"),
    ("property_number_term", "property", "EF(2 >= 1)",
     1, 4, "a state, symbol, or mail(p, m) term"),
    ("property_keyword_term", "property", "EF(q0 + nil >= 1)",
     1, 9, "a state, symbol, or mail(p, m) term"),
    ("property_undeclared_name", "property", "EF(q0 - nope >= 1)",
     1, 9, "a declared state or converted symbol"),
    ("property_undeclared_mailbox", "property", "EF(mail(p, nope) >= 1)",
     1, 9, "a declared mailbox slot"),
    ("property_mail_tau_process", "property", "EF(mail(_tau, m) >= 1)",
     1, 9, "a declared process"),
    ("property_mail_number_message", "property", "EF(mail(p, 5) >= 1)",
     1, 12, "a declared message"),
    ("property_missing_comparison", "property", "EF(q0 * 2 1)", 1, 11, "a comparison operator"),
    ("property_missing_bound", "property", "EF(q0 >= q1)", 1, 10, "a number"),
    ("property_trailing_garbage", "property", "EF(q0 >= 1) q1", 1, 13, "end of input"),
    ("property_circled_bound", "property", "EF(q0 >= \u2460)", 1, 10, "a token"),
    ("problem_number_term", "problem", "initial X rules X -> X formula X + 1 >= 1",
     1, 36, "a symbol name"),
    ("problem_undeclared_term", "problem", "initial X rules X -> X formula X - Y >= 1",
     1, 36, "a declared symbol"),
    ("problem_missing_comparison", "problem", "initial X rules X -> X formula X * 2 1",
     1, 38, "a comparison operator"),
    ("problem_superscript_coefficient", "problem",
     "initial X rules X -> X formula X * \u00b2 >= 1", 1, 36, "a token"),
]


@pytest.mark.parametrize("name,front,text,line,col,expected", FRONT_END_REJECT_CORPUS,
                         ids=[c[0] for c in FRONT_END_REJECT_CORPUS])
def test_front_end_rejects_at_position(name, front, text, line, col, expected):
    with pytest.raises(ParseError) as err:
        if front == "acs":
            parse_acs(text)
        elif front == "property":
            parse_property(text, convert(parse_acs(ACS_TEXT)[0]))
        else:
            parse_problem(text)
    assert (err.value.line, err.value.column, err.value.expected) == (line, col, expected)


class TestRandomRoundTrip:
    def test_generated_problems_round_trip(self):
        rng = random.Random(606)
        from .conftest import random_bpp

        for _ in range(100):
            bpp = random_bpp(rng, max_symbols=4, max_rules=5, max_rhs=2)
            # The surface syntax declares symbols by occurrence, so give
            # every otherwise-unmentioned symbol a token in the initial
            # expression, then canonicalize once through print+parse. The
            # round-trip property is asserted on the canonical file.
            mentioned = {r.lhs for r in bpp.rules} | {s for r in bpp.rules for s in r.rhs}
            init = [rng.randint(0, 2) for _ in bpp.symbols]
            for i, sym in enumerate(bpp.symbols):
                if sym not in mentioned and init[i] == 0:
                    init[i] = 1
            if sum(init) == 0:
                init[0] = 1
            f = EF(Atom(LinearAtom(((bpp.symbols[0], rng.randint(1, 3)),), Cmp.GE, 1)))
            seed_pf = ProblemFile(bpp=bpp, initial=tuple(init), formula=f)
            canonical = parse_problem(problem_to_text(seed_pf))
            assert parse_problem(problem_to_text(canonical)) == canonical


#: The grammar's punctuation, digits and letters, plus characters that
#: str.isdigit, str.isalpha or a decoder treat specially.
_MUTATION_ALPHABET = "->=!<>(),*+:?#_ \n0123456789aqmpXYZS\u00b2\u2460\u00e9\x00\ufeff"


def _mutate(rng: random.Random, text: str) -> str:
    """One to three random insertions, replacements and deletions."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        i = rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(i, rng.choice(_MUTATION_ALPHABET))
        elif op == 1:
            chars[min(i, len(chars) - 1)] = rng.choice(_MUTATION_ALPHABET)
        else:
            del chars[min(i, len(chars) - 1)]
    return "".join(chars)


def test_mutated_inputs_raise_only_package_errors():
    """A seeded mutation fuzz of the three front ends: whatever the input,
    only a BppCheckError (a parse error, exit 3) may escape."""
    cb = convert(parse_acs(ACS_TEXT)[0])

    def acs_front(text):
        acs, place = parse_acs(text)
        convert_place(convert(acs), place)

    fronts = [
        ([LABELED, UNLABELED] + [text for _, text, _ in ACCEPT_CORPUS], parse_problem),
        ([ACS_TEXT], acs_front),
        (["EF(q0 >= 2)", "AF(mail(p, m) == 0)",
          "EX(_tau, Conj(q1 > 0, Neg(q0 * 2 - p_m_in <= 1)))"],
         lambda text: parse_property(text, cb)),
    ]
    rng = random.Random(2024)
    for seeds, parse in fronts:
        for _ in range(3000):
            text = _mutate(rng, rng.choice(seeds))
            try:
                parse(text)
            except BppCheckError:
                pass
            except Exception as err:
                pytest.fail(f"{type(err).__name__}: {err} on {text!r}")
