"""End-to-end fuzz of the command line: problem files written from the whole
surface grammar go through ``cli.main`` in process. No exception may
escape, the exit code must match the JSON report, a formula no engine
compiles (``classify`` says MIXED) must be rejected with exit 3, and a
decided verdict must agree with the explicit-state oracles wherever they
are definite: EF nodes beside EG and E<a> included."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bppcheck import cli
from bppcheck.core import TAU
from bppcheck.ctl import (
    AF,
    EF,
    EG,
    And,
    ANext,
    Atom,
    Cmp,
    ENext,
    FormulaClass,
    Imp,
    LinearAtom,
    Not,
    Or,
    classify,
    eval_atomic,
)
from bppcheck.oracle import ExplorationBudget, check_ef_oracle, eval_bounded
from bppcheck.parsing import CMP_TOKENS, parse_problem

SYMBOLS = ("X", "Y", "Z")
UNARY = {"Neg": Not, "EG": EG, "AF": AF, "EF": EF}
BINARY = {"Conj": And, "Disj": Or, "Imp": Imp}
NEXT = {"EX": ENext, "AX": ANext}
OPERATORS = ("atom",) + tuple(UNARY) + tuple(BINARY) + tuple(NEXT)
EXIT_OF = {"holds": 0, "not-holds": 1, "unknown": 2}
BUDGET = ExplorationBudget(max_states=2_000)


def _term(sym, magnitude):
    return sym if magnitude == 1 else f"{sym} * {magnitude}"


@st.composite
def atoms(draw, symbols):
    """An atom's text and the atom it parses to; repeated symbols and zero
    coefficients included."""
    terms = draw(st.lists(st.tuples(st.sampled_from(symbols), st.integers(-2, 2)),
                          min_size=1, max_size=3))
    terms[0] = (terms[0][0], abs(terms[0][1]))  # the first term has no sign
    cmp = draw(st.sampled_from(list(Cmp)))
    bound = draw(st.integers(0, 3))
    text = _term(*terms[0]) + "".join(
        (" + " if c >= 0 else " - ") + _term(sym, abs(c)) for sym, c in terms[1:]
    )
    spelling = next(tok for tok, c in CMP_TOKENS.items() if c is cmp)
    return f"{text} {spelling} {bound}", Atom(LinearAtom(tuple(terms), cmp, bound))


@st.composite
def formulas(draw, symbols, actions, depth):
    """A formula's text and the tree it parses to, at most depth operators deep."""
    op = draw(st.sampled_from(OPERATORS if depth else ("atom",)))
    if op == "atom":
        return draw(atoms(symbols))
    sub = formulas(symbols, actions, depth - 1)
    if op in UNARY:
        text, tree = draw(sub)
        return f"{op}({text})", UNARY[op](tree)
    if op in BINARY:
        (left_text, left), (right_text, right) = draw(sub), draw(sub)
        return f"{op}({left_text}, {right_text})", BINARY[op](left, right)
    action = draw(st.sampled_from(actions))
    text, tree = draw(sub)
    return f"{op}({action}, {text})", NEXT[op](action, tree)


@st.composite
def problems(draw):
    """A problem file's text, the formula it states, and a step bound."""
    symbols = SYMBOLS[: draw(st.integers(1, 3))]
    initial = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=3))
    rules = draw(st.lists(
        st.tuples(st.sampled_from(symbols), st.sampled_from(("a", "b", TAU, None)),
                  st.lists(st.sampled_from(symbols), max_size=2)),
        min_size=1, max_size=4,
    ))
    lines = ["initial", ", ".join(initial), "rules"]
    for lhs, label, rhs in rules:
        right = ", ".join(rhs) or "nil"
        lines.append(f"{lhs} -> {right}" if label is None else f"{lhs} -> {label} -> {right}")
    declared = sorted(set(initial) | {s for lhs, _, rhs in rules for s in (lhs, *rhs)})
    actions = sorted({TAU if label is None else label for _, label, _ in rules})
    text, formula = draw(formulas(declared, actions, draw(st.integers(0, 3))))
    lines += ["formula", text]
    return "\n".join(lines) + "\n", formula, draw(st.integers(0, 6))


def ef_oracle(f, bpp, init):
    """Three-valued truth of an EF-class formula, with one explicit
    reachability search per EF node; None where a search hit its budget."""
    if isinstance(f, Atom):
        return eval_atomic(f.atom, init, bpp)
    if isinstance(f, Not):
        sub = ef_oracle(f.sub, bpp, init)
        return None if sub is None else not sub
    if isinstance(f, And):
        left, right = ef_oracle(f.left, bpp, init), ef_oracle(f.right, bpp, init)
        if left is False or right is False:
            return False
        return None if left is None or right is None else True
    return check_ef_oracle(bpp, init, f.sub, BUDGET).value


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_cli_agrees_with_the_oracles(problem):
    text, formula, k = problem
    pf = parse_problem(text)
    assert pf.formula == formula
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.bpp"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path), "-k", str(k), "--format", "json", "--timeout", "2"])
    assert "Traceback" not in err.getvalue()
    cls = classify(formula)
    if cls == FormulaClass.MIXED:
        assert code == 3, (text, err.getvalue())
        return
    assert code in EXIT_OF.values(), (text, code, err.getvalue())
    payload = json.loads(out.getvalue())
    result = payload["result"]
    assert EXIT_OF[result] == code
    if payload["engine"] == "eg-bounded":
        # A witness is the path u0..uk of an EG node that holds, the model
        # of an EF node that holds (x and y counts), or null.
        path = {f"u{j}_{sym}" for j in range(k + 1) for sym in pf.bpp.symbols}
        model = {f"x_{sym}" for sym in pf.bpp.symbols} | {f"y_{r.rid + 1}" for r in pf.bpp.rules}
        witness = payload["witness"]
        assert witness is None or path <= witness.keys() or model <= witness.keys(), text
    if result == "unknown":
        return
    if cls == FormulaClass.EF_CLASS:
        expected = ef_oracle(formula, pf.bpp, pf.initial)
    else:
        expected = eval_bounded(formula, pf.initial, k, pf.bpp, BUDGET).value
    if expected is not None:
        assert (result == "holds") == expected, (text, k, result)
