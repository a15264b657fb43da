"""Branching-time formulas over symbol-count atoms.

Every formula is built from six node types: Atom (an integer-linear
constraint over symbol counts), Not, And, ENext (E<a>), EG and EF. The
derived connectives Or, Imp, ANext (A<a>) and AF are constructors that
return their core definitions, so no other node type exists. ``check``
decides a formula: ``evaluate`` evaluates everything above the first EG or
EF at concrete markings and hands each such node to its engine.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterator, Union

from .core import COMPARE, Bpp, Marking, successors
from .errors import MixedFormula, UnknownSymbol
from .record import Record

if TYPE_CHECKING:  # the solver back end is imported where a check starts and solves
    from .smt import SmtScript, SolverConfig, SolverOutcome, Verdict


class Cmp(enum.Enum):
    """A comparison, valued by its SMT-LIB spelling (a key of ``core.COMPARE``)."""

    GE = ">="
    LE = "<="
    GT = ">"
    LT = "<"
    EQ = "="
    NE = "!="


class LinearAtom(Record):
    """Constraint  sum(coeff * count(symbol))  cmp  bound."""

    __slots__ = __match_args__ = ("terms", "cmp", "bound")

    def evaluate(self, m: Marking, bpp: Bpp) -> bool:
        total = 0
        for sym, c in self.terms:
            try:
                total += c * m[bpp.index[sym]]
            except KeyError:
                raise UnknownSymbol(sym) from None
        return COMPARE[self.cmp.value](total, self.bound)


class Atom(Record):
    __slots__ = __match_args__ = ("atom",)


class _Unary(Record):
    __slots__ = __match_args__ = ("sub",)


# Not, EG and EF share the one-child shape; equality tells the types apart
# (EG(p) != EF(p)).
class Not(_Unary):
    __slots__ = ()


class And(Record):
    __slots__ = __match_args__ = ("left", "right")


class ENext(Record):
    __slots__ = __match_args__ = ("action", "sub")


class EG(_Unary):
    __slots__ = ()


class EF(_Unary):
    __slots__ = ()


Formula = Union[Atom, Not, And, ENext, EG, EF]


# The derived connectives build their core definitions.
def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Imp(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def ANext(action: str, sub: Formula) -> Formula:
    return Not(ENext(action, Not(sub)))


def AF(sub: Formula) -> Formula:
    return Not(EG(Not(sub)))


class FormulaClass(enum.Enum):
    EF_CLASS = "ef"
    EG_CLASS = "eg"
    MIXED = "mixed"


def desugar(f: Formula) -> Formula:
    """The identity, since every formula is core. The benchmark's traced
    pipeline (clibench/trace.py) still calls it; nothing in the package does."""
    return f


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (Not, ENext, EG, EF)):
        yield from walk(f.sub)
    elif isinstance(f, And):
        yield from walk(f.left)
        yield from walk(f.right)


def atoms_only(f: Formula) -> bool:
    """True when f is a propositional combination of atoms."""
    return all(isinstance(g, (Atom, Not, And)) for g in walk(f))


def contains_ef(f: Formula) -> bool:
    return any(isinstance(g, EF) for g in walk(f))


def classify(f: Formula) -> FormulaClass:
    """What no engine compiles, and else the engine a verdict names.

    MIXED: an EF body that is not propositional over atoms, or an EG body
    with an EF in it. EF_CLASS: no EG or E<a> anywhere, so the EF nodes
    decide the formula exactly at every bound. EG_CLASS: anything else,
    decided under the k-step semantics."""
    nodes = list(walk(f))
    if any(isinstance(g, EF) and not atoms_only(g.sub) or isinstance(g, EG) and contains_ef(g.sub)
           for g in nodes):
        return FormulaClass.MIXED
    if any(isinstance(g, (EG, ENext)) for g in nodes):
        return FormulaClass.EG_CLASS
    return FormulaClass.EF_CLASS


def eval_atomic(atom: LinearAtom, m: Marking, bpp: Bpp) -> bool:
    """Truth of one linear atom at a concrete marking."""
    bpp.check_marking(m)
    return atom.evaluate(m, bpp)


def evaluate(f: Formula, m: Marking, bpp: Bpp, k: int,
             decide: Callable[[Formula, Marking], bool | None] | None = None,
             memo: dict | None = None) -> bool | None:
    """Three-valued truth (None: unknown) of f at the concrete marking m
    under the k-step semantics. Atoms, Not and And (both operands, always)
    are evaluated at m; E<a> looks at the a-successors of m and is false at
    k < 1; each EG or EF node goes to ``decide(node, m)``. The memo, keyed
    on (id(f), m), keeps a marking that several paths reach from being
    visited, or a node decided, more than once."""
    if memo is None:
        memo = {}
    key = (id(f), m)
    if key in memo:
        return memo[key]
    if isinstance(f, Atom):
        value = f.atom.evaluate(m, bpp)
    elif isinstance(f, Not):
        sub = evaluate(f.sub, m, bpp, k, decide, memo)
        value = None if sub is None else not sub
    elif isinstance(f, And):
        both = (evaluate(f.left, m, bpp, k, decide, memo),
                evaluate(f.right, m, bpp, k, decide, memo))
        value = False if False in both else (None if None in both else True)
    elif isinstance(f, ENext):
        value = False
        for action, t in successors(m, bpp) if k >= 1 else ():
            if action == f.action:
                sub = evaluate(f.sub, t, bpp, k, decide, memo)
                if sub:
                    value = True
                    break
                if sub is None:
                    value = None
    else:
        value = decide(f, m)
    memo[key] = value
    return value


class CheckRun:
    """What one ``check`` shares with the engines that decide its nodes:
    the system, the bound, one deadline (a ``time.perf_counter()`` value)
    and every solver call, the counters the verdict reports (engines add
    to them), and the witness of the first node that holds and the reason
    of the first that is unknown."""

    def __init__(self, bpp: Bpp, k: int, config: SolverConfig, on_script: Callable | None):
        self.bpp, self.k = bpp, k
        self.deadline = time.perf_counter() + config.timeout_s
        self.counts: Counter[str] = Counter()
        self.outcomes: list = []
        self.witness: dict | None = None
        self.lasso: list | None = None
        self.reason: str | None = None
        self._command, self._on_script = config.command, on_script

    def left(self) -> float:
        """Seconds left before the deadline."""
        return self.deadline - time.perf_counter()

    def solve(self, script: SmtScript) -> SolverOutcome:
        """One solver call, with the time left before the deadline. The
        runner is loaded here, at a check's first call."""
        from . import smt

        if self._on_script is not None:
            self._on_script(script)
        config = smt.SolverConfig(self._command, self.left())
        self.outcomes.append(smt.run_solver(script, config))
        return self.outcomes[-1]

    def holds(self, witness: dict, lasso: list | None = None) -> bool:
        if self.witness is None:
            self.witness, self.lasso = witness, lasso
        return True

    def unknown(self, reason: str | None) -> None:
        self.reason = self.reason or reason or "unreported"


def check(bpp: Bpp, init: Marking, f: Formula, k: int, config: SolverConfig,
          on_script: Callable[[SmtScript], None] | None = None) -> Verdict:
    """The verdict of f at the initial marking under the k-step semantics.

    ``classify`` rejects what no engine compiles (MixedFormula) and names
    the engine the verdict reports: ``ef`` (k null) for a formula with no
    EG or E<a>, else ``eg-bounded``. ``evaluate`` hands each EF node it
    meets, at its concrete marking, to ``ef.decide`` (lazy siphon
    refinement, exact) and each EG node to ``lasso.decide`` (the lasso
    window, then the k-step unrolling of ``eg``); each engine is imported
    where evaluation first reaches one of its nodes. Every node shares the
    config's timeout from the start of the check: each solver call gets
    what is left, and a node that runs out of it is unknown with reason
    ``timeout``. The witness is that of the first node that holds, in
    evaluation order: an EF model of x and y counts, or an EG path
    u0..uk (a pumped lasso has its loop in ``stats["lasso"]``); None when
    none holds."""
    cls = classify(f)
    if cls is FormulaClass.MIXED:
        raise MixedFormula("an EF body with EF, EG or E<a> in it, or an EG body with EF in "
                           "it: no engine decides it exactly")
    bpp.check_marking(init)
    if k < 0:
        raise ValueError("k must be >= 0")
    from . import smt

    run = CheckRun(bpp, k, config, on_script)

    def decide(node: Formula, m: Marking) -> bool | None:
        if isinstance(node, EF):
            from .ef import decide as engine
        else:
            from .lasso import decide as engine
        return engine(run, node, m)

    value = evaluate(f, tuple(init), bpp, k, decide)
    counts = run.counts
    # Every EF node's flow declares the same x and y names, so they count once.
    stats = {"n_vars": counts["flow_vars"] + counts["eg_vars"], "n_asserts": counts["n_asserts"]}
    if cls is FormulaClass.EF_CLASS or contains_ef(f):
        stats["ef_rounds"] = counts["ef_rounds"]
    stats.update(smt.solver_stats(run.outcomes))
    if cls is FormulaClass.EG_CLASS:
        stats.update(
            path_vars_declared=counts["path_vars_declared"],
            path_vars_total=counts["path_vars_total"],
            target_vars=counts["target_vars"],
            bound="unbounded" if 0 < counts["eg_nodes"] == counts["lasso_nodes"] else k,
        )
        if run.lasso is not None:
            stats["lasso"] = run.lasso
    if value is None:
        stats["reason_unknown"] = run.reason
    result = "unknown" if value is None else ("holds" if value else "not-holds")
    engine, bound = ("ef", None) if cls is FormulaClass.EF_CLASS else ("eg-bounded", k)
    return smt.Verdict(result=result, engine=engine, k=bound, witness=run.witness, stats=stats)
