"""Solver back-end: formula terms, script serialization, process driver.

This module holds what every check needs, whether or not it makes a
script: the solver config and how it is resolved, the verdict record, and
the solver's share of a verdict's counters. Every other name comes from
``terms``, ``script`` or ``runner`` at its first use (PEP 562
``__getattr__``), so a check that makes no script compiles none of them.
"""

from __future__ import annotations

import os
import shutil
import sys
from typing import TYPE_CHECKING

from ..errors import SolverNotFound
from ..record import Record, setfield

if TYPE_CHECKING:
    from .runner import SolverOutcome

ENV_SOLVER = "BPPCHECK_SOLVER"

#: The bundled solver's command line. A config with this command solves in
#: process; ``python -m bppcheck.refsolver`` serves the same text over a pipe.
BUNDLED_COMMAND = (sys.executable, "-m", "bppcheck.refsolver")

#: The submodule each name of the back end comes from at its first use.
_LAZY = {
    **dict.fromkeys(("FALSE", "TRUE", "AndF", "BoolConst", "Exists", "Lin", "Node", "NotF",
                     "OrF", "conj", "disj", "eval_node", "exists", "free_vars",
                     "has_quantifier", "lin", "neg", "to_sexpr"), "terms"),
    **dict.fromkeys(("QF_LOGIC", "QUANTIFIED_LOGIC", "SmtScript", "to_smtlib"), "script"),
    **dict.fromkeys(("SolverOutcome", "parse_info", "parse_model", "run_solver"), "runner"),
}


__all__ = ["BUNDLED_COMMAND", "ENV_SOLVER", "SolverConfig", "Verdict", "default_solver_command",
           "resolve_solver", "solver_stats", *_LAZY]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # An import statement's machinery, unlike importlib.import_module, shows
    # the submodule under -X importtime.
    value = getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


class SolverConfig(Record):
    __slots__ = __match_args__ = ("command", "timeout_s")

    def __init__(self, command: tuple[str, ...], timeout_s: float = 60.0):
        setfield(self, "command", command)
        setfield(self, "timeout_s", timeout_s)


class Verdict(Record):
    """Decoded check result: what holds, which engine said so, and how."""

    __slots__ = __match_args__ = ("result", "engine", "k", "witness", "stats")

    def __init__(self, result: str, engine: str, k: int | None = None,
                 witness: dict[str, int] | None = None,
                 stats: dict[str, int | float | str] | None = None):
        setfield(self, "result", result)  # holds | not-holds | unknown
        setfield(self, "engine", engine)  # ef | eg-bounded
        setfield(self, "k", k)
        setfield(self, "witness", witness)
        setfield(self, "stats", {} if stats is None else stats)


def default_solver_command() -> tuple[str, ...]:
    if shutil.which("z3"):
        return ("z3", "-in", "-smt2")
    return BUNDLED_COMMAND


def resolve_solver(command_line: str | None = None, timeout_s: float = 60.0) -> SolverConfig:
    """Build a solver config from an explicit command line, the
    BPPCHECK_SOLVER environment variable, or the built-in default."""
    source = command_line or os.environ.get(ENV_SOLVER)
    if source:
        import shlex

        command = tuple(shlex.split(source))
        if not command:
            raise SolverNotFound(source)
    else:
        command = default_solver_command()
    return SolverConfig(command, timeout_s)


def solver_stats(outcomes: list[SolverOutcome]) -> dict[str, int | float | str]:
    """The solver's share of ``Verdict.stats`` over one check's calls.

    ``solver_ms`` sums the solving times the solver reports and
    ``solver_wall_ms`` the calls' wall times (the whole call in process for
    the bundled solver, spawn to exit for a child), both rounded to three
    places as the report's ``time_ms`` is; the integer statistics are
    summed as ``solver_<name>``.
    """
    stats: dict[str, int | float | str] = {
        "solver_ms": round(sum(o.solve_ms for o in outcomes), 3),
        "solver_wall_ms": round(sum(o.wall_ms for o in outcomes), 3),
        "solver_calls": len(outcomes),
    }
    for outcome in outcomes:
        for name, value in outcome.statistics.items():
            if isinstance(value, int):
                key = "solver_" + name.replace("-", "_")
                stats[key] = stats.get(key, 0) + value
    return stats
