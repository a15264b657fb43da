"""Hand a script to the SMT solver and decode what came back.

The one boundary is SMT-LIB2 text: the script's bytes go in, the solver's
printed answer comes out, and the same code decodes it. The default solver
is ``z3 -in -smt2`` when a z3 binary is on PATH, otherwise the bundled
pure-Python reference solver (``BUNDLED_COMMAND``). The bundled solver gets
the text in this process, through ``refsolver.solve_text``, and stops
itself at the timeout; any other command runs as a child process that gets
the text on stdin and is killed at the timeout plus ``KILL_GRACE_S``.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from ..errors import (
    MissingBinding,
    NonIntegerBinding,
    SolverCrashed,
    SolverNotFound,
    SolverProtocolError,
)
from ..record import Record, setfield
from ..sexpr import parse_all
from .script import SmtScript

#: Extra time a child gets to die after its budget, before we report anyway.
KILL_GRACE_S = 2.0

#: The longest a child is waited for, whatever the timeout: ``subprocess``
#: waits through ``poll``, whose timeout is a C int of milliseconds (about
#: 24.8 days), and raises OverflowError past it.
MAX_WAIT_S = 1e6

ENV_SOLVER = "BPPCHECK_SOLVER"

#: The bundled solver's command line. A config with this command solves in
#: process; ``python -m bppcheck.refsolver`` serves the same text over a pipe.
BUNDLED_COMMAND = (sys.executable, "-m", "bppcheck.refsolver")


class SolverConfig(Record):
    __slots__ = __match_args__ = ("command", "timeout_s")

    def __init__(self, command: tuple[str, ...], timeout_s: float = 60.0):
        setfield(self, "command", command)
        setfield(self, "timeout_s", timeout_s)


class SolverOutcome(Record):
    """One solver call: verdict, model, the call's wall time (in process for
    the bundled solver, spawn to exit for a child), and what the solver said
    about itself through get-info."""

    __slots__ = __match_args__ = ("status", "model", "wall_ms", "reason_unknown", "statistics")

    def __init__(self, status: str, model: dict[str, int] | None, wall_ms: float,
                 reason_unknown: str | None = None,
                 statistics: dict[str, int | float] | None = None):
        setfield(self, "status", status)  # sat | unsat | unknown
        setfield(self, "model", model)
        setfield(self, "wall_ms", wall_ms)
        setfield(self, "reason_unknown", reason_unknown)
        setfield(self, "statistics", {} if statistics is None else statistics)

    @property
    def solve_ms(self) -> float:
        """The solving time the solver reports (``:time``), else the wall time."""
        seconds = self.statistics.get("time")
        return self.wall_ms if seconds is None else seconds * 1000.0


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


def run_solver(script: SmtScript, config: SolverConfig) -> SolverOutcome:
    """Give the script to the solver and decode its verdict.

    The bundled solver solves in this process; any other command is spawned.
    Either way the same script text goes in and the same code decodes the
    printed answer. The bundled solver is imported at its first call, before
    the call's clock starts, so a check that calls no solver never loads it
    and compiling it counts in no call's wall time or deadline.
    """
    bundled = config.command == BUNDLED_COMMAND
    if bundled:
        from ..refsolver import solve_text
    start = time.perf_counter()
    if bundled:
        raw = solve_text(script.text, deadline=start + config.timeout_s)
        returncode = 0
    else:
        raw, returncode = _spawn(script, config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if returncode is None:
        return SolverOutcome("unknown", None, wall_ms, reason_unknown="timeout")

    status = None
    for line in raw.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            status = word
            break
    if status is None:
        if returncode != 0:
            raise SolverCrashed(returncode, raw)
        raise SolverProtocolError(f"no verdict in solver output: {raw[:500]!r}")

    model = None
    if status == "sat":
        model = parse_model(raw, script.declarations)
    reason, statistics = parse_info(raw)
    return SolverOutcome(status, model, wall_ms, reason, statistics)


def _spawn(script: SmtScript, config: SolverConfig) -> tuple[str, int | None]:
    """Run an external solver on the script: its output and exit status, or
    None for the status when it was killed at the timeout."""
    import subprocess

    try:
        proc = subprocess.run(
            list(config.command),
            input=script.text.encode(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=min(config.timeout_s + KILL_GRACE_S, MAX_WAIT_S),
        )
    except FileNotFoundError:
        raise SolverNotFound(config.command[0]) from None
    except subprocess.TimeoutExpired as exc:
        return (exc.stdout or b"").decode(errors="replace"), None
    return proc.stdout.decode(errors="replace"), proc.returncode


def solver_stats(outcomes: list[SolverOutcome]) -> dict[str, int | float | str]:
    """The solver's share of ``Verdict.stats`` over one check's calls.

    ``solver_ms`` sums the solving times the solver reports and
    ``solver_wall_ms`` the calls' wall times (the whole call in process for
    the bundled solver, spawn to exit for a child); the integer statistics are
    summed as ``solver_<name>``.
    """
    stats: dict[str, int | float | str] = {
        "solver_ms": sum(o.solve_ms for o in outcomes),
        "solver_wall_ms": sum(o.wall_ms for o in outcomes),
        "solver_calls": len(outcomes),
    }
    for outcome in outcomes:
        for name, value in outcome.statistics.items():
            if isinstance(value, int):
                key = "solver_" + name.replace("-", "_")
                stats[key] = stats.get(key, 0) + value
    return stats


def parse_info(raw: str) -> tuple[str | None, dict[str, int | float]]:
    """Read the get-info answers in solver output: the ``:reason-unknown``
    text and the numeric ``:all-statistics`` entries (keys without the
    colon). Output without them, or that does not parse, gives nothing."""
    start = raw.find("(:")
    if start < 0:
        return None, {}
    try:
        forms = parse_all(raw[start:])
    except SolverProtocolError:
        return None, {}
    reason = None
    statistics: dict[str, int | float] = {}
    for form in forms:
        if not isinstance(form, list):
            continue
        for key, value in zip(form[::2], form[1::2]):
            if not isinstance(key, str) or not key.startswith(":"):
                break
            if key == ":reason-unknown":
                reason = _info_text(value)
                continue
            number = _number(value)
            if number is not None:
                statistics[key[1:]] = number
    return reason, statistics


def _info_text(value) -> str:
    words = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif len(item) >= 2 and item[0] == item[-1] == '"':
            words.append(item[1:-1].replace('""', '"'))
        else:
            words.append(item)
    return " ".join(words)


def _number(value) -> int | float | None:
    if isinstance(value, str):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
    return None


def parse_model(raw: str, expected: tuple[str, ...]) -> dict[str, int]:
    """Extract integer bindings for the expected names from solver output.

    Accepts the ``(model (define-fun ...))`` wrapper as well as the bare
    list-of-define-fun form, and both ``-2`` and ``(- 2)`` literals. Extra
    bindings are ignored.
    """
    text = raw
    idx = text.find("sat")
    if idx >= 0:
        text = text[idx + 3 :]
    bindings: dict[str, int] = {}
    # Depth-first, left to right, with an explicit stack: solver output
    # from elsewhere may nest deeper than Python's recursion limit.
    stack = parse_all(text)[::-1]
    while stack:
        form = stack.pop()
        if not isinstance(form, list):
            continue
        if not form or form[0] != "define-fun":
            stack.extend(reversed(form))
            continue
        if len(form) != 5:
            continue
        _, name, args, sort, value = form
        if args != [] or not isinstance(name, str):
            continue
        if sort != "Int":
            bindings.setdefault(name, _NON_INT)
            continue
        parsed = _int_value(value)
        if parsed is None:
            raise NonIntegerBinding(name, repr(value))
        bindings[name] = parsed

    out: dict[str, int] = {}
    for name in expected:
        if name not in bindings:
            raise MissingBinding(name)
        value = bindings[name]
        if value is _NON_INT:
            raise NonIntegerBinding(name, "non-integer sort")
        out[name] = value
    return out


class _NonInt:
    pass


_NON_INT = _NonInt()


def _int_value(value) -> int | None:
    sign = 1
    while isinstance(value, list) and len(value) == 2 and value[0] == "-":
        sign, value = -sign, value[1]
    if isinstance(value, str):
        try:
            return sign * int(value)
        except ValueError:
            return None
    return None
