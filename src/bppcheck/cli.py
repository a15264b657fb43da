"""Command-line front end.

Exit codes: 0 the property holds, 1 it does not, 2 unknown (solver gave up
or timed out), 3 usage or parse error, 4 solver or environment failure.

Each piece of the pipeline is imported where a run first reaches it, so
``--help``, a usage error and a batch parent load only this and ``errors``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    BppCheckError,
    ParseError,
    SolverCrashed,
    SolverNotFound,
    SolverProtocolError,
)

EXIT_HOLDS = 0
EXIT_NOT_HOLDS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_ENVIRONMENT = 4


def _exit_code(verdict: Verdict) -> int:
    return {"holds": EXIT_HOLDS, "not-holds": EXIT_NOT_HOLDS}.get(verdict.result, EXIT_UNKNOWN)


class _UsageError(Exception):
    pass


class _NotUtf8(Exception):
    """An input file that does not decode as UTF-8: a parse error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 3
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bppcheck",
        description="Check branching-time properties of basic parallel processes "
        "and actor communicating systems with an SMT back end.",
    )
    parser.add_argument("inputs", nargs="+", metavar="input",
                        help="problem file, or with --acs: system file and property file")
    parser.add_argument("--acs", action="store_true",
                        help="treat the input as an actor system plus a property file")
    parser.add_argument("-k", type=int, default=10, metavar="N",
                        help="step bound for the bounded engine (default 10)")
    parser.add_argument("--solver", metavar="CMD",
                        help="solver command line reading SMT-LIB2 on stdin "
                        "(default: $BPPCHECK_SOLVER, else z3 -in -smt2 when z3 is on "
                        "PATH, else the bundled solver, which runs in process)")
    parser.add_argument("--timeout", type=float, default=60.0, metavar="SECS",
                        help="budget in seconds (default 60) for the whole check, "
                        "shared by all of its solver calls: the bundled solver "
                        "stops itself at it, a solver command is killed shortly "
                        "after it")
    parser.add_argument("--emit-smt", metavar="PATH",
                        help="dump the exact script bytes sent to the solver")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the explored transition graph in DOT format")
    parser.add_argument("--stats", action="store_true",
                        help="print constraint and timing statistics")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="check multiple problem files in N worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
        report, code = _dispatch(opts)
    except _UsageError as err:
        return _error("usage error", err, EXIT_USAGE)
    except (ParseError, _NotUtf8) as err:
        return _error("parse error", err, EXIT_USAGE)
    except (SolverNotFound, SolverCrashed, SolverProtocolError) as err:
        return _error("solver error", err, EXIT_ENVIRONMENT)
    except BppCheckError as err:  # MixedFormula among them
        return _error("error", err, EXIT_USAGE)
    except OSError as err:
        return _error("error", err, EXIT_ENVIRONMENT)
    except (MemoryError, RecursionError) as err:
        limit = "out of memory" if isinstance(err, MemoryError) else "recursion depth exceeded"
        return _error("error", limit, EXIT_ENVIRONMENT)
    try:
        print(report, flush=True)
    except OSError as err:
        # Nobody reads the report. The flush at shutdown must not fail
        # again and turn the exit code into another one.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _error("error", f"cannot write the report: {err}", EXIT_ENVIRONMENT)
    return code


def _error(prefix: str, err: object, code: int) -> int:
    """Print an error message and return its exit code, which a closed
    stderr does not change."""
    try:
        print(f"{prefix}: {err}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


def _dispatch(opts) -> tuple[str, int]:
    """The report to print and the exit code."""
    if opts.k < 0:
        raise _UsageError("k must be >= 0")
    if opts.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    if not 0 < opts.timeout < float("inf"):  # also false for nan
        raise _UsageError("--timeout must be a positive number of seconds")

    if opts.acs:
        if len(opts.inputs) != 2:
            raise _UsageError("--acs takes exactly two files: system and property")
        return _run_acs(opts.inputs[0], opts.inputs[1], opts)

    if len(opts.inputs) == 1:
        return _run_problem(opts.inputs[0], opts)

    # Batch mode: independent checks on worker processes, since the bundled
    # solver runs in the checking process and holds the GIL while it solves.
    # A worker hands back its rendered report, so the parent loads no
    # pipeline module.
    if opts.emit_smt or opts.dot:
        raise _UsageError("--emit-smt/--dot need a single input file")
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(opts.jobs, len(opts.inputs))
    spawn = multiprocessing.get_context("spawn")  # fork is unsafe with threads
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_run_named, opts.inputs, [opts] * len(opts.inputs)))
    except BrokenProcessPool as err:  # a worker died: an environment failure
        raise OSError(str(err)) from None
    lines = []
    for path, (text, _) in zip(opts.inputs, results):
        if opts.format == "json":  # one report object per line, in input order
            import json

            lines.append(json.dumps({"file": path, **json.loads(text)}))
        else:
            lines += [f"== {path} ==", text]
    return "\n".join(lines), max(code for _, code in results)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as file:  # a byte-order mark is skipped
            return file.read()
    except UnicodeDecodeError as err:
        raise _NotUtf8(f"{path}: not UTF-8 ({err.reason})") from None


def _run_problem(path: str, opts) -> tuple[str, int]:
    text = _read(path)  # a missing file fails before the parser is loaded
    from .parsing import parse_problem

    problem = parse_problem(text)
    return _check(problem.bpp, problem.initial, problem.formula, opts)


def _run_named(path: str, opts) -> tuple[str, int]:
    """``_run_problem`` for a batch worker: an error names its input."""
    try:
        return _run_problem(path, opts)
    except BppCheckError as err:
        err.args = (f"{path}: {err}",)
        raise


def _run_acs(system_path: str, property_path: str, opts) -> tuple[str, int]:
    text = _read(system_path)
    from .acs import convert, convert_place
    from .parsing import parse_acs, parse_property

    acs, place = parse_acs(text)
    cb = convert(acs)
    init = convert_place(cb, place)
    formula = parse_property(_read(property_path), cb)
    return _check(cb.bpp, init, formula, opts)


def _check(bpp, init, formula, opts) -> tuple[str, int]:
    """Run the check and return its rendered report and exit code."""
    import time

    from .ctl import check
    from .smt import resolve_solver

    config = resolve_solver(opts.solver, timeout_s=opts.timeout)
    scripts: list[SmtScript] = []
    start = time.perf_counter()
    verdict = check(bpp, init, formula, opts.k, config, on_script=scripts.append)
    total_ms = (time.perf_counter() - start) * 1000.0

    if opts.dot:
        from .oracle import to_dot

        with open(opts.dot, "w", encoding="utf-8") as file:
            file.write(to_dot(bpp, init))
    if opts.emit_smt:
        _write_scripts(opts.emit_smt, scripts)
    text = render_report(verdict, total_ms, scripts, opts.format, stats=opts.stats)
    return text, _exit_code(verdict)


def _write_scripts(path: str, scripts: list[SmtScript]) -> None:
    from pathlib import Path

    if len(scripts) == 1:
        Path(path).write_bytes(scripts[0].text.encode())
        return
    base = Path(path)
    for i, script in enumerate(scripts):
        indexed = base.with_name(f"{base.stem}.{i}{base.suffix}")
        indexed.write_bytes(script.text.encode())


def render_report(verdict: Verdict, total_ms: float, scripts: list[SmtScript], fmt: str,
                  stats: bool = False) -> str:
    import json

    if fmt == "json":
        payload = {
            "result": verdict.result,
            "engine": verdict.engine,
            "k": verdict.k,
            "time_ms": round(total_ms, 3),
            "witness": verdict.witness,
            "stats": verdict.stats,
        }
        return json.dumps(payload)

    lines = [f"result: {verdict.result}", f"engine: {verdict.engine}"]
    if verdict.engine == "eg-bounded":
        lines.append(f"k: {verdict.k}")
        lines.append(f"bound: {verdict.stats['bound']}")
        if "lasso" in verdict.stats:
            lines.append(f"lasso: {verdict.stats['lasso']}")
    lines.append(f"time_ms: {total_ms:.1f}")
    if "reason_unknown" in verdict.stats:
        lines.append(f"reason_unknown: {verdict.stats['reason_unknown']}")
    if verdict.witness:
        for name, value in verdict.witness.items():
            lines.append(f"({name}, {value})")
    if stats:
        parts = " ".join(
            f"{key}={json.dumps(value, separators=(',', ':')) if isinstance(value, list) else value}"
            for key, value in verdict.stats.items()
        )
        lines.append(f"stats: {parts}")
        if verdict.result == "not-holds":
            for script in scripts:
                lines.append("constraints:")
                lines.append(script.text.rstrip("\n"))
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
