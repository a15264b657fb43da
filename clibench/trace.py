"""The traced run: per-layer times and counts for the same checks.

For every check the CLI runs once, untraced, as in the timed run; its wall
time is the whole a layer split must add up to. Then the benchmark runs the
pipeline itself, in this process, through the package's public functions,
with a span around each call:

    parsing          parse_problem / parse_acs / parse_property
    acs              convert + convert_place
    ctl              desugar + classify
    ef.encode        encode_reachability, atoms_to_node and the conjunction
    eg.encode        encode_eg, less the serialisation inside it
    smt.serialize    to_smtlib
    smt.runner       run_solver: the solver child, as the CLI runs it
    smt.runner.decode    parse_model inside run_solver
    refsolver.solve  refsolver.solve_text on the same script, in process
    refsolver.omega  every omega_solve call inside it

Functions the package calls internally (parse_model, to_smtlib inside
encode_eg, omega_solve) are wrapped by swapping the module attribute the
caller looks up, for the duration of the run. Spans are kept in memory and
written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from . import harness

#: Calls used to price one span when estimating the tracing overhead.
CALIBRATION_SPANS = 20_000

#: Python stack depth for the in-process solver on the deepest scripts here.
RECURSION_LIMIT = 20_000


class Tracer:
    """Spans as [name, start, end, parent index, check id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.check: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.check]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` in a span until ``restore``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def span_cost_s() -> float:
    """Seconds one span adds, measured on empty spans."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(CALIBRATION_SPANS):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / CALIBRATION_SPANS


class Pipeline:
    """The CLI's check path, rebuilt from the package's public functions."""

    def __init__(self, tracer: Tracer, workdir: Path):
        from bppcheck import acs, ctl, ef, eg, parsing, refsolver
        from bppcheck.smt import conj, resolve_solver, run_solver, to_smtlib
        from bppcheck.smt import runner

        self.tr = tracer
        self.workdir = workdir
        self.acs, self.ctl, self.ef, self.eg, self.parsing = acs, ctl, ef, eg, parsing
        self.refsolver = refsolver
        self.conj, self.run_solver, self.to_smtlib = conj, run_solver, to_smtlib
        self.config = resolve_solver(None)

        def omega_result(witness) -> None:
            tracer.count("omega.calls")
            if witness is not None:
                tracer.count("omega.useful")

        tracer.patch(refsolver, "omega_solve", "refsolver.omega", omega_result)
        tracer.patch(runner, "parse_model", "smt.runner.decode")
        tracer.patch(eg, "to_smtlib", "smt.serialize")

    def _read(self, name: str) -> str:
        text = (self.workdir / name).read_text(encoding="utf-8")
        self.tr.count("parsing.tokens", len(self.parsing.tokenize(text)))
        return text

    def run(self, check) -> str:
        tr, parsing = self.tr, self.parsing
        if "--acs" in check.args:
            system_text, prop_text = self._read(check.args[0]), self._read(check.args[1])
            with tr.span("parsing"):
                actors, place = parsing.parse_acs(system_text)
            with tr.span("acs"):
                cb = self.acs.convert(actors)
                init = self.acs.convert_place(cb, place)
            tr.count("acs.symbols", len(cb.bpp.symbols))
            with tr.span("parsing"):
                formula = parsing.parse_property(prop_text, cb)
            bpp = cb.bpp
        else:
            text = self._read(check.args[0])
            with tr.span("parsing"):
                problem = parsing.parse_problem(text)
            bpp, init, formula = problem.bpp, problem.initial, problem.formula
        with tr.span("ctl"):
            core = self.ctl.desugar(formula)
            cls = self.ctl.classify(core)
        if cls == self.ctl.FormulaClass.EF_CLASS:
            value = self._ef(bpp, init, core)
        else:
            value = self._eg(bpp, init, formula, check.k)
        return "unknown" if value is None else ("holds" if value else "not-holds")

    def _solve(self, script) -> str:
        tr = self.tr
        tr.count("smt.runner.calls")
        tr.count("smt.script_bytes", len(script.text))
        with tr.span("smt.runner"):
            outcome = self.run_solver(script, self.config)
        with tr.span("refsolver.solve"):
            printed = self.refsolver.solve_text(script.text)
        if printed.split("\n", 1)[0] != outcome.status:
            raise RuntimeError("the in-process solver disagrees with the solver child")
        return outcome.status

    def _ef(self, bpp, init, core) -> bool | None:
        tr, ctl, ef = self.tr, self.ctl, self.ef
        with tr.span("ef.encode"):
            enc = ef.encode_reachability(bpp, init)

        def solve(psi) -> bool | None:
            with tr.span("ef.encode"):
                body = ef.atoms_to_node(psi, enc.vars.x)
                node = self.conj(list(enc.constraints) + [body])
            tr.count("ef.constraints", len(enc.constraints) + 1)
            with tr.span("smt.serialize"):
                script = self.to_smtlib(node, enc.declarations)
            return {"sat": True, "unsat": False}.get(self._solve(script))

        def ev(g) -> bool | None:
            # The three-valued combination of check_ef_detailed.
            if isinstance(g, ctl.Atom):
                return ctl.eval_atomic(g.atom, init, bpp)
            if isinstance(g, ctl.Not):
                sub = ev(g.sub)
                return None if sub is None else not sub
            if isinstance(g, ctl.And):
                left, right = ev(g.left), ev(g.right)
                if left is False or right is False:
                    return False
                return None if left is None or right is None else True
            if isinstance(g, ctl.EF):
                return solve(g.sub)
            raise ValueError(f"unexpected node {g!r}")

        return ev(core)

    def _eg(self, bpp, init, formula, k: int) -> bool | None:
        tr = self.tr
        with tr.span("eg.encode"):
            enc = self.eg.encode_eg(bpp, init, formula, k)
        tr.count("eg.path_vars", enc.path_vars_total)
        return {"sat": True, "unsat": False}.get(self._solve(enc.script))


#: Layers whose times add up, with the CLI's own residue, to a check's wall.
#: The solver child's time is split into transport + decode + solve.
REBUILD = ("parsing", "acs", "ctl", "ef.encode", "eg.encode", "smt.serialize", "smt.runner")


def layer_times(spans: list[list], first: int) -> dict[str, float]:
    """Seconds per span name over spans[first:]; eg.encode counts its self
    time only (its to_smtlib call is smt.serialize)."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child[parent] += end - start
    for i in range(first, len(spans)):
        name, start, end, _, _ = spans[i]
        dur = end - start
        total[name] += dur - child[i] if name == "eg.encode" else dur
    return total


def traced_run(checks, spawner: harness.Spawner, seconds: float, spans_path: Path):
    sys.path.insert(0, str(harness.SRC))
    # run_solver's child inherits this process's environment.
    os.environ.clear()
    os.environ.update(spawner.env)
    # solve_text recurses over the script's terms; the bundled solver's own
    # entry point lifts the limit too.
    sys.setrecursionlimit(RECURSION_LIMIT)

    per_span_s = span_cost_s()
    tracer = Tracer()
    pipeline = Pipeline(tracer, spawner.workdir)
    sums: dict[str, float] = defaultdict(float)
    failures: list[str] = []
    wrong: list[str] = []
    n_spans = 0
    rows = []

    def run_one(check) -> None:
        nonlocal n_spans
        run = spawner.cli(check.args)
        wall = run.wall_s
        outcome = harness.judge(check, run)
        if outcome.failed:
            failures.append(f"{check.cid}: {outcome.failed}")
        if outcome.wrong:
            wrong.append(outcome.wrong)
        tracer.check = f"{check.cid}#{len(rows)}"
        first = len(tracer.spans)
        verdict = pipeline.run(check)
        if verdict != check.expected:
            wrong.append(f"{check.cid}: in-process pipeline says {verdict}")
        n_spans += len(tracer.spans) - first
        times = layer_times(tracer.spans, first)
        layers = {name: times.get(name, 0.0) * 1000.0 for name in REBUILD}
        overhead = wall * 1000.0 - sum(layers.values())
        row = {
            "check": tracer.check, "wall_ms": wall * 1000.0, "cli.overhead_ms": overhead,
            **{f"{name}_ms": value for name, value in layers.items()},
            "smt.runner.decode_ms": times.get("smt.runner.decode", 0.0) * 1000.0,
            "refsolver.solve_ms": times.get("refsolver.solve", 0.0) * 1000.0,
            "refsolver.omega.busy_ms": times.get("refsolver.omega", 0.0) * 1000.0,
        }
        rows.append(row)
        for key, value in row.items():
            if key != "check":
                sums[key] += value

    try:
        cold = harness.run_rounds(checks, seconds, spawner, run_one)
    finally:
        tracer.restore()

    cold_ms = statistics.median(cold) * 1000.0
    n = len(rows)
    mean = {key: value / n for key, value in sums.items()}
    counts = {key: value / n for key, value in tracer.counts.items()}
    transport = mean["smt.runner_ms"] - mean["smt.runner.decode_ms"] - mean["refsolver.solve_ms"]
    omega_calls = tracer.counts.get("omega.calls", 0.0)
    values = {
        "cli.overhead_ms": (mean["cli.overhead_ms"], "ms"),
        "cli.residual_ms": (mean["cli.overhead_ms"] - cold_ms, "ms"),
        "cli.cold_start_ms": (cold_ms, "ms"),
        "check.wall_ms": (mean["wall_ms"], "ms"),
        "smt.runner.transport_ms": (transport, "ms"),
        "smt.runner.calls": (counts.get("smt.runner.calls", 0.0), "count"),
        "smt.runner.decode_ms": (mean["smt.runner.decode_ms"], "ms"),
        "refsolver.solve_ms": (mean["refsolver.solve_ms"], "ms"),
        "refsolver.omega.calls": (counts.get("omega.calls", 0.0), "count"),
        "refsolver.omega.busy_ms": (mean["refsolver.omega.busy_ms"], "ms"),
        "refsolver.omega.useful_ratio": (
            tracer.counts.get("omega.useful", 0.0) / omega_calls if omega_calls else 0.0,
            "ratio"),
        "ef.encode_ms": (mean["ef.encode_ms"], "ms"),
        "ef.constraints": (counts.get("ef.constraints", 0.0), "count"),
        "eg.encode_ms": (mean["eg.encode_ms"], "ms"),
        "eg.path_vars": (counts.get("eg.path_vars", 0.0), "count"),
        "smt.serialize_ms": (mean["smt.serialize_ms"], "ms"),
        "smt.script_bytes": (counts.get("smt.script_bytes", 0.0), "bytes"),
        "parsing.busy_ms": (mean["parsing_ms"], "ms"),
        "parsing.tokens": (counts.get("parsing.tokens", 0.0), "count"),
        "acs.busy_ms": (mean["acs_ms"], "ms"),
        "acs.symbols": (counts.get("acs.symbols", 0.0), "count"),
        "ctl.busy_ms": (mean["ctl_ms"], "ms"),
        "trace.overhead_ms": (n_spans / n * per_span_s * 1000.0, "ms"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as out:
        for name, start, end, parent, check in tracer.spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "check": check}) + "\n")
        for row in rows:
            out.write(json.dumps({"summary": row}) + "\n")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return metrics, n, len(failures), wrong
