"""Write BENCH_<label>.json: the 30-instance EF family and the bounded
liveness series, one CLI run per row.

    python tools/bench.py --label lazy-ef [--src PATH]

Run from anywhere; the output lands at the root of this checkout. Every
check is one ``python -m bppcheck FILE --format json --stats`` process, one
at a time, with ``PYTHONPATH`` set to ``--src`` (default: this checkout's
``src``), so the same script measures another checkout's engine.

The EF family is ring n in {6, 8, 10, 12, 16} and dead-generator 4x4, seeds
0-4, built by ``clibench/families.py``, each written as a problem file and
checked with ``--timeout 10``. A row holds the verdict, the reason for an
unknown, the wall time from spawn to exit, the ``time_ms`` the CLI reports,
the EF round count, the bundled solver's branches, the script bytes (the
summed size of the run's ``--emit-smt`` files, written to a temporary
directory) and the answer of the benchmark's explicit-state reference (null
past its state budget).
The scaled EF rows are built and checked the same way from ring n in
{24, 32, 48, 64} and dead-generator 6x6 and 8x8, seeds 0-4; the family
saturates (every row decided in well under a second), these do not.

The liveness series checks ``demos/inputs/liveness.bpp`` at k = 50, 100,
200 and 400, three runs each. A row holds the verdict, the bound it was
decided at (``unbounded`` for a lasso), the median wall time and the median
``time_ms`` the CLI reports, and the bundled solver's branches and steps.
Its ``EG`` holds at every k: the path from the initial marking repeats a
covering segment forever.

The start-up series times whole CLI runs that are mostly start-up:
``--help``, ``reach.bpp``, ``liveness.bpp -k 10`` and the pingpong actor
system with ``--acs``, 15 runs each, taken in turn so that a noisy spell of
the machine is shared. A row holds the median and quartiles of the wall
time from spawn to exit and the exit codes seen. The machine block records
whether ``PYTHONDONTWRITEBYTECODE`` was set: with it, each run compiles
every package module it imports.

The summary also records ``src_lines``, the summed line count of the
measured tree's ``bppcheck/**/*.py``, since net line count is a reported
metric.

Exits 1 when a decided EF verdict (family or scaled) disagrees with the
reference, a liveness row does not hold or a start-up run fails (an exit
code other than 0 or 1), else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from clibench import families, reference  # noqa: E402
from clibench.model import problem_text  # noqa: E402

RING_SIZES = (6, 8, 10, 12, 16)
SCALED_RING_SIZES = (24, 32, 48, 64)
SCALED_DEAD_SIZES = (6, 8)
SEEDS = range(5)
TIMEOUT_S = 10
REFERENCE_STATES = 100_000
DEMO_INPUTS = ROOT / "demos" / "inputs"
LIVENESS = DEMO_INPUTS / "liveness.bpp"
LIVENESS_KS = (50, 100, 200, 400)
LIVENESS_RUNS = 3
#: Start-up rows: name, files in demos/inputs, flags.
STARTUP = (
    ("help", (), ("--help",)),
    ("reach", ("reach.bpp",), ()),
    ("liveness-k10", ("liveness.bpp",), ("-k", "10")),
    ("pingpong-acs", ("pingpong.acs", "q0_twice.prop"), ("--acs",)),
)
STARTUP_RUNS = 15


def instances(ring_sizes, dead_sizes) -> list[tuple[str, object, tuple]]:
    out = []
    for n in ring_sizes:
        for seed in SEEDS:
            out.append((f"ring-n{n}-s{seed}", *families.ring_instance(n, seed)))
    for d in dead_sizes:
        for seed in SEEDS:
            out.append((f"dead-{d}x{d}-s{seed}", *families.dead_generator_instance(d, d, seed)))
    return out


def reference_answer(system, formula) -> str | None:
    try:
        answers = reference.ef_answers(system, formula, REFERENCE_STATES)
    except reference.Indefinite:
        return None
    return "holds" if reference.eval_ef_class(system, formula, answers) else "not-holds"


def spawn(src: Path, *args: str) -> tuple[dict, dict | None]:
    """One CLI run: its exit code and wall time, and its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BPPCHECK_SOLVER", None)
    argv = [sys.executable, "-m", "bppcheck", *args, "--format", "json", "--stats",
            "--timeout", str(TIMEOUT_S)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=2 * TIMEOUT_S + 30)
    row = {"exit": proc.returncode,
           "wall_ms": round((time.perf_counter() - start) * 1000.0, 1)}
    try:
        return row, json.loads(proc.stdout)
    except ValueError:
        return row, None


def run_cli(problem: Path, src: Path) -> dict:
    with tempfile.TemporaryDirectory() as scripts:
        row, report = spawn(src, str(problem), "--emit-smt", str(Path(scripts) / "round.smt2"))
        script_bytes = sum(path.stat().st_size for path in Path(scripts).iterdir())
    if report is None:
        return {**row, "result": "error", "reason": None, "ef_rounds": None}
    stats = report["stats"]
    return {**row, "result": report["result"], "reason": stats.get("reason_unknown"),
            "time_ms": report["time_ms"], "ef_rounds": stats.get("ef_rounds"),
            "solver_branches": stats.get("solver_branches"), "script_bytes": script_bytes}


def ef_row(name: str, system, formula, tmp: str, src: Path) -> dict:
    problem = Path(tmp) / f"{name}.bpp"
    problem.write_text(problem_text(system, formula))
    row = {"instance": name, **run_cli(problem, src),
           "reference": reference_answer(system, formula)}
    print(json.dumps(row), file=sys.stderr)
    return row


def summarize(rows: list[dict]) -> dict:
    decided = [r for r in rows if r["result"] in ("holds", "not-holds")]
    return {
        "instances": len(rows),
        "decided": len(decided),
        "disagreements": sum(1 for r in decided if r["reference"] not in (None, r["result"])),
        "max_decided_wall_ms": max((r["wall_ms"] for r in decided), default=None),
        "unknown_reasons": sorted({r["reason"] or "none" for r in rows if r not in decided}),
        "undecided": {r["instance"]: r["ef_rounds"] for r in rows if r not in decided},
    }


def liveness_row(k: int, src: Path) -> dict:
    runs = [spawn(src, str(LIVENESS), "-k", str(k)) for _ in range(LIVENESS_RUNS)]
    row, report = runs[-1]
    if report is None:
        return {"k": k, **row, "result": "error"}
    stats = report["stats"]
    return {
        "k": k,
        "result": report["result"],
        "bound": stats.get("bound"),
        "wall_ms": round(statistics.median(r["wall_ms"] for r, _ in runs), 1),
        "time_ms": round(statistics.median(rep["time_ms"] for _, rep in runs if rep), 1),
        "solver_branches": stats.get("solver_branches"),
        "solver_steps": stats.get("solver_steps"),
    }


def startup_rows(src: Path) -> list[dict]:
    runs = {name: [] for name, _, _ in STARTUP}
    for _ in range(STARTUP_RUNS):
        for name, files, flags in STARTUP:
            runs[name].append(spawn(src, *(str(DEMO_INPUTS / f) for f in files), *flags)[0])
    rows = []
    for name, files, flags in STARTUP:
        q1, median, q3 = statistics.quantiles([r["wall_ms"] for r in runs[name]], n=4)
        rows.append({"row": name, "args": [*files, *flags], "runs": STARTUP_RUNS,
                     "wall_ms_median": round(median, 1), "wall_ms_q1": round(q1, 1),
                     "wall_ms_q3": round(q3, 1),
                     "exits": sorted({r["exit"] for r in runs[name]})})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    opts = parser.parse_args(argv)

    start = time.perf_counter()
    src = opts.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        rows = [ef_row(*case, tmp, src) for case in instances(RING_SIZES, (4,))]
        scaled = [ef_row(*case, tmp, src)
                  for case in instances(SCALED_RING_SIZES, SCALED_DEAD_SIZES)]
    liveness = []
    for k in LIVENESS_KS:
        liveness.append(liveness_row(k, src))
        print(json.dumps(liveness[-1]), file=sys.stderr)
    startup = startup_rows(src)
    for row in startup:
        print(json.dumps(row), file=sys.stderr)

    summary = {
        **summarize(rows),
        "scaled": summarize(scaled),
        "liveness_not_holding": [r["k"] for r in liveness if r["result"] != "holds"],
        "startup_failed": [r["row"] for r in startup if set(r["exits"]) - {0, 1}],
        "run_s": round(time.perf_counter() - start, 1),
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines())
                         for path in (src / "bppcheck").rglob("*.py")),
    }
    payload = {
        "label": opts.label,
        "command": f"python tools/bench.py --label {opts.label}"
                   + ("" if opts.src == ROOT / "src" else " --src <other checkout>/src"),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system(),
                    "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
        "summary": summary,
        "ef_family": rows,
        "ef_scaled": scaled,
        "liveness": liveness,
        "startup": startup,
    }
    (ROOT / f"BENCH_{opts.label}.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(summary))
    failed = summary["disagreements"] or summary["scaled"]["disagreements"]
    return 1 if failed or summary["liveness_not_holding"] or summary["startup_failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
