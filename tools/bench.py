"""Write BENCH_<label>.json: the 30-instance EF family, one CLI run each.

    python tools/bench.py --label lazy-ef [--src PATH]

Run from anywhere; the output lands at the root of this checkout. The
family is ring n in {6, 8, 10, 12, 16} and dead-generator 4x4, seeds 0-4,
built by ``clibench/families.py``. Each instance is written as a problem
file and checked by one
``python -m bppcheck FILE --format json --stats --timeout 10`` process, one
at a time, with ``PYTHONPATH`` set to ``--src`` (default: this checkout's
``src``), so the same script measures another checkout's engine. A row
holds the verdict, the reason for an unknown, the wall time from spawn to
exit, the EF round count and the answer of the benchmark's explicit-state
reference (null past its state budget). Exits 1 when a decided verdict
disagrees with the reference, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
SEEDS = range(5)
TIMEOUT_S = 10
REFERENCE_STATES = 100_000


def family() -> list[tuple[str, object, tuple]]:
    out = []
    for n in RING_SIZES:
        for seed in SEEDS:
            out.append((f"ring-n{n}-s{seed}", *families.ring_instance(n, seed)))
    for seed in SEEDS:
        out.append((f"dead-4x4-s{seed}", *families.dead_generator_instance(4, 4, seed)))
    return out


def reference_answer(system, formula) -> str | None:
    try:
        answers = reference.ef_answers(system, formula, REFERENCE_STATES)
    except reference.Indefinite:
        return None
    return "holds" if reference.eval_ef_class(system, formula, answers) else "not-holds"


def run_cli(problem: Path, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BPPCHECK_SOLVER", None)
    argv = [sys.executable, "-m", "bppcheck", str(problem), "--format", "json",
            "--stats", "--timeout", str(TIMEOUT_S)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=2 * TIMEOUT_S + 30)
    row = {"exit": proc.returncode,
           "wall_ms": round((time.perf_counter() - start) * 1000.0, 1)}
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return {**row, "result": "error", "reason": None, "ef_rounds": None}
    stats = report["stats"]
    # A one-shot engine reports no ef_rounds: its one call per EF node is one round.
    rounds = stats.get("ef_rounds", stats.get("solver_calls"))
    return {**row, "result": report["result"], "reason": stats.get("reason_unknown"),
            "ef_rounds": rounds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    opts = parser.parse_args(argv)

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, system, formula in family():
            problem = Path(tmp) / f"{name}.bpp"
            problem.write_text(problem_text(system, formula))
            row = {"instance": name, **run_cli(problem, opts.src.resolve()),
                   "reference": reference_answer(system, formula)}
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)

    decided = [r for r in rows if r["result"] in ("holds", "not-holds")]
    summary = {
        "instances": len(rows),
        "decided": len(decided),
        "disagreements": sum(1 for r in decided if r["reference"] not in (None, r["result"])),
        "max_decided_wall_ms": max((r["wall_ms"] for r in decided), default=None),
        "unknown_reasons": sorted({r["reason"] or "none" for r in rows if r not in decided}),
    }
    payload = {
        "label": opts.label,
        "command": f"python tools/bench.py --label {opts.label}"
                   + ("" if opts.src == ROOT / "src" else " --src <other checkout>/src"),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system()},
        "summary": summary,
        "ef_family": rows,
    }
    (ROOT / f"BENCH_{opts.label}.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(summary))
    return 1 if summary["disagreements"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
