"""Per-check CLI benchmark for bppcheck.

    python3 clibench/run.py --workload small-suite --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each check is one ``bppcheck`` CLI process
(``python -m bppcheck ... --format json``) on inputs generated from the
seed, timed from spawn to exit, one at a time: a closed loop with one
client. The CLI resolves its solver as a user's would (no ``--solver``, no
``BPPCHECK_SOLVER``), so with no z3 on PATH it runs the bundled solver as a
child process. Every verdict is compared with the answer of the
benchmark's own explicit-state checker, and every printed witness is
replayed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
checks and, beside each CLI run, the pipeline in process through the
package's public functions with a span around each layer, and prints the
per-layer metrics. The last line of standard output is one JSON object.

``--generate-only DIR`` writes a seed's inputs and reference answers to
DIR and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from clibench import harness  # noqa: E402
from clibench.workloads import WORKLOADS  # noqa: E402


def timed_run(checks, spawner, seconds, rows_path) -> tuple[dict, int, int, list[str]]:
    walls: list[float] = []
    peaks_kb: list[int] = []
    failures: list[str] = []
    wrong: list[str] = []
    rows = []

    def run_one(check) -> None:
        run = spawner.cli(check.args)
        outcome = harness.judge(check, run)
        walls.append(run.wall_s)
        peaks_kb.append(run.peak_rss_kb)
        rows.append({"check": check.cid, "wall_ms": run.wall_s * 1000.0, "exit": run.code,
                     "peak_rss_kb": run.peak_rss_kb, "failed": outcome.failed})
        if outcome.failed:
            failures.append(f"{check.cid}: {outcome.failed}")
        if outcome.wrong:
            wrong.append(outcome.wrong)

    cold = harness.run_rounds(checks, seconds, spawner, run_one)
    rows_path.write_text(json.dumps({"cold_start_s": cold, "checks": rows}, indent=1) + "\n")
    metrics = {
        "setup_s": {"value": statistics.median(cold), "unit": "s"},
        "checks_per_s": {"value": (len(walls) - len(failures)) / sum(walls), "unit": "1/s"},
        "check_ms_p50": {"value": statistics.median(walls) * 1000.0, "unit": "ms"},
        # Per check, the largest RSS among the processes it started (the CLI
        # and its solver child); the median over the run's checks.
        "peak_rss_mb": {"value": statistics.median(peaks_kb) / 1024.0, "unit": "MB"},
    }
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return metrics, len(walls), len(failures), wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-only", metavar="DIR",
                        help="write the inputs and reference answers to DIR and exit")
    opts = parser.parse_args(argv)

    if opts.generate_only:
        out = Path(opts.generate_only)
        checks = WORKLOADS[opts.workload](opts.seed)
        harness.write_inputs(checks, out)
        answers = {c.cid: {"args": c.args, "expected": c.expected} for c in checks}
        (out / "answers.json").write_text(json.dumps(answers, indent=1) + "\n")
        print(f"wrote {len(checks)} checks and their answers to {out}")
        return 0

    if not (harness.SRC / "bppcheck" / "__init__.py").is_file():
        print(f"error: no bppcheck sources under {harness.SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    if shutil.which("z3"):
        print("error: z3 is on PATH, so the CLI would not run the bundled solver; "
              "take it off PATH to run this benchmark", file=sys.stderr)
        return 2

    checks = WORKLOADS[opts.workload](opts.seed)
    workdir = harness.WORK / f"{opts.workload}-{opts.seed}"
    harness.write_inputs(checks, workdir)
    with harness.Spawner(workdir) as spawner:
        spawner.cold_starts(1)  # writes the bytecode cache, untimed
        if opts.trace:
            from clibench.trace import traced_run

            spans_path = harness.WORK / f"trace-{opts.workload}-{opts.seed}.jsonl"
            metrics, attempted, failed, wrong = traced_run(
                checks, spawner, opts.seconds, spans_path)
        else:
            rows_path = harness.WORK / f"result-{opts.workload}-{opts.seed}.json"
            metrics, attempted, failed, wrong = timed_run(
                checks, spawner, opts.seconds, rows_path)
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
