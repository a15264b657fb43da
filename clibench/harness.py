"""Running CLI checks and judging what they print."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import reference
from .workloads import Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Cold starts before each round, for setup_s: spread over the run, they see
#: the same machine as the checks. The median of all of them is reported.
COLD_STARTS_PER_ROUND = 4

#: The CLI runs with its default --timeout (60 s). A check that reaches half
#: of it is killed and counted as failed.
CHECK_KILL_S = 30.0

#: No new round starts this long after the rounds began, so a run that goes
#: wrong still ends well inside three minutes.
HARD_STOP_S = 120.0


def cli_env() -> dict[str, str]:
    """The CLI and its solver child import the checkout's ``src``, and the
    solver is resolved by default: no BPPCHECK_SOLVER."""
    env = dict(os.environ)
    env.pop("BPPCHECK_SOLVER", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    code: int  # exit code; -1 when killed
    out: str
    err: str
    wall_s: float  # spawn to exit
    peak_rss_kb: int  # largest RSS of the CLI process and the children it waited for


class Spawner:
    """Runs CLI processes, one at a time, through ``spawner.py``: a small
    child of this process, so that this process's own memory does not show
    in the peak RSS of the CLI processes (see there)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = cli_env()
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def cli(self, args: list[str]) -> Run:
        """Run ``python -m bppcheck <args>`` in the work directory to its end."""
        out, err = self.workdir / ".stdout", self.workdir / ".stderr"
        request = {"argv": [sys.executable, "-m", "bppcheck", *args],
                   "cwd": str(self.workdir), "env": self.env,
                   "stdout": str(out), "stderr": str(err), "kill_after_s": CHECK_KILL_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        stdout = out.read_text(errors="replace")
        stderr = err.read_text(errors="replace")
        if answer["code"] == -1:
            stderr = "killed at half the CLI timeout"
        return Run(answer["code"], stdout, stderr, answer["wall_s"], answer["peak_rss_kb"])

    def cold_starts(self, starts: int) -> list[float]:
        """Wall seconds of CLI runs that start, import the package and exit
        without a check (``--help``)."""
        times = []
        for _ in range(starts):
            run = self.cli(["--help"])
            if run.code != 0:
                raise RuntimeError(f"bppcheck --help failed: {run.err.strip()[-300:]}")
            times.append(run.wall_s)
        return times


def write_inputs(checks: list[Check], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for check in checks:
        for name, text in check.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def run_rounds(checks: list[Check], seconds: float, spawner: Spawner, run_one) -> list[float]:
    """Whole rounds of the checks: another round starts while it would end,
    at the last round's pace, within half a round of the deadline. Returns
    the cold-start times taken before each round."""
    start = time.perf_counter()
    cold: list[float] = []
    while True:
        t0 = time.perf_counter()
        cold += spawner.cold_starts(COLD_STARTS_PER_ROUND)
        for check in checks:
            run_one(check)
        now = time.perf_counter()
        last = now - t0
        if now - start + last / 2 >= seconds or now - start + last >= HARD_STOP_S:
            return cold


@dataclass
class Outcome:
    """What one check run showed: ``failed`` says why it gave no usable
    verdict; ``wrong`` says how its verdict or witness contradicts the
    reference."""

    failed: str | None = None
    wrong: str | None = None


def judge(check: Check, run: Run) -> Outcome:
    code, out, err = run.code, run.out, run.err
    if "Traceback" in err:
        return Outcome(failed="traceback")
    if code == 2:
        return Outcome(failed="unknown")
    if code not in (0, 1):
        return Outcome(failed=f"exit code {code}: {err.strip()[-200:]}")
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Outcome(failed="no JSON report")
    result = report.get("result")
    if code != {"holds": 0, "not-holds": 1}.get(result):
        return Outcome(failed=f"exit code {code} with result {result!r}")
    if result != check.expected:
        return Outcome(failed="wrong verdict",
                       wrong=f"{check.cid}: {result}, reference says {check.expected}")
    problem = check_witness(check, report)
    if problem:
        return Outcome(failed="bad witness", wrong=f"{check.cid}: {problem}")
    return Outcome()


def check_witness(check: Check, report: dict) -> str | None:
    """Replay what the CLI printed as evidence; None when it holds up."""
    witness = report.get("witness")
    system = check.system
    if system is None or not witness:
        return None
    if report.get("engine") == "ef":
        return _check_ef_witness(check, witness)
    if report.get("engine") == "eg-bounded" and check.formula[0] == "eg" \
            and report.get("result") == "holds":
        return _check_eg_witness(check, witness)
    return None


def _check_ef_witness(check: Check, witness: dict) -> str | None:
    """The y_* counts replay into a firing sequence that ends in the x_*
    marking, and that marking satisfies the EF body the model is for."""
    system = check.system
    if check.witness_node is None:
        return "a model for an EF node that the reference finds unreachable"
    counts = [witness.get(f"y_{r + 1}") for r in range(len(system.rules))]
    if None in counts:
        return "witness lacks firing counts"
    try:
        sequence = reference.replay_counts(system, counts)
    except reference.Indefinite:
        return "firing counts too large to replay"
    if sequence is None:
        return "firing counts do not replay into a firing sequence"
    final = reference.fire_sequence(system, sequence)
    if any(witness.get(f"x_{s}") != final[i] for i, s in enumerate(system.symbols)):
        return "reached marking differs from the replayed one"
    idx = system.index()
    if not reference.eval_prop(check.witness_node[1], lambda s: final[idx[s]]):
        return "replayed marking does not satisfy the EF body"
    return None


def _check_eg_witness(check: Check, witness: dict) -> str | None:
    """The top-level path u0..uk starts at the initial marking, takes k
    single-rule steps and satisfies the EG body at every position."""
    system, k = check.system, check.k
    try:
        path = [tuple(witness[f"u{j}_{s}"] for s in system.symbols) for j in range(k + 1)]
    except KeyError:
        return "witness lacks the top-level path"
    if path[0] != system.init:
        return "path does not start at the initial marking"
    for j in range(k):
        if not reference.one_step(system, path[j], path[j + 1]):
            return f"path step {j} is not one rule firing"
    bounded = reference.Bounded(system, k)
    for j, m in enumerate(path):
        if not bounded.holds(check.formula[1], m):
            return f"EG body fails at path position {j}"
    return None
