"""Reachability checking, end to end.

A process system where S hands off to X and X keeps spawning Y tokens.
We ask whether a configuration with exactly one Y is reachable, watch the
refinement rounds go to the solver, read the firing counts out of the
model the loop accepted (the witness), and replay them as a concrete
firing sequence.

Run:  python demos/01_reachability.py
"""

from bppcheck.core import Bpp, Rule, TAU
from bppcheck.ctl import Atom, Cmp, EF, LinearAtom, check
from bppcheck.ef import encode_flow, realize_firing_counts
from bppcheck.smt import resolve_solver


def main() -> None:
    system = Bpp(
        symbols=("S", "X", "Y"),
        rules=(
            Rule(0, "S", TAU, ("X",)),
            Rule(1, "X", TAU, ("X", "Y")),
        ),
    )
    initial = (1, 0, 0)  # one S, nothing else
    wanted = EF(Atom(LinearAtom((("Y", 1),), Cmp.EQ, 1)))

    solver = resolve_solver()
    print(f"solver command: {' '.join(solver.command)}")

    # Each refinement round is one self-contained script; on_script sees it
    # before the solver does. The EF formula has no E<a>, so k plays no part.
    rounds = []
    verdict = check(system, initial, wanted, 0, solver, on_script=rounds.append)
    print(f"EF(Y == 1): {verdict.result}")
    for i, script in enumerate(rounds):  # every round after the first adds one cut
        print(f"  round {i + 1}: {len(script.text)} bytes, {i} cut(s)")
    print(f"refinement rounds: {verdict.stats['ef_rounds']}")
    print("solver model:")
    for name, value in verdict.witness.items():
        print(f"  ({name}, {value})")

    ys = encode_flow(system, initial).vars.y  # rule id -> firing-count variable
    counts = {rid: verdict.witness[y] for rid, y in ys.items()}
    sequence, reached = realize_firing_counts(system, initial, counts)
    print(f"firing counts per rule: {counts}")
    print(f"one concrete interleaving: {sequence}")
    print(f"marking reached: {reached}")

    # The same pipeline refutes unreachable targets: S never comes back.
    impossible = EF(Atom(LinearAtom((("S", 1),), Cmp.GE, 2)))
    verdict = check(system, initial, impossible, 0, solver)
    print(f"EF(S >= 2): {verdict.result}")


if __name__ == "__main__":
    main()
