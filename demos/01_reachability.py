"""Reachability checking, end to end.

A process system where S hands off to X and X keeps spawning Y tokens.
We ask whether a configuration with exactly one Y is reachable, read the
firing counts out of the model the refinement loop accepted (the witness),
and replay them as a concrete firing sequence.

Run:  python demos/01_reachability.py
"""

from bppcheck.core import Bpp, Rule, TAU
from bppcheck.ctl import Atom, Cmp, EF, LinearAtom
from bppcheck.ef import check_ef_detailed, realize_firing_counts
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

    verdict, encoding, rounds = check_ef_detailed(system, initial, wanted, solver)
    print(f"EF(Y == 1): {verdict.result}")
    print("solver model:")
    for name, value in verdict.witness.items():
        print(f"  ({name}, {value})")

    print(f"refinement rounds: {len(rounds[0])}")

    counts = {rid: verdict.witness[y] for rid, y in encoding.vars.y.items()}
    sequence, reached = realize_firing_counts(system, initial, counts)
    print(f"firing counts per rule: {counts}")
    print(f"one concrete interleaving: {sequence}")
    print(f"marking reached: {reached}")

    # The same pipeline refutes unreachable targets: S never comes back.
    impossible = EF(Atom(LinearAtom((("S", 1),), Cmp.GE, 2)))
    verdict, _, _ = check_ef_detailed(system, initial, impossible, solver)
    print(f"EF(S >= 2): {verdict.result}")


if __name__ == "__main__":
    main()
