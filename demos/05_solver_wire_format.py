"""What actually goes to the solver.

The one boundary between the engines and a solver is SMT-LIB2 text: an
external solver reads it on a child process's stdin, the bundled solver
gets the same text in process. This script prints the exact script bytes
for a small reachability encoding, runs them through the configured solver,
and shows the decoded outcome. Point BPPCHECK_SOLVER at any solver that
reads SMT-LIB2 from stdin to swap back ends.

Run:  python demos/05_solver_wire_format.py
"""

from bppcheck.core import Bpp, Rule, TAU
from bppcheck.ctl import Atom, Cmp, LinearAtom
from bppcheck.ef import atoms_to_node, encode_reachability
from bppcheck.smt import conj, resolve_solver, run_solver, to_smtlib


def main() -> None:
    system = Bpp(
        symbols=("S", "X", "Y"),
        rules=(
            Rule(0, "S", TAU, ("X",)),
            Rule(1, "X", TAU, ("X", "Y")),
        ),
    )
    encoding = encode_reachability(system, (1, 0, 0))
    target = atoms_to_node(Atom(LinearAtom((("Y", 1),), Cmp.EQ, 1)), encoding.vars.x)
    script = to_smtlib(conj(list(encoding.constraints) + [target]), encoding.declarations)

    print("=== script sent to the solver ===")
    print(script.text, end="")
    print("=== solver outcome ===")
    config = resolve_solver()
    outcome = run_solver(script, config)
    print(f"status: {outcome.status}   wall: {outcome.wall_ms:.1f} ms")
    if outcome.model:
        for name, value in outcome.model.items():
            print(f"  ({name}, {value})")


if __name__ == "__main__":
    main()
