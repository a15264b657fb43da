"""The explicit-state side: breadth-first exploration and bounded evaluation.

Both SMT engines are differentially tested against these brute-force
routines, so they are worth knowing on their own: reachable_set explores
markings breadth-first under a budget, check_ef_oracle answers reachability
queries exactly on small systems, and eval_bounded evaluates the k-step
semantics by direct recursion.

Run:  python demos/04_explicit_exploration.py
"""

from bppcheck.core import Bpp, Rule
from bppcheck.ctl import Atom, Cmp, EG, ENext, LinearAtom
from bppcheck.oracle import (
    ExplorationBudget,
    check_ef_oracle,
    eval_bounded,
    reachable_set,
    to_dot,
)


def main() -> None:
    system = Bpp(
        symbols=("X1", "X2", "X3"),
        rules=(
            Rule(0, "X1", "a", ("X2", "X3")),
            Rule(1, "X2", "a", ("X1", "X2")),
            Rule(2, "X3", "a", ("X1",)),
        ),
    )
    initial = (1, 0, 0)

    frontier, complete = reachable_set(system, initial, ExplorationBudget(max_depth=3))
    print(f"markings within 3 steps: {len(frontier)} (complete={complete})")
    for marking in sorted(frontier):
        print(f"  {marking}")

    # This system grows without bound, so a state budget trips eventually.
    _, complete = reachable_set(system, initial, ExplorationBudget(max_states=500))
    print(f"500-state budget exhausted the space: {not complete}")

    question = Atom(LinearAtom((("X1", 1),), Cmp.GE, 3))
    print(f"can X1 reach 3?  {check_ef_oracle(system, initial, question)}")

    body = ENext("a", Atom(LinearAtom((("X2", 1), ("X3", 1)), Cmp.GE, 2)))
    for k in (0, 1, 5):
        print(f"bounded EG at k={k}: {eval_bounded(EG(body), initial, k, system)}")

    dot = to_dot(system, initial, ExplorationBudget(max_depth=2))
    print("\nGraphviz view of the first two layers:")
    print(dot)


if __name__ == "__main__":
    main()
