"""Bounded liveness: can the system keep a property alive for k steps?

Unbounded EG checking is undecidable here, so the engine works at a fixed
depth k: EG(body) holds at bound k when some k-step rule path satisfies
the body at every position. Above k = 4 it first looks for a lasso within
4 steps whose loop can be fired again forever without breaking the body;
one found decides EG at every bound ("bound: unbounded") in one small
solver call. Otherwise it unrolls all k steps and the verdict is for bound
k only; this script shows both.

Run:  python demos/02_bounded_liveness.py
"""

from bppcheck.core import Bpp, Rule
from bppcheck.ctl import Atom, Cmp, EG, ENext, LinearAtom, check
from bppcheck.smt import resolve_solver


def main() -> None:
    # Three symbols feeding each other; every rule is labeled "a".
    system = Bpp(
        symbols=("X1", "X2", "X3"),
        rules=(
            Rule(0, "X1", "a", ("X2", "X3")),
            Rule(1, "X2", "a", ("X1", "X2")),
            Rule(2, "X3", "a", ("X1",)),
        ),
    )
    initial = (1, 0, 0)
    # Along some path, every state has an a-successor with X2 + X3 >= 2.
    keeps_supply = EG(ENext("a", Atom(LinearAtom((("X2", 1), ("X3", 1)), Cmp.GE, 2))))

    solver = resolve_solver()
    for k in (0, 2, 5, 10, 20, 1000):
        verdict = check(system, initial, keeps_supply, k, solver)
        print(
            f"k={k:4d}: {verdict.result:9s} "
            f"bound={verdict.stats['bound']!s:9s} "
            f"solver_calls={verdict.stats['solver_calls']} "
            f"solver_ms={verdict.stats['solver_ms']:7.1f}"
        )

    # A deadlock cuts every longer path: the one-shot system below can
    # satisfy EG at k=1 but not at k=2, and has no lasso at any k.
    one_shot = Bpp(("A", "B"), (Rule(0, "A", "go", ("B",)),))
    anything = Atom(LinearAtom((("A", 1), ("B", 1)), Cmp.GE, 0))
    for k in (1, 2, 10):
        verdict = check(one_shot, (1, 0), EG(anything), k, solver)
        print(f"one-shot system, k={k}: {verdict.result} "
              f"(bound={verdict.stats['bound']}, solver_calls={verdict.stats['solver_calls']})")


if __name__ == "__main__":
    main()
