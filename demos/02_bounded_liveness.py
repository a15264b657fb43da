"""Bounded liveness: can the system keep a property alive for k steps?

Unbounded EG checking is undecidable here, so the engine unrolls paths to
a fixed depth k: EG(body) holds at bound k when some k-step rule path
satisfies the body at every position. The constraint count grows with k,
and so does solver time; this script makes that visible.

Run:  python demos/02_bounded_liveness.py
"""

from bppcheck.core import Bpp, Rule
from bppcheck.ctl import Atom, Cmp, EG, ENext, LinearAtom
from bppcheck.eg import check_eg, encode_eg
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
    for k in (0, 2, 5, 10, 20):
        encoding = encode_eg(system, initial, keeps_supply, k)
        verdict = check_eg(system, initial, keeps_supply, k, solver)
        print(
            f"k={k:3d}: {verdict.result:9s} "
            f"path_vars={encoding.path_vars_total:4d} "
            f"script_bytes={len(encoding.script.text):6d} "
            f"solver_ms={verdict.stats['solver_ms']:7.1f}"
        )

    # A deadlock cuts every longer path: the one-shot system below can
    # satisfy EG at k=1 but not at k=2.
    one_shot = Bpp(("A", "B"), (Rule(0, "A", "go", ("B",)),))
    anything = Atom(LinearAtom((("A", 1), ("B", 1)), Cmp.GE, 0))
    for k in (1, 2):
        verdict = check_eg(one_shot, (1, 0), EG(anything), k, solver)
        print(f"one-shot system, k={k}: {verdict.result}")


if __name__ == "__main__":
    main()
