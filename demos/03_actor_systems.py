"""Verifying an actor system through its over-approximating conversion.

A single client bounces one message through its own mailbox. The
conversion splits each mailbox counter into an in/out pair so receives
never block; every original behavior survives, so refuted reachability
transfers back to the actor system.

Run:  python demos/03_actor_systems.py
"""

from bppcheck.acs import acs_successors, convert, convert_place
from bppcheck.core import enabled_rules
from bppcheck.ctl import check
from bppcheck.parsing import parse_acs, parse_property
from bppcheck.smt import resolve_solver

SYSTEM = """\
states q0, q1
procs p
msgs m
rules
q0 -> p!m -> q1
q1 -> p?m -> q0
init q0:1
"""


def main() -> None:
    acs, place = parse_acs(SYSTEM)
    cb = convert(acs)
    init = convert_place(cb, place)

    print("converted symbols:", ", ".join(cb.bpp.symbols))
    for rule in cb.bpp.rules:
        print(f"  rule {rule.rid}: {rule.lhs} -> {', '.join(rule.rhs)}")

    solver = resolve_solver()
    for text in ("EF(q0 >= 2)", "EF(q1 >= 2)", "EF(mail(p, m) >= 2)", "EF(mail(p, m) >= 0)"):
        formula = parse_property(text, cb)
        verdict = check(cb.bpp, init, formula, 0, solver)
        print(f"{text:24s} -> {verdict.result}")

    # Where the over-approximation shows: one state that both sends and
    # receives. The counter semantics must send before it can receive; the
    # converted system has both rules enabled immediately.
    loop_acs, loop_place = parse_acs(
        "states q\nprocs p\nmsgs m\nrules\nq -> p!m -> q\nq -> p?m -> q\ninit q:1\n"
    )
    print("original enabled rules:", [rid for rid, _ in acs_successors(loop_acs, loop_place)])
    loop_cb = convert(loop_acs)
    loop_init = convert_place(loop_cb, loop_place)
    print("converted enabled rules:", enabled_rules(loop_init, loop_cb.bpp))


if __name__ == "__main__":
    main()
