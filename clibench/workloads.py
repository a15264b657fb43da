"""The three workloads: one round of checks each, built from the seed with
the reference answer of every check.

A round is the unit a run repeats, so every run attempts whole rounds of
the same checks. Each round has a fixed make-up (so many checks of each
kind and verdict); the seed picks the instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import families, reference
from .model import Actors, System, acs_text, atom, problem_text, property_text


@dataclass
class Check:
    """One CLI invocation and what its answer must be."""

    cid: str
    files: dict[str, str]  # file name -> contents, written to the work dir
    args: list[str]  # CLI arguments after ``-m bppcheck``
    expected: str  # holds | not-holds
    formula: tuple
    system: System | None = None  # problem checks: witnesses are replayed on it
    k: int | None = None  # bounded checks
    witness_node: tuple | None = None  # the EF node whose model the CLI prints


def _verdict(value: bool) -> str:
    return "holds" if value else "not-holds"


def problem_check(cid: str, system: System, formula, expected: bool, k: int | None = None,
                  witness_node=None) -> Check:
    name = f"{cid}.bpp"
    args = [name, "--format", "json"]
    if k is not None:
        args += ["-k", str(k)]
    return Check(cid, {name: problem_text(system, formula)}, args, _verdict(expected),
                 formula, system, k, witness_node)


def ef_check(cid: str, system: System, formula, max_states: int = 5000) -> Check | None:
    """An EF-class check, or None when the reference is not definite."""
    try:
        answers = reference.ef_answers(system, formula, max_states)
    except reference.Indefinite:
        return None
    value = reference.eval_ef_class(system, formula, answers)
    # The CLI prints the model of the first EF node (left to right) the
    # solver satisfied; the reference knows which one that is.
    node = next((n for n in reference.ef_nodes(formula) if answers[id(n)]), None)
    return problem_check(cid, system, formula, value, witness_node=node)


def bounded_check(cid: str, system: System, formula, k: int) -> Check | None:
    value = reference.check_bounded(system, formula, k)
    if value is None:
        return None
    return problem_check(cid, system, formula, value, k=k)


def actor_check(cid: str, actors: Actors, formula) -> Check | None:
    """EF over an actor system; the expected verdict is the converted
    system's, and an actor-reachable target must not be refuted."""
    body = formula[1]
    value = reference.check_actor_ef(actors, body)
    if value is None:
        return None
    if reference.actor_reaches(actors, body) and not value:
        raise AssertionError(f"{cid}: reference conversion lost an actor behaviour")
    files = {f"{cid}.acs": acs_text(actors), f"{cid}.prop": property_text(formula)}
    args = [f"{cid}.acs", f"{cid}.prop", "--acs", "--format", "json"]
    return Check(cid, files, args, _verdict(value), formula)


def _draw(make, want: bool | None, attempts: int = 5000) -> Check:
    """Draw instances until one has a definite reference answer (and the
    wanted verdict, when one is asked for)."""
    for _ in range(attempts):
        check = make()
        if check is not None and (want is None or check.expected == _verdict(want)):
            return check
    raise RuntimeError("no instance with a definite reference answer")


# ---------------------------------------------------------------------------
# small-suite
# ---------------------------------------------------------------------------


def small_suite(seed: int) -> list[Check]:
    """21 checks: 8 single-EF (4 holding), 3 combinations of 2-3 EF nodes,
    4 bounded checks at k <= 3 (2 holding), the 3 pingpong properties and
    3 random actor systems with mailbox properties (2 holding)."""
    rng = random.Random(f"small-suite-{seed}")
    checks: list[Check] = []

    for i, want in enumerate((True, False) * 4):
        def make(i=i):
            system = families.random_system(rng)
            return ef_check(f"ef{i}", system, ("ef", families.random_prop(rng, system.symbols)))
        checks.append(_draw(make, want))

    for i, (n_ef, want) in enumerate(((2, True), (2, False), (3, None))):
        def make(i=i, n_ef=n_ef):
            system = families.random_system(rng)
            return ef_check(f"combo{i}", system,
                            families.ef_combination(rng, system.symbols, n_ef))
        checks.append(_draw(make, want))

    for i, want in enumerate((True, False) * 2):
        def make(i=i):
            system = families.random_system(rng, max_symbols=4, max_rules=6, max_rhs=2)
            return bounded_check(f"eg{i}", system, families.bounded_formula(rng, system),
                                 rng.randint(1, 3))
        checks.append(_draw(make, want))

    for i, prop in enumerate(families.PINGPONG_PROPERTIES):
        checks.append(actor_check(f"pingpong{i}", families.PINGPONG, prop))

    for i, want in enumerate((True, False, True)):
        def make(i=i):
            actors = families.random_actors(rng)
            return actor_check(f"acs{i}", actors, families.mailbox_property(rng, actors))
        checks.append(_draw(make, want))
    return checks


# ---------------------------------------------------------------------------
# ef-connectivity
# ---------------------------------------------------------------------------

#: Catalogued instances in strata of like CLI wall time (median of repeated
#: checks on the 2-CPU reference machine, at the commit that added them),
#: with how many each round draws. Ring instances are (n, instance seed);
#: dead-generator instances are (live, dead, instance seed). The median of a
#: round falls between the two dense middle strata. The README lists the
#: instances scanned and left out.
RING_STRATA = (
    (1, ((8, 0), (9, 0), (9, 7), (9, 24), (9, 33), (9, 41))),  # 0.8-1.0 s
    (2, ((8, 10), (9, 3), (9, 17), (9, 36), (10, 33))),  # 1.4-1.6 s
    (1, ((9, 16), (9, 21))),  # 1.9-2.1 s
)
DEAD_STRATA = (
    (1, tuple((2, 2, s) for s in (21, 26, 32, 38))),  # 0.85-0.95 s
    (2, tuple((2, 2, s) for s in (1, 7, 15, 25))),  # 1.65-1.8 s
    (1, tuple((2, 2, s) for s in (3, 11, 14, 30))),  # 2.6-2.9 s
)


def ef_connectivity(seed: int) -> list[Check]:
    """Four reachable ring instances and four refuted dead-generator
    instances, drawn by the seed from the strata above."""
    rng = random.Random(f"ef-connectivity-{seed}")
    checks: list[Check] = []
    for s, (count, stratum) in enumerate(RING_STRATA):
        for n, inst in rng.sample(stratum, count):
            system, f = families.ring_instance(n, inst)
            checks.append(_catalogued(f"ring{s}-n{n}-i{inst}", system, f, "holds"))
    for s, (count, stratum) in enumerate(DEAD_STRATA):
        for live, dead, inst in rng.sample(stratum, count):
            system, f = families.dead_generator_instance(live, dead, inst)
            checks.append(_catalogued(f"dead{s}-{live}x{dead}-i{inst}", system, f,
                                      "not-holds"))
    rng.shuffle(checks)
    return checks


def _catalogued(cid: str, system: System, formula, want: str) -> Check:
    check = ef_check(cid, system, formula, max_states=100_000)
    if check is None or check.expected != want:
        raise RuntimeError(f"{cid}: the reference no longer answers {want}")
    return check


# ---------------------------------------------------------------------------
# eg-deep
# ---------------------------------------------------------------------------

#: (formula maker, k range) per slot of a round; three hold and two do not.
#: Every slot costs the bundled solver 1-1.8 s at its k.
EG_SLOTS = (
    (lambda r: ("eg", ("ex", "a", atom([("Y", 1), ("Z", 1)], ">=", r.randint(1, 2)))),
     (64, 70)),
    (lambda r: ("eg", atom([("Y", 1)], "<=", r.randint(1, 4))), (94, 100)),
    (lambda r: ("eg", atom([("X", 1)], "<=", r.randint(1, 3))), (94, 100)),
    (lambda r: ("af", atom([("Y", 1)], ">=", r.randint(2, 5))), (94, 100)),
    (lambda r: ("af", atom([(r.choice(("X", "Z")), 1)], ">=", r.randint(2, 4))), (94, 100)),
)


def eg_deep(seed: int) -> list[Check]:
    rng = random.Random(f"eg-deep-{seed}")
    checks = []
    for s, (make, (lo, hi)) in enumerate(EG_SLOTS):
        formula, k = make(rng), rng.randint(lo, hi)
        check = bounded_check(f"deep{s}-k{k}", families.LIVENESS, formula, k)
        if check is None:
            raise RuntimeError("the bounded reference ran out of budget")
        checks.append(check)
    return checks


WORKLOADS = {
    "small-suite": small_suite,
    "ef-connectivity": ef_connectivity,
    "eg-deep": eg_deep,
}
