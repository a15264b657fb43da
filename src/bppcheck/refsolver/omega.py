"""Exact integer feasibility for conjunctions of linear constraints.

Implements the Omega test: integer Gaussian elimination for equalities
(with the modulus trick for non-unit coefficients), Fourier-Motzkin style
variable elimination for inequalities with exact shadows when a bound
coefficient is 1, and dark-shadow plus splinter enumeration otherwise.
Everything is arbitrary-precision integer arithmetic; a found witness is
re-checked against the input before being returned.

The eliminations run as one loop: each step turns the problem into the
next and records how to recover the eliminated variable; splinters wait on
a LIFO stack. Rows stay tight (nonzero, coprime coefficients), so a step
tightens only the rows it rewrites or creates.

Literals are ``(kind, coeffs, const)`` with kind ``'ge'`` or ``'eq'``,
meaning ``sum(coeffs[v] * v) + const >= 0`` (or ``== 0``).
"""

from __future__ import annotations

import time
from collections import Counter
from math import gcd

Lit = tuple[str, dict[str, int], int]

#: Steps one omega_solve call may take: one per sub-problem and one per
#: generated shadow row.
BUDGET = 200_000


class OmegaBudgetExceeded(Exception):
    """The step budget or the deadline ran out; the message says which."""


def _put(out: list[Lit], kind: str, coeffs: dict[str, int], const: int) -> bool:
    """Append the tightened literal to out, or drop it when it is ground
    true; False when it is ground false."""
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        return const == 0 if kind == "eq" else const >= 0
    g = gcd(*coeffs.values())
    if g > 1:
        if kind == "eq" and const % g != 0:
            return False
        const //= g  # floor division tightens an inequality: S >= ceil(-k/g)
        coeffs = {v: c // g for v, c in coeffs.items()}
    out.append((kind, coeffs, const))
    return True


def _subst(lits: list[Lit], var: str, expr: dict[str, int], expr_const: int) -> list[Lit] | None:
    """Replace var by the linear expression in every literal, tightening the
    rewritten ones; None when one of them became false."""
    out: list[Lit] = []
    for lit in lits:
        kind, coeffs, const = lit
        c = coeffs.get(var)
        if c is None:
            out.append(lit)
            continue
        merged = {v: k for v, k in coeffs.items() if v != var}
        for v, k in expr.items():
            merged[v] = merged.get(v, 0) + c * k
        if not _put(out, kind, merged, const + c * expr_const):
            return None
    return out


def _sticky_eval(expr: dict[str, int], const: int, witness: dict[str, int]) -> int:
    """Evaluate an expression, defaulting unassigned variables to 0 and
    recording those defaults so later back-substitutions stay consistent."""
    total = const
    for v, c in expr.items():
        if v not in witness:
            witness[v] = 0
        total += c * witness[v]
    return total


def _pick(los, ups, witness: dict[str, int]) -> int:
    """The largest lower bound ``a*var >= expr + k`` (los) under the witness,
    else the smallest upper bound ``b*var <= expr + k`` (ups), else 0. Every
    bound is evaluated, so the defaults it records do not depend on which."""
    lo_val = None
    for a, expr, k0 in los:
        v = -(-_sticky_eval(expr, k0, witness) // a)
        lo_val = v if lo_val is None else max(lo_val, v)
    hi_val = None
    for b, expr, k0 in ups:
        v = _sticky_eval(expr, k0, witness) // b
        hi_val = v if hi_val is None else min(hi_val, v)
    if lo_val is not None:
        return lo_val
    return 0 if hi_val is None else hi_val


class _Solver:
    def __init__(self, deadline: float | None):
        self.deadline = deadline
        self.steps = 0
        self.fresh = 0

    def charge(self, units: int = 1) -> None:
        self.steps += units
        if self.steps > BUDGET:
            raise OmegaBudgetExceeded("omega budget exhausted")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise OmegaBudgetExceeded("timeout")

    def fresh_var(self) -> str:
        self.fresh += 1
        return f"@o{self.fresh}"

    def solve(self, lits: list[Lit] | None) -> dict[str, int] | None:
        """Witness for tight rows (None: infeasible), or None. Each loop turn
        is one sub-problem, charged once. Back-substitutions ``(var, los,
        ups)`` for ``_pick`` run in reverse on success. A failed problem moves
        on to the latest splinter left, undoing what was recorded after it."""
        undo: list[tuple] = []
        splinters: list[tuple] = []  # (splinter rows, their base rows, len(undo) there)
        while True:
            self.charge()
            if lits is None:
                while splinters:
                    rows, base, depth = splinters[-1]
                    row = next(rows, None)
                    if row is not None:
                        break
                    splinters.pop()
                else:
                    return None
                del undo[depth:]
                lits = list(base)
                if not _put(lits, *row):
                    lits = None
                continue
            if not lits:
                witness: dict[str, int] = {}
                for var, los, ups in reversed(undo):
                    witness[var] = _pick(los, ups, witness)
                return witness
            # Prefer an equality with a unit coefficient; the modulus trick
            # appends one, so this choice is what makes it terminate.
            eqs = [ln for ln in lits if ln[0] == "eq"]
            if eqs:
                chosen = next(
                    (ln for ln in eqs if any(abs(c) == 1 for c in ln[1].values())),
                    eqs[0],
                )
                lits = self._eliminate_eq(lits, chosen, undo)
            else:
                lits = self._eliminate_ineq(lits, undo, splinters)

    def _eliminate_eq(self, lits: list[Lit], eq: Lit, undo: list) -> list[Lit] | None:
        _, coeffs, const = eq
        unit = next((v for v, c in coeffs.items() if abs(c) == 1), None)
        if unit is not None:
            c = coeffs[unit]
            # c*unit + R + const = 0  =>  unit = -(R + const)/c
            expr = {v: -k // c for v, k in coeffs.items() if v != unit}
            expr_const = -const // c
            undo.append((unit, [(1, expr, expr_const)], []))
            return _subst([ln for ln in lits if ln is not eq], unit, expr, expr_const)

        # No unit coefficient: introduce the symmetric-modulus equation,
        # which has a unit coefficient on the chosen variable.
        var = min(coeffs, key=lambda v: (abs(coeffs[v]), v))
        m = abs(coeffs[var]) + 1

        def modhat(a: int) -> int:
            r = a % m
            return r - m if r > m - r else r

        new_coeffs = {v: modhat(c) for v, c in coeffs.items()}
        new_coeffs[self.fresh_var()] = -m
        # modhat(coeffs[var]) is -sign(coeffs[var]), a unit.
        out = list(lits)
        return out if _put(out, "eq", new_coeffs, modhat(const)) else None

    def _eliminate_ineq(self, lits: list[Lit], undo: list, splinters: list) -> list[Lit] | None:
        # Choose the variable with the cheapest lower*upper pairing.
        lower, upper = Counter(), Counter()
        for _, coeffs, _k in lits:
            for v, c in coeffs.items():
                (lower if c > 0 else upper)[v] += 1
        var = min(lower.keys() | upper.keys(),
                  key=lambda v: (lower[v] * upper[v], lower[v] + upper[v], v))

        # Lower bounds a*var >= A as (a, A, k), upper bounds b*var <= B as (b, B, k).
        los: list[tuple[int, dict[str, int], int]] = []
        ups: list[tuple[int, dict[str, int], int]] = []
        rest: list[Lit] = []
        for lit in lits:
            kind, coeffs, const = lit
            c = coeffs.get(var, 0)
            if c == 0:
                rest.append(lit)
            elif c > 0:
                los.append((c, {v: -k for v, k in coeffs.items() if v != var}, -const))
            else:
                ups.append((-c, {v: k for v, k in coeffs.items() if v != var}, const))
        if not los or not ups:
            undo.append((var, los, ups))
            return rest

        # Every generated row costs a step, so a |lowers| x |uppers| blow-up
        # runs out of budget before the rows are built.
        self.charge(len(los) * len(ups))
        exact = all(a == 1 for a, _, _ in los) or all(b == 1 for b, _, _ in ups)
        if not exact:
            # Tried if the dark shadow fails: splinters near each lower bound.
            splinters.append((self._splinters(var, los, ups), lits, len(undo)))
        undo.append((var, los, ups))
        out = rest
        for a, a_expr, a_k in los:
            for b, b_expr, b_k in ups:
                # a*B - b*A >= (a-1)(b-1) for the dark shadow, >= 0 exact.
                coeffs: dict[str, int] = {}
                for v, k in b_expr.items():
                    coeffs[v] = coeffs.get(v, 0) + a * k
                for v, k in a_expr.items():
                    coeffs[v] = coeffs.get(v, 0) - b * k
                const = a * b_k - b * a_k
                if not exact:
                    const -= (a - 1) * (b - 1)
                if not _put(out, "ge", coeffs, const):
                    return None
        return out

    @staticmethod
    def _splinters(var: str, los, ups):
        """The equalities ``a*var = A + i`` for each lower bound, 0 <= i <=
        (a*bmax - a - bmax) / bmax, in order."""
        bmax = max(b for b, _, _ in ups)
        for a, a_expr, a_k in los:
            for i in range((a * bmax - a - bmax) // bmax + 1):
                eq_coeffs = {v: -k for v, k in a_expr.items()}
                eq_coeffs[var] = a
                yield ("eq", eq_coeffs, -a_k - i)


def omega_solve(lits: list, deadline: float | None = None) -> dict[str, int] | None:
    """Decide a conjunction of integer-linear literals; return a witness
    covering every variable that occurs, or None when infeasible.

    Coefficients may be given as dicts or as (var, coeff) pair sequences.
    Raises OmegaBudgetExceeded past ``BUDGET`` steps or past ``deadline``
    (a ``time.perf_counter()`` value).
    """
    lits = [
        (kind, dict(coeffs) if not isinstance(coeffs, dict) else coeffs, const)
        for kind, coeffs, const in lits
    ]
    rows: list[Lit] | None = []
    if not all(_put(rows, *lit) for lit in lits):
        rows = None
    witness = _Solver(deadline).solve(rows)
    if witness is None:
        return None
    out: dict[str, int] = {}
    for kind, coeffs, const in lits:
        for v in coeffs:
            out[v] = witness.get(v, 0)
    # Witnesses are cheap to re-check; refuse to hand back a bad one.
    for kind, coeffs, const in lits:
        total = sum(c * out.get(v, 0) for v, c in coeffs.items()) + const
        ok = total == 0 if kind == "eq" else total >= 0
        if not ok:
            raise AssertionError(f"omega witness fails literal {(kind, coeffs, const)}")
    return out
