"""Exact integer feasibility for conjunctions of linear constraints.

Implements the Omega test: integer Gaussian elimination for equalities
(with the modulus trick for non-unit coefficients), Fourier-Motzkin style
variable elimination for inequalities with exact shadows when a bound
coefficient is 1, and dark-shadow plus splinter enumeration otherwise.
Everything is arbitrary-precision integer arithmetic; a found witness is
re-checked against the input before being returned.

Literals are ``(kind, coeffs, const)`` with kind ``'ge'`` or ``'eq'``,
meaning ``sum(coeffs[v] * v) + const >= 0`` (or ``== 0``).
"""

from __future__ import annotations

import time
from math import gcd

Lit = tuple[str, dict[str, int], int]


class OmegaBudgetExceeded(Exception):
    """The step budget or the deadline ran out; the message says which."""


class _Infeasible(Exception):
    pass


def _tighten(kind: str, coeffs: dict[str, int], const: int) -> Lit | bool:
    """Normalize one literal; returns True/False when it became ground."""
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        return const == 0 if kind == "eq" else const >= 0
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g > 1:
        if kind == "eq":
            if const % g != 0:
                return False
            const //= g
        else:
            const //= g  # floor division tightens: S >= ceil(-k/g)
        coeffs = {v: c // g for v, c in coeffs.items()}
    return (kind, coeffs, const)


def _normalize(lits: list[Lit]) -> list[Lit]:
    out = []
    for kind, coeffs, const in lits:
        t = _tighten(kind, dict(coeffs), const)
        if t is True:
            continue
        if t is False:
            raise _Infeasible()
        out.append(t)
    return out


def _subst(lits: list[Lit], var: str, expr: dict[str, int], expr_const: int) -> list[Lit]:
    """Replace var by the linear expression in every literal."""
    out = []
    for kind, coeffs, const in lits:
        c = coeffs.get(var)
        if c is None:
            out.append((kind, coeffs, const))
            continue
        merged = {v: k for v, k in coeffs.items() if v != var}
        for v, k in expr.items():
            merged[v] = merged.get(v, 0) + c * k
        out.append((kind, merged, const + c * expr_const))
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


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


class _Solver:
    def __init__(self, budget: int, deadline: float | None):
        self.budget = budget
        self.deadline = deadline
        self.steps = 0
        self.fresh = 0

    def charge(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise OmegaBudgetExceeded("omega budget exhausted")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise OmegaBudgetExceeded("timeout")

    def fresh_var(self) -> str:
        self.fresh += 1
        return f"@o{self.fresh}"

    def solve(self, lits: list[Lit]) -> dict[str, int] | None:
        self.charge()
        try:
            lits = _normalize(lits)
        except _Infeasible:
            return None
        if not lits:
            return {}

        eqs = [ln for ln in lits if ln[0] == "eq"]
        if eqs:
            # Prefer an equality with a unit coefficient; the modulus trick
            # appends one, so this choice is what makes it terminate.
            chosen = next(
                (ln for ln in eqs if any(abs(c) == 1 for c in ln[1].values())),
                eqs[0],
            )
            return self._eliminate_eq(lits, chosen)
        return self._eliminate_ineq(lits)

    def _eliminate_eq(self, lits: list[Lit], eq: Lit) -> dict[str, int] | None:
        _, coeffs, const = eq
        unit = None
        for v, c in coeffs.items():
            if abs(c) == 1:
                unit = v
                break
        if unit is not None:
            c = coeffs[unit]
            # c*unit + R + const = 0  =>  unit = -(R + const)/c
            expr = {v: -k // c for v, k in coeffs.items() if v != unit}
            expr_const = -const // c
            rest = [ln for ln in lits if ln is not eq]
            witness = self.solve(_subst(rest, unit, expr, expr_const))
            if witness is None:
                return None
            witness[unit] = _sticky_eval(expr, expr_const, witness)
            return witness

        # No unit coefficient: introduce the symmetric-modulus equation,
        # which has a unit coefficient on the chosen variable.
        var = min(coeffs, key=lambda v: (abs(coeffs[v]), v))
        m = abs(coeffs[var]) + 1

        def modhat(a: int) -> int:
            r = a % m
            return r - m if r > m - r else r

        sigma = self.fresh_var()
        new_coeffs = {v: modhat(c) for v, c in coeffs.items()}
        new_coeffs[sigma] = -m
        new_eq: Lit = ("eq", new_coeffs, modhat(const))
        # modhat(coeffs[var]) is -sign(coeffs[var]), a unit.
        return self.solve(lits + [new_eq])

    def _eliminate_ineq(self, lits: list[Lit]) -> dict[str, int] | None:
        # Choose the variable with the cheapest lower*upper pairing.
        occurrences: dict[str, tuple[int, int]] = {}
        for _, coeffs, _k in lits:
            for v, c in coeffs.items():
                lo, hi = occurrences.get(v, (0, 0))
                if c > 0:
                    lo += 1
                else:
                    hi += 1
                occurrences[v] = (lo, hi)
        var = min(
            occurrences,
            key=lambda v: (occurrences[v][0] * occurrences[v][1], occurrences[v][0] + occurrences[v][1], v),
        )

        lowers: list[tuple[int, dict[str, int], int]] = []  # a*var >= -(R+k): (a, R, k)
        uppers: list[tuple[int, dict[str, int], int]] = []  # b*var <= R+k:    (b, R, k)
        rest: list[Lit] = []
        for kind, coeffs, const in lits:
            c = coeffs.get(var, 0)
            r = {v: k for v, k in coeffs.items() if v != var}
            if c == 0:
                rest.append((kind, coeffs, const))
            elif c > 0:
                lowers.append((c, r, const))
            else:
                uppers.append((-c, r, const))

        def bound_exprs():
            # Lower bound value: a*var >= -(R+k); upper: b*var <= R+k.
            los = [(a, {v: -k for v, k in r.items()}, -k0) for a, r, k0 in lowers]
            ups = [(b, dict(r), k0) for b, r, k0 in uppers]
            return los, ups

        def pick_var(witness: dict[str, int]) -> int:
            los, ups = bound_exprs()
            lo_val = None
            for a, expr, k0 in los:
                v = _ceil_div(_sticky_eval(expr, k0, witness), a)
                lo_val = v if lo_val is None else max(lo_val, v)
            hi_val = None
            for b, expr, k0 in ups:
                v = _sticky_eval(expr, k0, witness) // b
                hi_val = v if hi_val is None else min(hi_val, v)
            if lo_val is not None:
                return lo_val
            if hi_val is not None:
                return hi_val
            return 0

        if not lowers or not uppers:
            witness = self.solve(rest)
            if witness is None:
                return None
            witness[var] = pick_var(witness)
            return witness

        los, ups = bound_exprs()
        exact = all(a == 1 or b == 1 for a, _, _ in los for b, _, _ in ups)

        def shadow(dark: bool) -> list[Lit]:
            out = list(rest)
            for a, a_expr, a_k in los:
                for b, b_expr, b_k in ups:
                    # a*B - b*A >= (a-1)(b-1) for the dark shadow, >= 0 exact.
                    coeffs: dict[str, int] = {}
                    for v, k in b_expr.items():
                        coeffs[v] = coeffs.get(v, 0) + a * k
                    for v, k in a_expr.items():
                        coeffs[v] = coeffs.get(v, 0) - b * k
                    const = a * b_k - b * a_k
                    if dark:
                        const -= (a - 1) * (b - 1)
                    out.append(("ge", coeffs, const))
            return out

        witness = self.solve(shadow(dark=not exact))
        if witness is not None:
            witness[var] = pick_var(witness)
            return witness
        if exact:
            return None

        # Dark shadow failed: enumerate splinters near each lower bound.
        bmax = max(b for b, _, _ in ups)
        for a, a_expr, a_k in los:
            hi = (a * bmax - a - bmax) // bmax
            for i in range(hi + 1):
                eq_coeffs = {v: -k for v, k in a_expr.items()}
                eq_coeffs[var] = eq_coeffs.get(var, 0) + a
                splinter: Lit = ("eq", eq_coeffs, -a_k - i)
                witness = self.solve(lits + [splinter])
                if witness is not None:
                    return witness
        return None


def omega_solve(
    lits: list, budget: int = 200_000, deadline: float | None = None
) -> dict[str, int] | None:
    """Decide a conjunction of integer-linear literals; return a witness
    covering every variable that occurs, or None when infeasible.

    Coefficients may be given as dicts or as (var, coeff) pair sequences.
    Raises OmegaBudgetExceeded past ``budget`` steps or past ``deadline``
    (a ``time.perf_counter()`` value).
    """
    lits = [
        (kind, dict(coeffs) if not isinstance(coeffs, dict) else coeffs, const)
        for kind, coeffs, const in lits
    ]
    solver = _Solver(budget, deadline)
    witness = solver.solve(list(lits))
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
