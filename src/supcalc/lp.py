"""Exact linear programming over the rationals.

Problems are stated in the free-variable form

    minimize    c . x
    subject to  a_i . x <= b_i   (inequality rows)
                e_j . x == d_j   (equality rows)

and solved by a two-phase primal simplex.  Pivoting uses Bland's rule
(first improving column, then the minimum-ratio row with the smallest
basic index as deterministic tie-break), so the method terminates and the
answer is a pure function of the input.

The tableau is kept fraction-free: all entries are integers sharing one
positive denominator, updated by the two-term determinant recurrence
(every entry is a minor of the original integer system, so the division
in the update is exact).  This is substantially faster than carrying a
Fraction per cell and keeps bit growth polynomial.

Every result carries an exact certificate.  ``solve_min`` builds its
result and passes it, with the original data, to ``_certify`` -- the one
place any LP answer is checked -- before returning it:

* optimal     -- a feasible point and dual multipliers with sign,
                 complementary slackness, stationarity and equal
                 objective values, all as identities;
* infeasible  -- a Farkas witness (mu, nu) with G^T mu + A^T nu = 0,
                 mu >= 0 and mu.h + nu.b < 0;
* unbounded   -- a feasible point plus a recession direction that
                 strictly improves the objective.

The optimality and Farkas checks share one row combination,
sum mu_i (g_i, h_i) + sum nu_j (a_j, b_j), taken over the nonzero
multipliers only.  A certificate that fails verification raises
LPInternalError; it cannot be silently wrong.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import DimensionMismatchError, LPInternalError
from .rationals import ExtendedRational, NEG_INF, POS_INF, Vec, dot

Row = tuple[Vec, Fraction]  # (a, b) for a.x <= b or a.x == b


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    optimum: ExtendedRational
    primal_point: Vec | None = None
    # optimal: {"mu": ..., "nu": ...}; infeasible: {"farkas_mu": ..., "farkas_nu": ...}
    dual_certificate: dict | None = None
    ray: Vec | None = None  # improving recession direction when unbounded


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _scale_to_int(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Return (k*coeffs as ints, k) for the smallest positive integer k."""
    k = 1
    for c in coeffs:
        k = _lcm(k, c.denominator)
    return [int(c * k) for c in coeffs], k


class _Tableau:
    """Integer simplex tableau with one shared positive denominator.

    The true rational tableau is ``rows / den``; both objective rows are
    carried through every pivot so reduced costs and duals stay readable
    at any point.
    """

    def __init__(self, c: Sequence[Fraction], ineqs: Sequence[Row], eqs: Sequence[Row]):
        n = len(c)
        self.n = n
        self.m1 = len(ineqs)
        self.m2 = len(eqs)
        m = self.m1 + self.m2
        self.m = m
        # column layout: u (n) | v (n) | slacks (m1) | artificials (m) | rhs
        self.col_slack = 2 * n
        self.col_art = 2 * n + self.m1
        self.col_rhs = self.col_art + m
        self.ncols = self.col_rhs + 1
        self.rows: list[list[int]] = []
        self.mult: list[Fraction] = []  # tableau row = mult * original row
        self.deleted = [False] * m
        self.den = 1

        for r, (a, b) in enumerate(list(ineqs) + list(eqs)):
            if len(a) != n:
                raise DimensionMismatchError("constraint arity mismatch")
            ints, k = _scale_to_int(list(a) + [b])
            sgn = -1 if ints[-1] < 0 else 1
            ints = [sgn * t for t in ints]
            row = [0] * self.ncols
            for j in range(n):
                row[j] = ints[j]
                row[n + j] = -ints[j]
            if r < self.m1:
                row[self.col_slack + r] = sgn * k
            row[self.col_art + r] = 1
            row[self.col_rhs] = ints[-1]
            self.rows.append(row)
            self.mult.append(Fraction(sgn * k))

        self.basis = [self.col_art + r for r in range(m)]

        # phase-2 objective, priced out trivially (artificials cost 0 here)
        c_ints, self.cost_scale = _scale_to_int(c)
        self.obj2 = [0] * self.ncols
        for j in range(n):
            self.obj2[j] = c_ints[j]
            self.obj2[n + j] = -c_ints[j]
        # phase-1 objective (sum of artificials), priced out for the
        # all-artificial starting basis
        self.obj1 = [0] * self.ncols
        for row in self.rows:
            for j in range(self.ncols):
                self.obj1[j] -= row[j]
        for r in range(m):
            self.obj1[self.col_art + r] = 0

    def _pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        p = prow[c]
        assert p > 0
        d = self.den
        for target in self.rows + [self.obj1, self.obj2]:
            if target is prow:
                continue
            f = target[c]
            if f == 0:
                if p != d:
                    for j in range(self.ncols):
                        target[j] = target[j] * p // d
            else:
                for j in range(self.ncols):
                    target[j] = (target[j] * p - f * prow[j]) // d
        self.den = p
        self.basis[r] = c

    def _entering(self, obj: list[int]) -> int | None:
        for j in range(self.col_art):  # artificial columns never re-enter
            if obj[j] < 0:
                return j
        return None

    def _leaving(self, c: int) -> int | None:
        best: int | None = None
        bn = bd = 0  # best ratio = bn/bd
        for i in range(self.m):
            if self.deleted[i]:
                continue
            a = self.rows[i][c]
            if a <= 0:
                continue
            rn = self.rows[i][self.col_rhs]
            if best is None:
                best, bn, bd = i, rn, a
                continue
            cmp = rn * bd - bn * a
            if cmp < 0 or (cmp == 0 and self.basis[i] < self.basis[best]):
                best, bn, bd = i, rn, a
        return best

    def run_simplex(self, obj: list[int]) -> int | None:
        """Iterate until optimal (returns None) or unbounded (entering col)."""
        while True:
            c = self._entering(obj)
            if c is None:
                return None
            r = self._leaving(c)
            if r is None:
                return c
            self._pivot(r, c)

    # -- phase 1 ------------------------------------------------------

    def phase1(self) -> Fraction:
        col = self.run_simplex(self.obj1)
        assert col is None, "phase-1 objective is bounded below by zero"
        return Fraction(-self.obj1[self.col_rhs], self.den)

    def drive_out_artificials(self) -> None:
        for r in range(self.m):
            if self.deleted[r] or self.basis[r] < self.col_art:
                continue
            assert self.rows[r][self.col_rhs] == 0
            pivot_col = None
            for j in range(self.col_art):
                if self.rows[r][j] != 0:
                    pivot_col = j
                    break
            if pivot_col is None:
                self.deleted[r] = True  # redundant combination of other rows
                continue
            if self.rows[r][pivot_col] < 0:
                # sign flip of the current row only; mult stays fixed since
                # dual extraction is anchored to the starting matrix
                self.rows[r] = [-t for t in self.rows[r]]
            self._pivot(r, pivot_col)

    # -- extraction ----------------------------------------------------

    def _fold(self, vals: dict[int, Fraction]) -> Vec:
        """x_j = u_j - v_j from the values of the listed columns."""
        zero = Fraction(0)
        return tuple(vals.get(j, zero) - vals.get(self.n + j, zero) for j in range(self.n))

    def primal_x(self) -> Vec:
        return self._fold({
            self.basis[r]: Fraction(self.rows[r][self.col_rhs], self.den)
            for r in range(self.m)
            if not self.deleted[r]
        })

    def duals(self, obj: list[int], art_cost: int, cost_scale: int) -> tuple[Vec, Vec]:
        """Multipliers (mu, nu) of the original rows, read off the artificial columns."""
        ys = []
        for r in range(self.m):
            if self.deleted[r]:
                ys.append(Fraction(0))
                continue
            red = Fraction(obj[self.col_art + r], self.den * cost_scale)
            ys.append(self.mult[r] * (red - Fraction(art_cost, cost_scale)))
        return tuple(ys[: self.m1]), tuple(ys[self.m1 :])

    def ray_from(self, col: int) -> Vec:
        coef = {col: Fraction(1)}
        for i in range(self.m):
            if self.deleted[i]:
                continue
            t = self.rows[i][col]
            if t:
                coef[self.basis[i]] = Fraction(-t, self.den)
        return self._fold(coef)


def _combine(
    mu: Vec, nu: Vec, ineqs: Sequence[Row], eqs: Sequence[Row], n: int
) -> tuple[list[Fraction], Fraction]:
    """(sum mu_i g_i + sum nu_j a_j, sum mu_i h_i + sum nu_j b_j) over nonzero multipliers."""
    if len(mu) != len(ineqs) or len(nu) != len(eqs):
        raise LPInternalError("multiplier count differs from the row count")
    coef = [Fraction(0)] * n
    rhs = Fraction(0)
    for ys, rows in ((mu, ineqs), (nu, eqs)):
        for y, (a, b) in zip(ys, rows):
            if y:
                for p, t in enumerate(a):
                    if t:
                        coef[p] += y * t
                rhs += y * b
    return coef, rhs


def _certify(res: LPResult, c: Vec, ineqs: Sequence[Row], eqs: Sequence[Row]) -> None:
    """Re-check the certificate res carries against the original data.

    Raises LPInternalError on the first check that fails.
    """
    if res.status is LPStatus.INFEASIBLE:
        mu, nu = res.dual_certificate["farkas_mu"], res.dual_certificate["farkas_nu"]
        if any(m < 0 for m in mu):
            raise LPInternalError("Farkas multiplier negative")
        coef, rhs = _combine(mu, nu, ineqs, eqs, len(c))
        if any(coef):
            raise LPInternalError("Farkas combination not null")
        if rhs >= 0:
            raise LPInternalError("Farkas value not negative")
        if res.optimum != POS_INF:
            raise LPInternalError("an infeasible minimum must be +inf")
        return

    x = res.primal_point
    lhs = [dot(a, x) for a, _ in ineqs]
    if any(v > b for v, (_, b) in zip(lhs, ineqs)):
        raise LPInternalError("primal point violates an inequality")
    if any(dot(a, x) != b for a, b in eqs):
        raise LPInternalError("primal point violates an equality")

    if res.status is LPStatus.UNBOUNDED:
        ray = res.ray
        if any(dot(a, ray) > 0 for a, _ in ineqs):
            raise LPInternalError("ray leaves an inequality")
        if any(dot(a, ray) != 0 for a, _ in eqs):
            raise LPInternalError("ray leaves an equality")
        if dot(c, ray) >= 0:
            raise LPInternalError("ray does not improve the objective")
        if res.optimum != NEG_INF:
            raise LPInternalError("an unbounded minimum must be -inf")
        return

    mu, nu = res.dual_certificate["mu"], res.dual_certificate["nu"]
    for m_i, v, (_, b) in zip(mu, lhs, ineqs):
        if m_i < 0:
            raise LPInternalError("negative dual multiplier")
        if m_i != 0 and v != b:
            raise LPInternalError("complementary slackness fails")
    coef, rhs = _combine(mu, nu, ineqs, eqs, len(c))
    if any(c_p + s for c_p, s in zip(c, coef)):
        raise LPInternalError("dual stationarity fails")
    value = dot(c, x)
    if -rhs != value or res.optimum != ExtendedRational.finite(value):
        raise LPInternalError("primal and dual objectives differ")


def solve_min(c: Sequence[Fraction], ineqs: Sequence[Row] = (), eqs: Sequence[Row] = ()) -> LPResult:
    """Minimize c.x subject to the given rows; all data exact rationals."""
    c = tuple(Fraction(t) for t in c)
    ineqs = [(tuple(a), Fraction(b)) for a, b in ineqs]
    eqs = [(tuple(a), Fraction(b)) for a, b in eqs]

    tab = _Tableau(c, ineqs, eqs)
    if tab.phase1() > 0:
        mu, nu = tab.duals(tab.obj1, art_cost=1, cost_scale=1)
        res = LPResult(
            LPStatus.INFEASIBLE, POS_INF,
            dual_certificate={"farkas_mu": mu, "farkas_nu": nu},
        )
    else:
        tab.drive_out_artificials()
        col = tab.run_simplex(tab.obj2)
        x = tab.primal_x()
        if col is not None:
            res = LPResult(LPStatus.UNBOUNDED, NEG_INF, primal_point=x, ray=tab.ray_from(col))
        else:
            value = Fraction(-tab.obj2[tab.col_rhs], tab.den * tab.cost_scale)
            mu, nu = tab.duals(tab.obj2, art_cost=0, cost_scale=tab.cost_scale)
            res = LPResult(
                LPStatus.OPTIMAL,
                ExtendedRational.finite(value),
                primal_point=x,
                dual_certificate={"mu": mu, "nu": nu},
            )
    _certify(res, c, ineqs, eqs)
    return res


def solve_max(c: Sequence[Fraction], ineqs: Sequence[Row] = (), eqs: Sequence[Row] = ()) -> LPResult:
    """Maximize c.x; certificates are those of the minimized negation."""
    res = solve_min(tuple(-Fraction(t) for t in c), ineqs, eqs)
    return replace(res, optimum=-res.optimum)
