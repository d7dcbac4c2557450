"""Exact linear programming over the rationals.

Problems are stated in the free-variable form

    minimize    c . x
    subject to  a_i . x <= b_i   (inequality rows)
                e_j . x == d_j   (equality rows)

and solved by ``solve_min``, the one entry point (a caller maximizes by
minimizing the negated cost), with a two-phase primal simplex.
Pivoting uses Bland's rule (first improving column, then the
minimum-ratio row with the smallest basic index as deterministic
tie-break), so the method terminates and the answer is a pure function
of the input.

The tableau is kept fraction-free: all entries are integers over a
positive denominator, updated by the two-term determinant recurrence
(Bareiss 1968; every entry is a minor of the original integer system, so
the division in the update is exact).  This is substantially faster than
carrying a Fraction per cell and keeps bit growth polynomial.

The simplex sees the columns u | v | slacks | artificials of the
standard form, with x = u - v, but a row stores only u, one column per
row and the right-hand side.  The v and slack columns are fixed
multiples of stored ones (v = -u, slack_r = mult_r * art_r) and are
derived when read; see ``_Tableau``.

Phase 1 runs once per row set.  Phase 1 and ``drive_out_artificials``
choose every pivot from the phase-1 objective and the rows, never from
c, so the tableau and basis at the start of phase 2 depend on
(ineqs, eqs) alone.  ``solve_min`` keeps that start, with the rows
scaled to integers, for the last 16 row sets it solved, in a
``functools.lru_cache`` (least recently used out first); for an
infeasible row set it keeps the Farkas multipliers instead.  Each
objective is priced into a copy of the start directly,

    obj2 = den * c_int - sum_r w_r * rows[r] * den / scale[r],

where w_r is c_int[j] when u_j is basic in row r, -c_int[j] when v_j
is, and 0 for a slack or artificial.  These are the integers that
carrying obj2 through phase 1 would give, so phase 2 makes the same
pivots on a kept start as on a new one and every result is the same,
field for field.

A warm solve (``warm=True``, for callers that read only the optimum)
prices its objective into the tableau the last warm solve on the same
row set ended on, or into the start before there is one, and keeps the
tableau its phase 2 ends on in its place.  An optimal or unbounded end
is a primal-feasible basis of the same rows, so it is a valid phase-2
start for any objective, and Bland's rule still terminates from it.
The basis a warm solve ends on, and so its point, multipliers and ray,
depends on the solves before it; its status and optimum do not.  A
warm result is certified like any other and then returned with its
status and optimum only.  Cold solves never read or write that tableau,
so they give the same results whatever warm solves ran before them.

Every result carries an exact certificate.  ``solve_min`` builds its
result and checks it in ``_certify_scaled`` -- the one place any LP
answer is checked, kept start or not -- before returning it
(``_certify`` runs the same check on rows as a caller gives them):

* optimal     -- a feasible point and dual multipliers with sign,
                 complementary slackness, stationarity and equal
                 objective values, all as identities;
* infeasible  -- a Farkas witness (mu, nu) with G^T mu + A^T nu = 0,
                 mu >= 0 and mu.h + nu.b < 0;
* unbounded   -- a feasible point plus a recession direction that
                 strictly improves the objective.

The optimality and Farkas checks share one row combination,
sum mu_i (g_i, h_i) + sum nu_j (a_j, b_j), taken over the nonzero
multipliers only.  The checks run in integers on the caller's rows, each
scaled by the lcm of its denominators (once per row set, shared with the
tableau build), with the point, the ray and the multipliers over common
denominators; they never read the tableau.  A certificate that fails
verification raises LPInternalError; it cannot be silently wrong.
"""
from __future__ import annotations

import enum
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError, LPInternalError
from .rationals import ExtendedRational, NEG_INF, POS_INF, Vec

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


def _scale_to_int(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Return (k*coeffs as ints, k) for the smallest positive integer k.

    Built from numerators and the lcm of the denominators, so one call
    also puts a vector over its common denominator: coeffs = ints / k.
    """
    k = lcm(*[t.denominator for t in coeffs])
    return [t.numerator * (k // t.denominator) for t in coeffs], k


def _reduce(target: list[int], f: int, p: int, d: int, prow: list[int]) -> list[int]:
    """One Bareiss step: (p * target - f * prow) / d, exact in integers."""
    if f == 0:
        return target if p == d else [t * p // d for t in target]
    return [(t * p - f * q) // d for t, q in zip(target, prow)]


def _catch_up(target: list[int], f: int, p: int, d: int, di: int, prow: list[int]) -> list[int]:
    """The Bareiss step for a row last brought up to date at denominator di.

    At d the row would read target * d / di, every entry an integer, so
    ``t * d * p // di`` is exact; f is the row's pivot-column entry at d.
    """
    dp = d * p
    return [(t * dp // di - f * q) // d for t, q in zip(target, prow)]


class _Tableau:
    """Integer simplex tableau over one positive denominator, den.

    The simplex runs on the columns u (n) | v (n) | slacks (m1) |
    artificials (m), with x = u - v; ``basis`` and Bland's order use
    these column indices.  A row stores only n + m + 1 integers:
    u | one column per row | rhs.  Row operations keep every linear
    relation between columns, so the other columns are derived when
    read:

    * v_j = -u_j;
    * slack_r = mult_r * art_r in every constraint row and in obj2, and
      mult_r * (art_r - den) in obj1, whose stored artificial entries
      carry the phase-1 costs (den each) on top of the row combination.

    The true rational tableau is ``rows / den``, except that a pivot
    leaves alone every row whose pivot-column entry is zero: that row
    keeps its integers and the denominator ``scale[i]`` it was last
    updated at, and the true row is ``rows[i] / scale[i]``.  Its entries
    at den are ``rows[i] * den / scale[i]``, exact integers, and it is
    brought there when a pivot next changes it or pivots on it.  Ratio
    tests and signs read the stale integers unchanged.

    obj1 is carried through phase 1 only, since only the infeasible
    branch reads it, before any later pivot.  obj2 is priced at the
    phase-2 start (``priced``) and carried through phase 2.  Rows
    marked ``deleted`` are never read again and are no longer updated.
    """

    def __init__(self, n: int, m1: int, scaled: Sequence[tuple[list[int], int]]):
        """The all-artificial start; ``scaled`` holds _scale_to_int((*a, b)) per row."""
        self.n = n
        self.m1 = m1
        m = len(scaled)
        self.m = m
        self.col_slack = 2 * n
        self.col_art = 2 * n + m1
        self.rows: list[list[int]] = []
        self.mult: list[int] = []  # tableau row = mult * original row
        self.deleted = [False] * m
        self.den = 1
        self.scale = [1] * m  # den at which each row was last updated

        for r, (ints, k) in enumerate(scaled):
            if ints[-1] < 0:
                ints = [-t for t in ints]
                k = -k
            row = ints[:n] + [0] * m + ints[n:]
            row[n + r] = 1
            self.rows.append(row)
            self.mult.append(k)

        self.basis = [self.col_art + r for r in range(m)]

        # phase-1 objective (sum of artificials), priced out for the
        # all-artificial starting basis
        self.obj1 = [-sum(col) for col in zip(*self.rows)] if m else [0] * (n + 1)
        self.obj1[n : n + m] = [0] * m
        self.objs = (self.obj1,)

    def _column(self, c: int) -> tuple[int, int]:
        """(s, k): column c is k times stored column s (obj1 slacks aside)."""
        n = self.n
        if c < n:
            return c, 1
        if c < self.col_slack:
            return c - n, -1
        if c < self.col_art:
            return n + c - self.col_slack, self.mult[c - self.col_slack]
        return n + c - self.col_art, 1

    def _obj_entry(self, obj: list[int], c: int) -> int:
        s, k = self._column(c)
        if obj is self.obj1 and self.col_slack <= c < self.col_art:
            return k * (obj[s] - self.den)
        return k * obj[s]

    def _pivot(self, r: int, c: int) -> None:
        s, k = self._column(c)
        d = self.den
        rows, scale, deleted = self.rows, self.scale, self.deleted
        if scale[r] != d:
            rows[r] = [t * d // scale[r] for t in rows[r]]
        prow = rows[r]
        p = k * prow[s]
        assert p > 0
        for i, target in enumerate(rows):
            if i == r or deleted[i] or not target[s]:
                continue
            di = scale[i]
            if di == d:
                rows[i] = _reduce(target, k * target[s], p, d, prow)
            else:
                rows[i] = _catch_up(target, k * target[s] * d // di, p, d, di, prow)
            scale[i] = p
        for obj in self.objs:
            obj[:] = _reduce(obj, self._obj_entry(obj, c), p, d, prow)
        scale[r] = p
        self.den = p
        self.basis[r] = c

    def _entering(self, obj: list[int]) -> int | None:
        """Bland's first improving column: u, then v, then slacks."""
        n = self.n
        for j in range(n):
            if obj[j] < 0:
                return j
        for j in range(n):
            if obj[j] > 0:
                return n + j
        shift = self.den if obj is self.obj1 else 0
        for r in range(self.m1):
            if self.mult[r] * (obj[n + r] - shift) < 0:
                return self.col_slack + r
        return None  # artificial columns never re-enter

    def _leaving(self, c: int) -> int | None:
        s, k = self._column(c)
        best: int | None = None
        bn = bd = 0  # best ratio = bn/bd
        for i, row in enumerate(self.rows):
            if self.deleted[i]:
                continue
            a = k * row[s]
            if a <= 0:
                continue
            rn = row[-1]
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
        self.objs = ()
        return Fraction(-self.obj1[-1], self.den)

    def drive_out_artificials(self) -> None:
        n = self.n
        for r in range(self.m):
            if self.deleted[r] or self.basis[r] < self.col_art:
                continue
            row = self.rows[r]
            assert row[-1] == 0
            # first nonzero column in Bland's order; v_j is nonzero
            # exactly when u_j is, and slack_q exactly when art_q is
            pivot_col = next((j for j in range(n) if row[j]), None)
            if pivot_col is None:
                pivot_col = next(
                    (self.col_slack + q for q in range(self.m1) if row[n + q]), None
                )
            if pivot_col is None:
                self.deleted[r] = True  # redundant combination of other rows
                continue
            s, k = self._column(pivot_col)
            if k * row[s] < 0:
                # sign flip of the current row only; mult stays fixed since
                # dual extraction is anchored to the starting matrix
                self.rows[r] = [-t for t in row]
            self._pivot(r, pivot_col)

    def priced(self, cost: list[int]) -> "_Tableau":
        """A copy of this phase-2 start carrying obj2 for the cost row ``cost``.

        obj2 = den * cost - sum_r w_r * rows[r] * den / scale[r], where w_r
        is cost_j when u_j is basic in row r, -cost_j when v_j is, and 0
        for a slack or artificial; every term is an exact integer.  The
        row lists are shared: no pivot changes a row list in place.
        """
        tab = copy(self)
        tab.rows, tab.scale = list(self.rows), list(self.scale)
        tab.deleted, tab.basis = list(self.deleted), list(self.basis)
        n, den = self.n, self.den
        obj2 = [den * t for t in cost] + [0] * (self.m + 1)
        for r, b in enumerate(self.basis):
            if b >= self.col_slack:
                continue
            w = cost[b] if b < n else -cost[b - n]
            if not w:
                continue
            row, s = self.rows[r], self.scale[r]
            if s == den:
                obj2 = [t - w * q for t, q in zip(obj2, row)]
            else:
                wd = w * den
                obj2 = [t - wd * q // s for t, q in zip(obj2, row)]
        tab.obj2 = obj2
        tab.objs = (obj2,)
        return tab

    # -- extraction ----------------------------------------------------

    def _fold(self, vals: dict[int, Fraction]) -> Vec:
        """x_j = u_j - v_j from the values of the listed columns."""
        zero = Fraction(0)
        return tuple(vals.get(j, zero) - vals.get(self.n + j, zero) for j in range(self.n))

    def primal_x(self) -> Vec:
        return self._fold({
            self.basis[r]: Fraction(self.rows[r][-1], self.scale[r])
            for r in range(self.m)
            if not self.deleted[r]
        })

    def duals(self, obj: list[int], art_cost: int, cost_scale: int) -> tuple[Vec, Vec]:
        """Multipliers (mu, nu) of the original rows, read off the artificial columns."""
        n, den = self.n, self.den
        ys = [
            Fraction(0) if self.deleted[r]
            else Fraction(self.mult[r] * (obj[n + r] - art_cost * den), den * cost_scale)
            for r in range(self.m)
        ]
        return tuple(ys[: self.m1]), tuple(ys[self.m1 :])

    def ray_from(self, col: int) -> Vec:
        s, k = self._column(col)
        coef = {col: Fraction(1)}
        for i, row in enumerate(self.rows):
            if self.deleted[i]:
                continue
            t = k * row[s]
            if t:
                coef[self.basis[i]] = Fraction(-t, self.scale[i])
        return self._fold(coef)


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    """a . b over the first len(b) entries of a (a row may carry its rhs last)."""
    return sum(map(mul, a, b))


def _over_one_denominator(v: Sequence[Fraction], n: int) -> tuple[list[int], int]:
    """(V, D) with v = V / D, D > 0; a length other than n is refused like dot's."""
    if len(v) != n:
        raise DimensionMismatchError(f"dot: {n} vs {len(v)}")
    return _scale_to_int(v)


def _combine(
    mu: Vec, nu: Vec, rows: Sequence[tuple[list[int], int]], m1: int, n: int
) -> tuple[list[int], int, int]:
    """(S, T, M) with sum mu_i (g_i, h_i) + sum nu_j (a_j, b_j) = (S, T) / M.

    ``rows`` holds each caller row as (k (a | b) in integers, k), the
    inequalities first.  Only nonzero multipliers enter; each y / k is
    put over the common denominator M > 0.
    """
    if len(mu) != m1 or len(nu) != len(rows) - m1:
        raise LPInternalError("multiplier count differs from the row count")
    terms = [(y, row, k) for y, (row, k) in zip((*mu, *nu), rows) if y]
    big = lcm(*[y.denominator * k for y, _, k in terms])
    coef = [0] * (n + 1)
    for y, row, k in terms:
        w = y.numerator * (big // (y.denominator * k))
        for p, t in enumerate(row):
            if t:
                coef[p] += w * t
    return coef[:n], coef[n], big


def _scaled_rows(n: int, ineqs: Sequence[Row], eqs: Sequence[Row]) -> list[tuple[list[int], int]]:
    """_scale_to_int((*a, b)) for every row, the inequalities first."""
    rows = []
    for a, b in (*ineqs, *eqs):
        if len(a) != n:
            raise DimensionMismatchError("constraint arity mismatch")
        rows.append(_scale_to_int((*a, b)))
    return rows


def _certify(res: LPResult, c: Vec, ineqs: Sequence[Row], eqs: Sequence[Row]) -> None:
    """Re-check the certificate res carries against the original data.

    Reads only (c, ineqs, eqs) and res.  Every check runs in integers:
    each row is scaled by the lcm of its denominators, and the point,
    the ray and the multipliers are put over common denominators.
    Raises LPInternalError on the first check that fails.
    """
    _certify_scaled(res, c, _scaled_rows(len(c), ineqs, eqs), len(ineqs))


def _certify_scaled(res: LPResult, c: Vec, rows: Sequence[tuple[list[int], int]], m1: int) -> None:
    """_certify on the caller's rows already scaled by _scaled_rows."""
    n = len(c)
    if res.status is LPStatus.INFEASIBLE:
        mu, nu = res.dual_certificate["farkas_mu"], res.dual_certificate["farkas_nu"]
        if any(y < 0 for y in mu):
            raise LPInternalError("Farkas multiplier negative")
        coef, rhs, _ = _combine(mu, nu, rows, m1, n)
        if any(coef):
            raise LPInternalError("Farkas combination not null")
        if rhs >= 0:
            raise LPInternalError("Farkas value not negative")
        if res.optimum != POS_INF:
            raise LPInternalError("an infeasible minimum must be +inf")
        return

    cost, cost_scale = _scale_to_int(c)
    x, x_den = _over_one_denominator(res.primal_point, n)
    lhs = [_idot(row, x) for row, _ in rows]  # k * a.x * x_den per row
    if any(v > row[-1] * x_den for v, (row, _) in zip(lhs[:m1], rows)):
        raise LPInternalError("primal point violates an inequality")
    if any(v != row[-1] * x_den for v, (row, _) in zip(lhs[m1:], rows[m1:])):
        raise LPInternalError("primal point violates an equality")

    if res.status is LPStatus.UNBOUNDED:
        ray, _ = _over_one_denominator(res.ray, n)
        if any(_idot(row, ray) > 0 for row, _ in rows[:m1]):
            raise LPInternalError("ray leaves an inequality")
        if any(_idot(row, ray) != 0 for row, _ in rows[m1:]):
            raise LPInternalError("ray leaves an equality")
        if _idot(cost, ray) >= 0:
            raise LPInternalError("ray does not improve the objective")
        if res.optimum != NEG_INF:
            raise LPInternalError("an unbounded minimum must be -inf")
        return

    mu, nu = res.dual_certificate["mu"], res.dual_certificate["nu"]
    for y, v, (row, _) in zip(mu, lhs, rows[:m1]):
        if y < 0:
            raise LPInternalError("negative dual multiplier")
        if y != 0 and v != row[-1] * x_den:
            raise LPInternalError("complementary slackness fails")
    coef, rhs, big = _combine(mu, nu, rows, m1, n)
    # c + coef / big = 0 with c = cost / cost_scale
    if any(t * big + cost_scale * s for t, s in zip(cost, coef)):
        raise LPInternalError("dual stationarity fails")
    # c.x = cost.x / (cost_scale * x_den) must equal -rhs / big
    value = _idot(cost, x)
    if (-rhs * cost_scale * x_den != value * big
            or res.optimum != ExtendedRational.finite(Fraction(value, cost_scale * x_den))):
        raise LPInternalError("primal and dual objectives differ")


class _RowSet:
    """What solve_min keeps of one row set.

    ``scaled`` is the rows scaled by _scaled_rows, read by the tableau
    and by the certificate check.  ``start`` is the tableau after phase
    1 and drive_out_artificials, or None when the rows are infeasible;
    ``farkas`` then holds their Farkas multipliers (mu, nu).  ``last``
    is the tableau the last warm solve ended on, or None before one.
    """

    __slots__ = ("m1", "scaled", "start", "farkas", "last")

    def __init__(self, n: int, ineqs: Sequence[Row], eqs: Sequence[Row]):
        self.m1 = len(ineqs)
        self.scaled = _scaled_rows(n, ineqs, eqs)
        tab = _Tableau(n, self.m1, self.scaled)
        self.start = self.farkas = self.last = None
        if tab.phase1() > 0:
            self.farkas = tab.duals(tab.obj1, art_cost=1, cost_scale=1)
        else:
            tab.drive_out_artificials()
            self.start = tab


# the last 16 row sets solve_min saw, least recently used out first;
# the key is hashed once per call.  An int right-hand side stays an
# int, which hashes and compares in C and equals the Fraction it would
# become, so both share one row set
_row_set = lru_cache(maxsize=16)(_RowSet)


def solve_min(
    c: Sequence[Fraction], ineqs: Sequence[Row] = (), eqs: Sequence[Row] = (), *, warm: bool = False
) -> LPResult:
    """Minimize c.x subject to the given rows; all data exact rationals.

    With ``warm`` set, phase 2 starts from the tableau the last warm
    solve on these rows ended on, and the result carries only its status
    and optimum (see the module docstring).
    """
    c = tuple(Fraction(t) for t in c)
    ineqs = tuple((tuple(a), b if type(b) is int else Fraction(b)) for a, b in ineqs)
    eqs = tuple((tuple(a), b if type(b) is int else Fraction(b)) for a, b in eqs)

    rs = _row_set(len(c), ineqs, eqs)
    if rs.start is None:
        mu, nu = rs.farkas
        res = LPResult(
            LPStatus.INFEASIBLE, POS_INF,
            dual_certificate={"farkas_mu": mu, "farkas_nu": nu},
        )
    else:
        cost, cost_scale = _scale_to_int(c)
        tab = (rs.last if warm and rs.last is not None else rs.start).priced(cost)
        col = tab.run_simplex(tab.obj2)
        if warm:
            rs.last = tab
        x = tab.primal_x()
        if col is not None:
            res = LPResult(LPStatus.UNBOUNDED, NEG_INF, primal_point=x, ray=tab.ray_from(col))
        else:
            value = Fraction(-tab.obj2[-1], tab.den * cost_scale)
            mu, nu = tab.duals(tab.obj2, art_cost=0, cost_scale=cost_scale)
            res = LPResult(
                LPStatus.OPTIMAL,
                ExtendedRational.finite(value),
                primal_point=x,
                dual_certificate={"mu": mu, "nu": nu},
            )
    _certify_scaled(res, c, rs.scaled, rs.m1)
    return LPResult(res.status, res.optimum) if warm else res

