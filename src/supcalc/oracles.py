"""Brute-force oracles that cross-examine the exact kernel.

Everything here decides by evaluation and enumeration: grid suprema for
conjugate values, and row-subset Gaussian elimination for generator
candidates.  No code is shared with the simplex or double-description
machinery, so agreement between an oracle and the kernel is evidence
rather than tautology.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterator, Sequence

from .errors import CapacityError, EmptySetError, InvalidParameterError
from .functions import PolyhedralFunction
from .polyhedron import Polyhedron
from .rationals import Vec, dot, rational, vec, vsub
from .reports import CheckReport, CheckStatus
from .serialize import json_digest

GRID_POINT_CAP = 10**6
# subset-enumeration budget for one generator hunt
SUBSET_CAP = 400_000

Row = tuple[Vec, Fraction]


@dataclass(frozen=True)
class GridSpec:
    """A finite rational lattice: lower + step * k, coordinatewise."""

    lower: Vec
    upper: Vec
    step: Fraction

    @staticmethod
    def make(lower: Sequence, upper: Sequence, step) -> "GridSpec":
        lower, upper = vec(lower), vec(upper)
        step = rational(step)
        if len(lower) != len(upper):
            raise InvalidParameterError("bound arity mismatch")
        if step <= 0:
            raise InvalidParameterError("step must be positive")
        total = 1
        for lo, hi in zip(lower, upper):
            span = (hi - lo) / step
            if span < 0 or span.denominator != 1:
                raise InvalidParameterError(
                    "bounds must differ by a whole number of steps"
                )
            total *= int(span) + 1
            if total > GRID_POINT_CAP:
                raise InvalidParameterError("grid exceeds the point cap")
        return GridSpec(lower, upper, step)

    def points(self) -> Iterator[Vec]:
        axes = [
            [lo + k * self.step for k in range(int((hi - lo) / self.step) + 1)]
            for lo, hi in zip(self.lower, self.upper)
        ]
        return product(*axes)


def grid_legendre(f: PolyhedralFunction, grid: GridSpec, xstar: Sequence) -> Fraction:
    """max over grid points of <x*, x> - f(x): a lower bound on f*(x*)."""
    xstar = vec(xstar)
    if len(xstar) != f.dim or len(grid.lower) != f.dim:
        raise InvalidParameterError("arity mismatch")
    best: Fraction | None = None
    for x in grid.points():
        fx = f.eval(x)
        if not fx.is_finite:
            continue
        value = dot(xstar, x) - fx.finite_value()
        if best is None or value > best:
            best = value
    if best is None:
        raise EmptySetError("the grid misses the domain")
    return best


# ---------------------------------------------------------------------
# exact linear algebra by hand: solve and nullspace over the rationals
# ---------------------------------------------------------------------

def _rref(matrix: list[list[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _solve_unique(rows: Sequence[Vec], rhs: Sequence[Fraction], n: int) -> Vec | None:
    """The unique solution of rows . y = rhs, or None."""
    aug = [list(a) + [b] for a, b in zip(rows, rhs)]
    # a pivot in the rhs column marks an inconsistent system
    _, full_pivots = _rref(aug, n + 1)
    if n in full_pivots:
        return None
    reduced, pivots = _rref(aug, n)
    if len(pivots) < n:
        return None
    sol = [Fraction(0)] * n
    for row, col in zip(reduced, pivots):
        sol[col] = row[n]
    return tuple(sol)


def _nullspace_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    reduced, pivots = _rref([list(r) for r in rows], n)
    free = [c for c in range(n) if c not in pivots]
    basis: list[Vec] = []
    for fcol in free:
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            v[pcol] = -row[fcol]
        basis.append(tuple(v))
    return basis


def _scale_dir(d: Vec) -> Vec:
    den = 1
    for c in d:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in d]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v, g) for v in ints) if g else d


def brute_generators(
    dim: int, ineqs: Sequence[Row], eqs: Sequence[Row] = ()
) -> tuple[list[Vec], list[Vec]]:
    """Generator form by row-subset enumeration, no double description.

    Tight-row subsets of rank dim give vertex candidates; rank dim - 1
    subsets give ray candidates.  The lineality space is split off
    first so the pointed part is enumerable; its basis re-enters as
    paired opposite rays.
    """
    ineqs, eqs = ([(vec(a), rational(b)) for a, b in rows] for rows in (ineqs, eqs))
    normals = [a for a, _ in ineqs] + [a for a, _ in eqs]
    lineality = _nullspace_basis(normals, dim)
    aug_eqs = list(eqs) + [(l, Fraction(0)) for l in lineality]

    def feasible(y: Vec) -> bool:
        return all(dot(a, y) <= b for a, b in ineqs) and all(
            dot(a, y) == b for a, b in eqs
        )

    eq_rows = [a for a, _ in aug_eqs]
    eq_rhs = [b for _, b in aug_eqs]
    budget = 0
    points: set[Vec] = set()
    for size in range(dim + 1):
        for chosen in combinations(ineqs, size):
            budget += 1
            if budget > SUBSET_CAP:
                raise CapacityError("generator enumeration budget exhausted")
            sol = _solve_unique(
                eq_rows + [a for a, _ in chosen],
                eq_rhs + [b for _, b in chosen],
                dim,
            )
            if sol is not None and feasible(sol):
                points.add(sol)

    rays: set[Vec] = set()
    for size in range(dim):
        for chosen in combinations(ineqs, size):
            budget += 1
            if budget > SUBSET_CAP:
                raise CapacityError("generator enumeration budget exhausted")
            space = _nullspace_basis(eq_rows + [a for a, _ in chosen], dim)
            if len(space) != 1:
                continue
            for d in (space[0], tuple(-c for c in space[0])):
                if all(dot(a, d) <= 0 for a, _ in ineqs) and all(
                    dot(a, d) == 0 for a, _ in eqs
                ):
                    rays.add(_scale_dir(d))
    for l in lineality:
        rays.add(_scale_dir(l))
        rays.add(_scale_dir(tuple(-c for c in l)))
    return sorted(points), sorted(rays)


# ---------------------------------------------------------------------
# definitional membership: exact, by linearity-cell enumeration
# ---------------------------------------------------------------------

def _subdiff_candidates(
    f: PolyhedralFunction,
) -> tuple[list[tuple[Vec, Fraction]], list[tuple[Vec, Fraction]]]:
    """Where a linear probe over dom f can peak, with exact values.

    <y*, y> - f(y) is linear on each piece-activity cell, so its
    supremum is decided at cell vertices and along cell rays; a ray
    carries the slope of its active piece.
    """
    verts: dict[Vec, Fraction] = {}
    rays: set[tuple[Vec, Fraction]] = set()
    for k, (a_k, b_k) in enumerate(f.pieces):
        rows = list(f.domain.ineqs)
        rows += [
            (vsub(a_j, a_k), b_k - b_j)
            for j, (a_j, b_j) in enumerate(f.pieces)
            if j != k
        ]
        pts, dirs = brute_generators(f.dim, rows, f.domain.eqs)
        for v in pts:
            verts[v] = dot(a_k, v) + b_k
        for r in dirs:
            rays.add((r, dot(a_k, r)))
    return sorted(verts.items()), sorted(rays)


def _rows_hold(p: Polyhedron, y: Vec) -> bool:
    return all(dot(a, y) <= b for a, b in p.ineqs) and all(
        dot(a, y) == b for a, b in p.eqs
    )


def _bit_reversed(i: int) -> Fraction:
    if i == 0:
        return Fraction(0)
    k = i.bit_length()
    rev = int(format(i, "b").zfill(k)[::-1], 2)
    return Fraction(rev, 1 << k)


def _box_stream(lo: Vec, hi: Vec, seed: int) -> Iterator[Vec]:
    """Deterministic rational low-discrepancy points in a box."""
    n = len(lo)
    i = (seed % 997) * n + 1
    while True:
        point = []
        for j in range(n):
            t = _bit_reversed(i + j)
            point.append(lo[j] + (hi[j] - lo[j]) * t)
        yield tuple(point)
        i += n


def membership_audit(
    p: Polyhedron,
    kind: str,
    *,
    f: PolyhedralFunction | None = None,
    c_set: Polyhedron | None = None,
    x: Sequence,
    eps,
    samples: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Compare row membership in p against the defining inequality.

    kind "subdiff" audits p against { y* : <y*, y - x> <= f(y) - f(x)
    + eps for all y }, kind "normal" against { y* : <y*, y - x> <= eps
    on c_set }.  Samples mix exact vertices, inward and outward vertex
    perturbations, and low-discrepancy box points; the definitional
    verdict is exact, so any disagreement is a genuine fault.
    """
    x = vec(x)
    eps = rational(eps)
    if kind == "subdiff":
        if f is None:
            raise InvalidParameterError("subdiff audits need the function")
        verts, rays = _subdiff_candidates(f)
        fx = f.eval(x)

        def defined(ystar: Vec) -> bool:
            if not fx.is_finite:
                return False
            bound = dot(ystar, x) - fx.finite_value() + eps
            return all(dot(ystar, v) - fv <= bound for v, fv in verts) and all(
                dot(ystar, r) <= s for r, s in rays
            )

        digest = json_digest(["membership", kind, f, p, x, eps, samples, seed])
    elif kind == "normal":
        if c_set is None:
            raise InvalidParameterError("normal audits need the set")
        pts, dirs = brute_generators(c_set.dim, c_set.ineqs, c_set.eqs)
        inside = bool(pts) and all(dot(a, x) <= b for a, b in c_set.ineqs) and all(
            dot(a, x) == b for a, b in c_set.eqs
        )

        def defined(ystar: Vec) -> bool:
            if not inside:
                return False
            return all(dot(ystar, vsub(v, x)) <= eps for v in pts) and all(
                dot(ystar, r) <= 0 for r in dirs
            )

        digest = json_digest(["membership", kind, c_set, p, x, eps, samples, seed])
    else:
        raise InvalidParameterError(f"unknown audit kind {kind!r}")

    p_verts, _ = brute_generators(p.dim, p.ineqs, p.eqs)
    pool: list[Vec] = list(p_verts)
    if p_verts:
        m = len(p_verts)
        centroid = tuple(
            sum(v[j] for v in p_verts) / m for j in range(p.dim)
        )
        pool.append(centroid)
        for v in p_verts:
            for theta in (Fraction(1, 2), Fraction(-1, 16), Fraction(-1, 128)):
                pool.append(
                    tuple(a + theta * (b - a) for a, b in zip(v, centroid))
                )
        lo = tuple(min(v[j] for v in p_verts) - 2 for j in range(p.dim))
        hi = tuple(max(v[j] for v in p_verts) + 2 for j in range(p.dim))
    else:
        lo = tuple(Fraction(-2) for _ in range(p.dim))
        hi = tuple(Fraction(2) for _ in range(p.dim))
    stream = _box_stream(lo, hi, seed)
    while len(pool) < samples:
        pool.append(next(stream))
    pool = pool[:samples]

    member_claims = 0
    for ystar in pool:
        claimed = _rows_hold(p, ystar)
        actual = defined(ystar)
        if claimed != actual:
            witness: dict[str, object] = {"point": ystar, "claimed_member": claimed}
            if claimed and kind == "subdiff" and fx.is_finite:
                bound = dot(ystar, x) - fx.finite_value() + eps
                for v, fv in verts:
                    if dot(ystar, v) - fv > bound:
                        witness["violating_y"] = v
                        break
                else:
                    witness["violating_ray"] = next(
                        r for r, s in rays if dot(ystar, r) > s
                    )
            elif claimed and kind == "normal" and inside:
                for v in pts:
                    if dot(ystar, vsub(v, x)) > eps:
                        witness["violating_y"] = v
                        break
                else:
                    witness["violating_ray"] = next(
                        r for r in dirs if dot(ystar, r) > 0
                    )
            return CheckReport(
                f"membership-{kind}", digest, CheckStatus.FAIL,
                witness=witness,
                details={"samples": len(pool)},
            )
        if claimed:
            member_claims += 1
    return CheckReport(
        f"membership-{kind}", digest, CheckStatus.PASS,
        details={"samples": len(pool), "member_claims": member_claims},
    )
