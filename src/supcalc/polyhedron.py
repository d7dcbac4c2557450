"""Convex polyhedra with exact dual representations.

A polyhedron is stored by constraints (H-form)

    P = { x : a_i . x <= b_i,  e_j . x == d_j }

and can produce a generator form (V-form): a finite set of points V and
rays R with  P = conv(V) + cone(R).  Unbounded lines are encoded as two
opposite rays.  When P is not pointed the points in V are not extreme
points of P (none exist); they are a minimal set of representatives
produced by the conversion, which is deterministic.

The rows are stored in one canonical form: each row (a, b) is a tuple
of coprime ``int`` coefficients a and an ``int`` right-hand side b, an
equality's first nonzero entry is positive, and the rows are sorted
without repeats, so equal inputs give equal rows.  Points, generators
and LP results are ``Fraction``s.  Membership is decided in integers on
the stored rows.

Conversion in both directions runs the double description method on the
homogenization cone  {(x, t) : a_i.x <= b_i t, e_j.x == d_j t, t >= 0}:
rays with t > 0 map to points of P, rays with t = 0 to recession
directions, and lineality basis vectors to lines.  The V->H direction is
the same computation applied to the polar cone, whose extreme rays are
the facet normals.  Generators are canonicalized too (fixed sort order,
coprime integer rays), so equal inputs give byte-equal outputs.

A hull built from generators keeps that one V->H conversion and reads
its own generators off it, with no second conversion, when its cone is
pointed (no line).  In a pointed cone the extreme rays are exactly the
given generators whose set of tight facets lies in no other given
generator's set (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
Prodon 1996).  A hull with a line converts its rows as any set does.
Either read is only as complete as the V->H conversion.

Conversions refuse to run above a dimension cap (default 6) which can be
overridden through the SUPCALC_DD_CAP environment variable.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    DimensionMismatchError,
    EmptySetError,
    InvalidParameterError,
)
from .lp import LPResult, LPStatus, Row, _idot, _scale_to_int, solve_max, solve_min
from .rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    Vec,
    dot,
    vadd,
    vec,
    zeros,
)

DEFAULT_DD_CAP = 6


def dd_dimension_cap() -> int:
    raw = os.environ.get("SUPCALC_DD_CAP")
    if raw is None:
        return DEFAULT_DD_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"SUPCALC_DD_CAP not an integer: {raw!r}") from exc
    if cap < 1:
        raise InvalidParameterError("SUPCALC_DD_CAP must be positive")
    return cap


# ============================================================
# Integer vector helpers
# ============================================================

IVec = tuple[int, ...]
IRow = tuple[IVec, int]  # a canonical stored row (a, b)


def _primitive(v: Sequence[int]) -> IVec:
    """v divided by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    return tuple(t // g for t in v) if g > 1 else tuple(v)


def _int_normalize(entries: Sequence[Fraction]) -> IVec:
    """Scale by a positive rational to coprime integers (direction kept)."""
    return _primitive(_scale_to_int(entries)[0])


def _sign_normalize(v: IVec) -> IVec:
    for t in v:
        if t != 0:
            return v if t > 0 else tuple(-x for x in v)
    return v


def _icomb(ca: int, a: IVec, cb: int, b: IVec) -> IVec:
    return _primitive([ca * x + cb * y for x, y in zip(a, b)])


# ============================================================
# Double description on a cone {y : <m, y> <= 0}
# ============================================================

def dd_cone(norms: Sequence[IVec], dim: int) -> tuple[list[IVec], list[IVec]]:
    """Extreme rays and a lineality basis of an H-form cone.

    Incremental double description: a lineality basis L and a ray list R
    are maintained so that the cone cut out by the constraints processed
    so far equals span(L) + cone(R), with R irredundant modulo L.  A new
    constraint either consumes one lineality direction or splits R by
    sign, combining adjacent (positive, negative) pairs.  Adjacency is
    the standard combinatorial test on zero-sets of processed rows: no
    third ray is tight at every row both rays are tight at.

    A rank prefilter skips a pair before that O(|R|) scan when the two
    rays share fewer than dim - |L| - 2 tight rows (Motzkin, Raiffa,
    Thompson & Thrall 1953; Fukuda & Prodon 1996).  Two adjacent rays
    span, with L, a face of dimension |L| + 2, and the rows tight on a
    face have rank dim minus its dimension, so they number at least
    dim - |L| - 2.  The filter therefore drops only pairs that the
    combinatorial test would reject, and the output and its order are
    unchanged.
    """
    lines: list[IVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[IVec] = []
    zsets: list[int] = []  # bitmask of processed constraints tight at the ray

    seen: set[IVec] = set()
    todo: list[IVec] = []
    for m in norms:
        if all(t == 0 for t in m):
            continue
        if m not in seen:
            seen.add(m)
            todo.append(m)

    for idx, m in enumerate(todo):
        vals_l = [_idot(m, l) for l in lines]
        j0 = next((j for j, v in enumerate(vals_l) if v != 0), None)
        if j0 is not None:
            l0, v0 = lines[j0], vals_l[j0]
            new_lines = []
            for j, l in enumerate(lines):
                if j == j0:
                    continue
                if vals_l[j] == 0:
                    new_lines.append(l)
                else:
                    new_lines.append(_sign_normalize(_icomb(v0, l, -vals_l[j], l0)))
            new_rays, new_z = [], []
            for r, z in zip(rays, zsets):
                vr = _idot(m, r)
                if vr == 0:
                    new_rays.append(r)
                else:
                    comb = _icomb(v0, r, -vr, l0)
                    if v0 < 0:
                        comb = tuple(-t for t in comb)
                    new_rays.append(comb)
                new_z.append(z | (1 << idx))
            boundary = tuple(-t for t in l0) if v0 > 0 else l0
            new_rays.append(boundary)
            new_z.append((1 << idx) - 1)
            lines, rays, zsets = new_lines, new_rays, new_z
            continue

        vals_r = [_idot(m, r) for r in rays]
        if all(v <= 0 for v in vals_r):
            zsets = [
                z | (1 << idx) if v == 0 else z for z, v in zip(zsets, vals_r)
            ]
            continue

        keep_rays, keep_z = [], []
        pos, neg = [], []
        for k, v in enumerate(vals_r):
            if v > 0:
                pos.append(k)
            else:
                if v < 0:
                    neg.append(k)
                    keep_z.append(zsets[k])
                else:
                    keep_z.append(zsets[k] | (1 << idx))
                keep_rays.append(rays[k])

        need = dim - len(lines) - 2
        for kp in pos:
            zp = zsets[kp]
            for kn in neg:
                zc = zp & zsets[kn]
                if zc.bit_count() < need:
                    continue
                # the pair's own zero-sets contain zc; a third one rules adjacency out
                if next(islice((z for z in zsets if z & zc == zc), 2, None), None) is not None:
                    continue
                w = _icomb(vals_r[kp], rays[kn], -vals_r[kn], rays[kp])
                keep_rays.append(w)
                keep_z.append(zc | (1 << idx))
        rays, zsets = keep_rays, keep_z

    return rays, lines


# ============================================================
# Polyhedron
# ============================================================

def _canonical_rows(rows: Iterable[Row], dim: int, equality: bool) -> tuple[tuple[IRow, ...], bool]:
    """Canonical integer rows (a, b); second result reports syntactic infeasibility."""
    out = set()
    infeasible = False
    for a, b in rows:
        a = tuple(a)
        if len(a) != dim:
            raise DimensionMismatchError("constraint arity mismatch")
        # an integer row, such as another Polyhedron's or a generator ray
        # in Fractions, skips the Fraction round trip
        integral = all(
            type(t) is int or (type(t) is Fraction and t.denominator == 1) for t in (*a, b)
        )
        if integral:
            *a, b = (t.numerator for t in (*a, b))
        else:
            *a, b = vec((*a, b))
        if not any(a):
            if (equality and b != 0) or (not equality and b < 0):
                infeasible = True
            continue
        row = _primitive((*a, b)) if integral else _int_normalize((*a, b))
        if equality:
            row = _sign_normalize(row)
        out.add(row)
    return tuple((r[:-1], r[-1]) for r in sorted(out)), infeasible


@dataclass(frozen=True)
class Polyhedron:
    """Immutable H-form polyhedron; V-form computed on demand and cached."""

    dim: int
    ineqs: tuple[IRow, ...]
    eqs: tuple[IRow, ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def from_hrep(dim: int, ineqs: Iterable[Row] = (), eqs: Iterable[Row] = ()) -> "Polyhedron":
        if dim < 1:
            raise InvalidParameterError("dimension must be at least 1")
        rows_i, bad_i = _canonical_rows(ineqs, dim, equality=False)
        rows_e, bad_e = _canonical_rows(eqs, dim, equality=True)
        if bad_i or bad_e:
            return Polyhedron.empty(dim)
        return Polyhedron(dim, rows_i, rows_e)

    @staticmethod
    def from_generators(dim: int, vertices: Iterable[Vec] = (), rays: Iterable[Vec] = ()) -> "Polyhedron":
        """conv(vertices) + cone(rays), by one V->H conversion.

        The hull keeps that conversion: the homogenized generators and
        the extreme rays and lineality basis of their polar cone.  The
        first read of ``generators`` takes its V-form from them when the
        hull has no line, and then drops them; see ``generators``.
        """
        if dim < 1:
            raise InvalidParameterError("dimension must be at least 1")
        vs = [vec(v) for v in vertices]
        rs = [vec(r) for r in rays]
        for g in vs + rs:
            if len(g) != dim:
                raise DimensionMismatchError("generator arity mismatch")
        rs = [r for r in rs if any(t != 0 for t in r)]
        if not vs:
            return Polyhedron.empty(dim)
        _check_cap(dim)
        norms = [_int_normalize((*v, 1)) for v in vs] + [_int_normalize((*r, 0)) for r in rs]
        polar_rays, polar_lines = dd_cone(norms, dim + 1)
        hull = Polyhedron.from_hrep(
            dim, [(g[:-1], -g[-1]) for g in polar_rays], [(g[:-1], -g[-1]) for g in polar_lines]
        )
        if hull != Polyhedron.empty(dim):
            kept = vars(hull)  # where the cached_property values sit
            kept["is_empty"] = False  # it holds the given vertices
            kept["_conversion"] = (norms, polar_rays, polar_lines)
        return hull

    @staticmethod
    def empty(dim: int) -> "Polyhedron":
        return Polyhedron(dim, (((0,) * dim, -1),), ())

    @staticmethod
    def full_space(dim: int) -> "Polyhedron":
        return Polyhedron.from_hrep(dim)

    @staticmethod
    def box(lo: Sequence, hi: Sequence) -> "Polyhedron":
        lo, hi = vec(lo), vec(hi)
        dim = len(lo)
        if len(hi) != dim:
            raise DimensionMismatchError("box bounds arity mismatch")
        rows: list[Row] = []
        for i in range(dim):
            e = tuple(int(j == i) for j in range(dim))
            rows.append((e, hi[i]))
            rows.append((tuple(-t for t in e), -lo[i]))
        return Polyhedron.from_hrep(dim, rows)

    @staticmethod
    def single_point(x: Sequence) -> "Polyhedron":
        x = vec(x)
        eqs = [(tuple(int(j == i) for j in range(len(x))), x[i]) for i in range(len(x))]
        return Polyhedron.from_hrep(len(x), (), eqs)

    # -- basic predicates ---------------------------------------------

    @cached_property
    def is_empty(self) -> bool:
        """Does P contain no point?  The one emptiness rule.

        Within ``dd_dimension_cap()`` it is read off the generators,
        built now if they are not yet: P is empty exactly when its
        homogenization cone has no ray with t > 0, that is, when the
        conversion yields no point.  Above the cap one phase-1 LP
        decides, so an empty set is told apart before any conversion
        could raise ``CapacityError``.  The one other writer of this
        answer is ``interior_point``, whose max-slack LP, solved for its
        point anyway, is negative exactly on an empty set; it keeps that
        exact answer here rather than pay a conversion for it later.
        """
        if self.dim <= dd_dimension_cap():
            return not self.generators[0]
        res = solve_min(zeros(self.dim), self.ineqs, self.eqs)
        return res.status is LPStatus.INFEASIBLE

    def _residuals(self, x: Sequence, cone: bool = False) -> tuple[Iterator[int], Iterator[int]]:
        """D (a.x - b) over the inequality rows and over the equality rows, lazily.

        D > 0 is x's common denominator, so each residual has the sign
        of a.x - b.  With ``cone`` every b reads 0: the rows of the
        recession cone.
        """
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatchError("point arity mismatch")
        ints, den = _scale_to_int(x)
        if cone:
            den = 0
        return tuple(
            (_idot(a, ints) - b * den for a, b in rows) for rows in (self.ineqs, self.eqs)
        )

    def contains(self, x: Sequence) -> bool:
        ineqs, eqs = self._residuals(x)
        return all(v <= 0 for v in ineqs) and not any(eqs)

    def contains_in_interior(self, x: Sequence) -> bool:
        """Membership in the topological interior (not merely relative)."""
        ineqs, _ = self._residuals(x)
        return not self.eqs and all(v < 0 for v in ineqs)

    def contains_ray(self, r: Sequence) -> bool:
        """Does the recession cone contain direction r?"""
        ineqs, eqs = self._residuals(r, cone=True)
        return all(v <= 0 for v in ineqs) and not any(eqs)

    # -- generator form -----------------------------------------------

    @cached_property
    def generators(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(points, rays) with P = conv(points) + cone(rays), canonical.

        A hull from ``from_generators`` whose cone is pointed reads them
        off the conversion that built it (``_kept_generators``), so that
        read runs no conversion and raises no ``CapacityError``, even
        with ``SUPCALC_DD_CAP`` lowered after the hull was built.  Any
        other set, a hull with a line included, runs the double
        description on its rows.
        """
        kept = vars(self).pop("_conversion", None)
        if kept is not None:
            read = _kept_generators(self.dim, *kept)
            if read is not None:
                return read
        _check_cap(self.dim)
        norms = [(*a, -b) for a, b in self.ineqs]
        for a, b in self.eqs:
            norms += [(*a, -b), (*(-t for t in a), b)]
        norms.append(tuple([0] * self.dim + [-1]))  # homogenizing t >= 0
        hom_rays, hom_lines = dd_cone(norms, self.dim + 1)

        verts: set[Vec] = set()
        rays: set[IVec] = set()
        for r in hom_rays:
            t = r[-1]
            if t > 0:
                verts.add(tuple(Fraction(c, t) for c in r[:-1]))
            elif any(c != 0 for c in r[:-1]):
                rays.add(_primitive(r[:-1]))
        for l in hom_lines:
            body = l[:-1]
            if any(c != 0 for c in body):
                rays.add(body)
                rays.add(tuple(-c for c in body))
        if not verts:
            return ((), ())
        ray_vecs = tuple(
            tuple(Fraction(c) for c in r) for r in sorted(rays)
        )
        return (tuple(sorted(verts)), ray_vecs)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return self.generators[0]

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self.generators[1]


def _check_cap(dim: int) -> None:
    cap = dd_dimension_cap()
    if dim > cap:
        raise CapacityError(
            f"representation conversion in dimension {dim} exceeds cap {cap}"
        )


def _kept_generators(
    dim: int, norms: list[IVec], polar_rays: list[IVec], polar_lines: list[IVec]
) -> tuple[tuple[Vec, ...], tuple[Vec, ...]] | None:
    """The canonical V-form of cone(norms) read off its polar, or None if it has a line.

    The cone {y : <g, y> <= 0 for g in polar_rays, <l, y> = 0 for l in
    polar_lines} is pointed exactly when those rows have rank dim + 1.
    Then a given generator is extreme exactly when its zero set over
    polar_rays lies in no other generator's zero set: a generator that
    is not extreme lies in a face of dimension at least 2, and that
    face holds an extreme generator tight at every row it is tight at.
    Repeats are dropped first, else a copy would rule its twin out.
    """
    if _rank([*polar_rays, *polar_lines]) <= dim:
        return None
    gens = list(dict.fromkeys(norms))
    zsets = [
        sum(1 << i for i, f in enumerate(polar_rays) if _idot(f, g) == 0) for g in gens
    ]
    verts: list[Vec] = []
    rays: list[IVec] = []
    for k, (g, z) in enumerate(zip(gens, zsets)):
        if any(j != k and z & y == z for j, y in enumerate(zsets)):
            continue
        t = g[-1]
        if t > 0:
            verts.append(tuple(Fraction(c, t) for c in g[:-1]))
        else:
            rays.append(g[:-1])
    return tuple(sorted(verts)), tuple(tuple(Fraction(c) for c in r) for r in sorted(rays))


# ============================================================
# Operations
# ============================================================

def recession_cone(p: Polyhedron) -> Polyhedron:
    """{d : x + t d in P for all x in P, t >= 0}; undefined on empty sets."""
    if p.is_empty:
        raise EmptySetError("recession cone of an empty polyhedron")
    rows = [(a, 0) for a, _ in p.ineqs]
    eqs = [(a, 0) for a, _ in p.eqs]
    return Polyhedron.from_hrep(p.dim, rows, eqs)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer vectors by fraction-free elimination, row by row.

    Each kept row is zero at the pivot columns of the rows kept before
    it, and an incoming row is cleared at every pivot column in turn, so
    it adds to the rank exactly when something is left.  The scan stops
    once the rank is full.
    """
    basis: list[tuple[int, IVec]] = []  # (pivot column, row)
    for r in rows:
        for c, b in basis:
            if r[c]:
                r = _icomb(b[c], r, -r[c], b)
        c = next((j for j, t in enumerate(r) if t), None)
        if c is not None:
            basis.append((c, r))
            if len(basis) == len(r):
                break
    return len(basis)


def cone_is_trivial(dim: int, ineqs: Sequence[Row], eqs: Sequence[Row]) -> bool:
    """Is the cone {y : G y <= 0, A y = 0} equal to {0}?

    Stiemke's lemma: exactly when [G; A] has rank dim and some mu > 0
    and nu give G^T mu + A^T nu = 0.  The second part is one certified
    LP in (mu, nu) with mu >= 1.  Every right-hand side must be 0.
    """
    rows = [*ineqs, *eqs]
    if any(b != 0 for _, b in rows):
        raise InvalidParameterError("a cone row must have right-hand side 0")
    normals = [vec(a) for a, _ in rows]
    if _rank([_scale_to_int(a)[0] for a in normals]) < dim:
        return False
    k = len(normals)
    ge_one = [(tuple(Fraction(-(j == i)) for j in range(k)), Fraction(-1))
              for i in range(len(ineqs))]
    balance = [(tuple(a[d] for a in normals), Fraction(0)) for d in range(dim)]
    return solve_min(zeros(k), ge_one, balance).status is not LPStatus.INFEASIBLE


def cco_union(parts: Sequence[Polyhedron]) -> Polyhedron:
    """Closed convex hull of a finite union (generator union).

    Empty parts are skipped; ``is_empty`` reads that off the generators
    the union needs anyway within the DD cap, so no LP is solved.
    Raises ``EmptySetError`` when every part is empty.
    """
    parts = list(parts)
    if not parts:
        raise InvalidParameterError("cco_union of no sets")
    dim = parts[0].dim
    verts: list[Vec] = []
    rays: list[Vec] = []
    for p in parts:
        if p.dim != dim:
            raise DimensionMismatchError("cco_union arity mismatch")
        if p.is_empty:
            continue
        vs, rs = p.generators
        verts.extend(vs)
        rays.extend(rs)
    if not verts:  # a nonempty part has a point
        raise EmptySetError("cco_union of empty sets only")
    return Polyhedron.from_generators(dim, verts, rays)


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """P + Q from the pairwise sums of points and the union of rays.

    Raises ``EmptySetError`` when either set is empty; within the DD cap
    ``is_empty`` reads that off the generators the sum is built from, so
    no LP is solved.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("minkowski_sum arity mismatch")
    if p.is_empty or q.is_empty:
        raise EmptySetError("minkowski_sum of an empty polyhedron")
    pv, pr = p.generators
    qv, qr = q.generators
    verts = [vadd(a, b) for a in pv for b in qv]
    return Polyhedron.from_generators(p.dim, verts, list(pr) + list(qr))


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.dim != q.dim:
        raise DimensionMismatchError("intersect arity mismatch")
    return Polyhedron.from_hrep(
        p.dim, list(p.ineqs) + list(q.ineqs), list(p.eqs) + list(q.eqs)
    )


def polyhedron_equal(p: Polyhedron, q: Polyhedron) -> bool:
    """Set equality via mutual generator containment (exact).

    Equal canonical rows are the same set, so ``p == q`` answers at once
    at every dimension.  Otherwise an empty side is told by
    ``is_empty`` (off the conversions the containment makes within the
    DD cap, by an LP above it), and two nonempty sets are compared by
    their generators.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("polyhedron_equal arity mismatch")
    if p == q:
        return True
    if p.is_empty or q.is_empty:
        return p.is_empty and q.is_empty
    return missing_generator(p, q) is None and missing_generator(q, p) is None


def included(p: Polyhedron, q: Polyhedron) -> bool:
    """Is P a subset of Q?  Empty P is included in anything.

    Equal canonical rows answer at once at every dimension, as in
    ``polyhedron_equal``.  An empty Q holds only an empty P and needs no
    witness; otherwise ``missing_generator`` decides.  Both emptiness
    answers come from ``is_empty``.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("included arity mismatch")
    if p == q:
        return True
    if q.is_empty:
        return p.is_empty
    return missing_generator(p, q) is None


def missing_generator(p: Polyhedron, q: Polyhedron) -> dict[str, Vec] | None:
    """A generator of P outside Q, or None when P is a subset of Q.

    The witness is ``{"point": v}`` for a point of P outside Q, else
    ``{"ray": r}`` for a ray of P outside the recession cone of Q.  An
    empty Q contains no point, so then it is P's first point.  An empty
    P answers None; ``is_empty`` reads that off P's generators within
    the DD cap, and above it an LP tells it before any conversion could
    raise ``CapacityError``.
    """
    if p.is_empty:
        return None
    for v in p.vertices:
        if not q.contains(v):
            return {"point": v}
    for r in p.rays:
        if not q.contains_ray(r):
            return {"ray": r}
    return None


def max_slack(p: Polyhedron, weight: Callable[[Vec], Fraction]) -> LPResult:
    """Maximize s subject to a.y + s*weight(a) <= b per inequality row and s <= 1.

    The variables are (y, s).  With positive weights the optimum s is
    positive exactly when some y meets every inequality with room to
    spare, and it is negative when P is empty.
    """
    n = p.dim
    rows: list[Row] = [(tuple(a) + (weight(a),), b) for a, b in p.ineqs]
    rows.append((zeros(n) + (Fraction(1),), Fraction(1)))
    return solve_max(zeros(n) + (Fraction(1),), rows)


def interior_point(p: Polyhedron) -> Vec | None:
    """A point with strictly positive slack on every inequality.

    Returns None when the interior is empty: explicit equalities, an
    implicit equality (maximal slack zero), or emptiness.  The point is
    the deterministic maximizer of the smallest constraint slack.

    The max-slack LP also decides emptiness: its optimum is below zero
    exactly when P is empty.  So unless ``p.is_empty`` is already known,
    that one LP settles it too, and a later ``is_empty`` neither converts
    nor solves.  This is the one route besides ``is_empty``'s own rule
    that answers emptiness; it is kept because the LP runs for the point
    anyway, and its answer is exact.  The point is kept on p next to it,
    so the LP runs once per set.
    """
    if p.eqs:
        return None
    kept = vars(p)  # where the cached_property values sit
    if kept.get("is_empty"):
        return None
    if "interior_point" not in kept:
        res = max_slack(p, lambda a: Fraction(1))
        point = None
        if res.status is LPStatus.OPTIMAL:
            slack = res.optimum.finite_value()
            kept.setdefault("is_empty", slack < 0)
            if slack > 0:
                point = res.primal_point[: p.dim]
        kept["interior_point"] = point
    return kept["interior_point"]


def affine_preimage(p: Polyhedron, matrix: Sequence[Vec], offset: Vec) -> Polyhedron:
    """{z : M z + c in P} where matrix rows are the rows of M."""
    if len(matrix) != p.dim or len(offset) != p.dim:
        raise DimensionMismatchError("affine_preimage shape mismatch")
    src_dim = len(matrix[0]) if matrix else 0
    if src_dim < 1:
        raise InvalidParameterError("affine_preimage needs a positive source dimension")
    if any(len(row) != src_dim for row in matrix):
        raise DimensionMismatchError("affine_preimage matrix rows differ in length")

    def pull(a: Vec, b: Fraction) -> Row:
        coeff = tuple(
            sum(a[i] * matrix[i][j] for i in range(p.dim)) for j in range(src_dim)
        )
        return (coeff, b - dot(a, offset))

    return Polyhedron.from_hrep(
        src_dim,
        [pull(a, b) for a, b in p.ineqs],
        [pull(a, b) for a, b in p.eqs],
    )


def support_value(p: Polyhedron, direction: Sequence) -> ExtendedRational:
    """sup over P of <direction, x>, from the generator form."""
    d = vec(direction)
    verts, rays = p.generators
    if not verts:
        return NEG_INF
    if any(dot(d, r) > 0 for r in rays):
        return POS_INF
    return ExtendedRational.finite(max(dot(d, v) for v in verts))
