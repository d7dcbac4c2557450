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

A set whose homogenization cone has generators known without a
conversion keeps them (``keep_generators``) and reads its own V-form off
them when the cone is pointed (no line).  In a pointed cone the extreme
rays are exactly the given generators whose set of tight rows lies in no
other given generator's set (Motzkin, Raiffa, Thompson & Thrall 1953;
Fukuda & Prodon 1996).  The extreme generators and their zero sets form
a double description pair, to which ``shadow_generators`` adds one row
by the same split step as ``dd_cone``'s and then drops a coordinate.  A
hull from ``from_generators`` keeps the generators of its one V->H
conversion.  A conjugate's epigraph keeps the generators of its cone
given by polarity from the one H->V conversion of the primal epigraph:
each homogenized row (a, n_s, n_t) of epi f maps to (a, -n_t, -n_s),
and each homogenized generator (v, rho, t) of epi f to the row
(v, -t, -rho) of epi f*, so the incidences are those of the first
conversion (see ``functions``).  An epsilon-subdifferential is that pair
cut by one row, its s coordinate dropped.  A set with a line converts
its rows as any set does.  Every such read is only as complete as the
conversion it comes from.

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
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    DimensionMismatchError,
    EmptySetError,
    InvalidParameterError,
)
from .lp import LPResult, LPStatus, Row, _idot, _scale_to_int, solve_min
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

def _split(
    rays: list[IVec], zsets: list[int], vals: list[int], bit: int, need: int
) -> tuple[list[IVec], list[int]]:
    """One double description step: cut cone(rays) by the inequality with values vals.

    The rays are the extreme rays of a cone modulo its lineality, and
    zsets their zero sets over the rows that define it.  A ray with
    value <= 0 stays, one with value 0 gaining ``bit`` in its zero set,
    and each adjacent (positive, negative) pair adds its combination on
    the new hyperplane.  Adjacency is the combinatorial test: no third
    ray is tight at every row both rays are tight at.  A pair sharing
    fewer than ``need`` tight rows is skipped before that scan (see
    ``dd_cone``).  The output order is the kept rays, then the new ones.
    """
    keep_rays, keep_z = [], []
    pos, neg = [], []
    for k, v in enumerate(vals):
        if v > 0:
            pos.append(k)
        else:
            if v < 0:
                neg.append(k)
                keep_z.append(zsets[k])
            else:
                keep_z.append(zsets[k] | bit)
            keep_rays.append(rays[k])

    for kp in pos:
        zp = zsets[kp]
        for kn in neg:
            zc = zp & zsets[kn]
            if zc.bit_count() < need:
                continue
            # the pair's own zero-sets contain zc; a third one rules adjacency out
            if next(islice((z for z in zsets if z & zc == zc), 2, None), None) is not None:
                continue
            keep_rays.append(_icomb(vals[kp], rays[kn], -vals[kn], rays[kp]))
            keep_z.append(zc | bit)
    return keep_rays, keep_z


def dd_cone(norms: Sequence[IVec], dim: int) -> tuple[list[IVec], list[IVec]]:
    """Extreme rays and a lineality basis of an H-form cone.

    Incremental double description: a lineality basis L and a ray list R
    are maintained so that the cone cut out by the constraints processed
    so far equals span(L) + cone(R), with R irredundant modulo L.  A new
    constraint either consumes one lineality direction or splits R by
    sign, combining adjacent (positive, negative) pairs (``_split``).
    Adjacency is the standard combinatorial test on zero-sets of
    processed rows: no third ray is tight at every row both rays are
    tight at.

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

        rays, zsets = _split(rays, zsets, [_idot(m, r) for r in rays], 1 << idx,
                             dim - len(lines) - 2)

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

        The hull keeps the homogenized generators it was built from, and
        the first read of ``generators`` takes its V-form from them, by
        the zero-set test against the hull's own rows, when the hull has
        no line; see ``generators``.
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
            vars(hull)["is_empty"] = False  # it holds the given vertices
            keep_generators(hull, lambda: norms)
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
    def _kept_pair(self) -> tuple[list[IVec], list[int]] | None:
        """The extreme generators of P's homogenization cone and their zero sets.

        Read once off the generators kept by ``keep_generators``, through
        the zero-set test of ``_kept_generators``; None when none are
        kept or the cone has a line.  A set's first ``generators`` read
        formats it, and ``shadow_generators`` adds one row to it.
        """
        kept = vars(self).pop("_conversion", None)
        gens = None if kept is None else kept()
        return None if gens is None else _kept_generators(self, gens)

    @cached_property
    def generators(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(points, rays) with P = conv(points) + cone(rays), canonical.

        A set whose cone is pointed and that keeps generators of it
        (``keep_generators``) reads them off its kept pair, so that read
        runs no conversion and raises no ``CapacityError``, even with
        ``SUPCALC_DD_CAP`` lowered after the set was built.  Three kinds
        of set keep generators: a hull from ``from_generators`` (the
        V->H conversion that built it), a conjugate's epigraph (epi f's
        rows, mapped by polarity) and an epsilon-subdifferential (one
        double description step on that epigraph's pair).  Any other
        set, or one with a line, runs the double description on its
        rows.
        """
        pair = self._kept_pair
        if pair is not None:
            return _generator_form(pair[0])
        _check_cap(self.dim)
        hom_rays, hom_lines = dd_cone(_homogenized_rows(self), self.dim + 1)
        return _generator_form(
            [*hom_rays, *hom_lines, *(tuple(-c for c in l) for l in hom_lines)]
        )

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


def _homogenized_rows(p: Polyhedron) -> list[IVec]:
    """The rows of P's homogenization cone {(x, t) : a.x <= b t, e.x = d t, t >= 0}.

    As normals m of <m, (x, t)> <= 0: each inequality, each equality
    both ways, then t >= 0.
    """
    rows = [(*a, -b) for a, b in p.ineqs]
    for a, b in p.eqs:
        rows += [(*a, -b), (*(-t for t in a), b)]
    rows.append((0,) * p.dim + (-1,))
    return rows


def _generator_form(hom: Iterable[IVec]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """The canonical (points, rays) of homogenized generators (x, t) of P's cone.

    t > 0 gives the point x / t, t = 0 the primitive ray x; the output
    is sorted without repeats, and a cone with no t > 0 is empty P.
    """
    verts: set[Vec] = set()
    rays: set[IVec] = set()
    for g in hom:
        t = g[-1]
        if t > 0:
            verts.add(tuple(Fraction(c, t) for c in g[:-1]))
        elif any(g[:-1]):
            rays.add(_primitive(g[:-1]))
    if not verts:
        return ((), ())
    return tuple(sorted(verts)), tuple(tuple(Fraction(c) for c in r) for r in sorted(rays))


def _kept_generators(p: Polyhedron, gens: Iterable[IVec]) -> tuple[list[IVec], list[int]] | None:
    """The extreme ones among generators of P's homogenization cone, or None if it has a line.

    gens must generate the cone.  It is pointed exactly when P's
    homogenized rows have rank dim + 1.  Then a given generator is
    extreme exactly when its zero set over those rows lies in no other
    generator's zero set: a generator that is not extreme lies in a face
    of dimension at least 2, and that face holds an extreme generator
    tight at every row it is tight at.  A redundant row is tight on a
    whole face too, so any H-form will do.  Repeats are dropped first,
    else a copy would rule its twin out.  The zero sets of the extreme
    generators come back with them, bit i for row i.
    """
    rows = _homogenized_rows(p)
    if _rank(rows) <= p.dim:
        return None
    gens = list(dict.fromkeys(gens))
    bits = [(f, 1 << i) for i, f in enumerate(rows)]
    zsets = [sum(b for f, b in bits if not sum(map(mul, f, g))) for g in gens]
    # its own zero set is one superset; a second one rules it out
    keep = [
        k for k, z in enumerate(zsets)
        if next(islice((y for y in zsets if y & z == z), 1, None), None) is None
    ]
    return [gens[k] for k in keep], [zsets[k] for k in keep]


def keep_generators(p: Polyhedron, gens: Callable[[], Iterable[IVec] | None]) -> Polyhedron:
    """Let P's first ``generators`` read come from gens() instead of a conversion.

    gens() gives integer generators (x, t) of P's homogenization cone,
    or None when it cannot; it runs at the first read, and the set runs
    the double description as usual when it gives None or the cone has a
    line.  Returns P.
    """
    vars(p)["_conversion"] = gens  # where the cached_property values sit
    return p


def shadow_generators(p: Polyhedron, cut: IVec, axis: int) -> list[IVec] | None:
    """Generators of the cone of {z minus coordinate axis : z in P, <cut, (z, 1)> <= 0}.

    The cut is added to P's kept pair by one ``_split`` step, whose
    extreme rays generate P's homogenization cone cut by <cut, .> <= 0;
    their images with coordinate ``axis`` dropped generate the image's
    cone, repeats and non-extreme images included.  None when P keeps
    no pair.  The pair's zero sets are over every homogenized row of P,
    so two adjacent rays of the pointed cone share at least dim - 1 of
    them.
    """
    pair = p._kept_pair
    if pair is None:
        return None
    gens, zsets = pair
    bit = 1 << len(_homogenized_rows(p))
    rays, _ = _split(gens, zsets, [_idot(cut, g) for g in gens], bit, p.dim - 1)
    images = (_primitive((*r[:axis], *r[axis + 1:])) for r in rays)
    return [g for g in images if any(g)]


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
    """Set equality as inclusion both ways (exact).

    ``included`` raises ``DimensionMismatchError`` on sets of different
    dimensions, answers equal rows at once and tells an empty side by
    ``is_empty``, so above the DD cap only two nonempty sets that need a
    conversion raise ``CapacityError``.
    """
    return included(p, q) and included(q, p)


def included(p: Polyhedron, q: Polyhedron) -> bool:
    """Is P a subset of Q?  Empty P is included in anything.

    ``missing_generator`` decides, except that an empty Q holds only an
    empty P: that answer comes from ``is_empty``, by an LP above the DD
    cap, so P is not converted and cannot raise ``CapacityError``.  Equal
    rows skip that read too, since ``missing_generator`` needs neither
    set's emptiness for them.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("included arity mismatch")
    if p != q and q.is_empty:
        return p.is_empty
    return missing_generator(p, q) is None


def missing_generator(p: Polyhedron, q: Polyhedron) -> dict[str, Vec] | None:
    """A generator of P outside Q, or None when P is a subset of Q.

    The one containment test.  Equal canonical rows are the same set, so
    ``p == q`` answers None at once at every dimension.  Otherwise the
    witness is ``{"point": v}`` for a point of P outside Q, else
    ``{"ray": r}`` for a ray of P outside the recession cone of Q.  An
    empty Q contains no point, so then it is P's first point.  An empty
    P answers None; ``is_empty`` reads that off P's generators within
    the DD cap, and above it an LP tells it before any conversion could
    raise ``CapacityError``.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError("missing_generator arity mismatch")
    if p == q or p.is_empty:
        return None
    for v in p.vertices:
        if not q.contains(v):
            return {"point": v}
    for r in p.rays:
        if not q.contains_ray(r):
            return {"ray": r}
    return None


def max_slack(p: Polyhedron, weight: Callable[[Vec], Fraction]) -> LPResult:
    """The LP minimizing -s subject to a.y + s*weight(a) <= b per inequality row and s <= 1.

    The variables are (y, s), and the largest s is minus the optimum.
    With positive weights that s is positive exactly when some y meets
    every inequality with room to spare, and it is negative when P is
    empty.
    """
    n = p.dim
    rows: list[Row] = [(tuple(a) + (weight(a),), b) for a, b in p.ineqs]
    rows.append((zeros(n) + (Fraction(1),), Fraction(1)))
    return solve_min(zeros(n) + (Fraction(-1),), rows)


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
            slack = -res.optimum.finite_value()
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
