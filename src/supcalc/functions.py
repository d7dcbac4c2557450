"""Polyhedral convex functions and their unary convex calculus.

A function is a finite max of affine pieces on a polyhedral domain,
+infinity outside:

    f(x) = max_j ( <a_j, x> + b_j )   if x in D,   +oo otherwise.

This class is closed under conjugation, which is where most of the
machinery lives: the conjugate is read off the generator form of the
epigraph.  Every vertex (v, rho) of epi f contributes the dual piece
<., v> - rho, and every ray (d, rho_d) contributes the dual domain
constraint <., d> <= rho_d.  Approximate subdifferentials and normal
sets then come out as explicit polyhedra in dual coordinates.

That one H->V conversion of epi f fixes both forms of epi f*, by
polarity.  A homogenized generator h = (v, rho, t) of epi f is the row
M h = (v, -t, -rho) of epi f*'s homogenization cone, and a homogenized
row n = (a, n_s, n_t) of epi f (pieces, domain rows and t >= 0) gives
the generator N n = (a, -n_t, -n_s) of that cone: (a_i, -b_i, 1) per
piece, (g_j, h_j, 0) per domain row and (0, 1, 0) for t >= 0, which is
LP duality.  Since <M h, N n> = <n, h>, the incidences are those of the
first conversion.  The conjugate's epigraph keeps N n, so its V-form is
read by the zero-set test with no second conversion, and its extreme
generators with their zero sets are computed once per function.  An
epsilon-subdifferential at x is epi f* cut by s - <y, x> <= eps - f(x)
with s dropped: one split step on that pair, then the extreme images.
When dom f has an equality epi f*'s cone has a line, and those sets
convert their rows as before.  The trade-off: these V-forms rest on epi
f's one conversion, which the value audit of ``_conjugate`` checks at
its points, where a second conversion used to re-derive them.

Functions with empty domain (identically +oo) are representable so that
evaluation never lies, but the calculus operations reject them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    ImproperFunctionError,
    InvalidParameterError,
    LPInternalError,
)
from .lp import LPStatus, Row, _idot, _scale_to_int, solve_min
from .polyhedron import (
    Polyhedron,
    _homogenized_rows,
    keep_generators,
    max_slack,
    polyhedron_equal,
    shadow_generators,
)
from .rationals import (
    POS_INF,
    ExtendedRational,
    Vec,
    l1norm,
    rational,
    vec,
    vsub,
    zeros,
)


@dataclass(frozen=True)
class EpiPointedCertificate:
    """Witness that f has a coercive affine-plus-norm minorant.

    Certifies  f(x) >= <minorant_slope, x> + margin * ||x||_1 + offset
    for every x, with margin > 0.  Equivalently the closed l-infinity
    ball of radius ``margin`` around ``minorant_slope`` sits inside the
    domain of the conjugate, which therefore has nonempty interior.
    """

    minorant_slope: Vec
    margin: Fraction
    offset: Fraction

    def verify(self, f: "PolyhedralFunction") -> bool:
        """Recheck the minorant by one support LP per orthant."""
        if self.margin <= 0:
            return False
        n = len(self.minorant_slope)
        for signs in product((1, -1), repeat=n):
            corner = tuple(
                s + self.margin * sg for s, sg in zip(self.minorant_slope, signs)
            )
            val = f.conjugate_eval(corner)
            if not (val <= ExtendedRational.finite(-self.offset)):
                return False
        return True


@dataclass(frozen=True)
class PolyhedralFunction:
    dim: int
    pieces: tuple[Row, ...]
    domain: Polyhedron

    @staticmethod
    def make(
        dim: int,
        pieces: Iterable[Row],
        domain: Polyhedron | None = None,
    ) -> "PolyhedralFunction":
        if domain is None:
            domain = Polyhedron.full_space(dim)
        if domain.dim != dim:
            raise DimensionMismatchError("domain dimension mismatch")
        canon = set()
        for a, b in pieces:
            *a, b = vec((*a, b))
            if len(a) != dim:
                raise DimensionMismatchError("piece arity mismatch")
            canon.add((tuple(a), b))
        if not canon:
            raise InvalidParameterError("a function needs at least one piece")
        return PolyhedralFunction(dim, tuple(sorted(canon)), domain)

    @staticmethod
    def indicator(domain: Polyhedron) -> "PolyhedralFunction":
        return PolyhedralFunction.make(domain.dim, [(zeros(domain.dim), 0)], domain)

    # -- evaluation ----------------------------------------------------

    @property
    def is_proper(self) -> bool:
        return not self.domain.is_empty

    @cached_property
    def _int_pieces(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """((A, B), d) per piece (a, b) = (A, B) / d, scaled once per function."""
        return tuple(
            (tuple(row), d) for row, d in (_scale_to_int((*a, b)) for a, b in self.pieces)
        )

    def eval(self, x: Sequence) -> ExtendedRational:
        """The largest piece at x, +oo off the domain, compared in integers.

        With x = X / D and a piece (a, b) = (A, B) / d, the piece's value
        is (A.X + B D) / (d D); D is shared, so the largest n / d with
        n = A.X + B D wins, by cross-multiplication.  Each piece's (A, B)
        and d are kept on the function, so a call scales only x.
        """
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatchError("point arity mismatch")
        if not self.domain.contains(x):
            return POS_INF
        ints, den = _scale_to_int(x)
        best_n, best_d = None, 1
        for row, d in self._int_pieces:
            n = _idot(row, ints) + row[-1] * den
            if best_n is None or n * best_d > best_n * d:
                best_n, best_d = n, d
        return ExtendedRational.finite(Fraction(best_n, best_d * den))

    def eval_finite(self, x: Sequence) -> Fraction:
        v = self.eval(x)
        if not v.is_finite:
            raise InvalidParameterError("point outside the domain")
        return v.finite_value()

    # -- epigraph ------------------------------------------------------

    @cached_property
    def epigraph(self) -> Polyhedron:
        """epi f = {(x, s) : s >= f(x)} in dimension dim+1."""
        rows: list[Row] = []
        for a, b in self.pieces:
            rows.append((tuple(a) + (Fraction(-1),), -b))
        for a, b in self.domain.ineqs:
            rows.append(((*a, 0), b))
        eqs = [((*a, 0), b) for a, b in self.domain.eqs]
        return Polyhedron.from_hrep(self.dim + 1, rows, eqs)

    # -- conjugacy -----------------------------------------------------

    def conjugate_eval(self, xstar: Sequence) -> ExtendedRational:
        """sup_x ( <x*, x> - f(x) ), one LP over the epigraph."""
        if not self.is_proper:
            raise ImproperFunctionError("conjugate of an identically +oo function")
        y = vec(xstar)
        if len(y) != self.dim:
            raise DimensionMismatchError("point arity mismatch")
        epi = self.epigraph
        # the sup is minus the min of s - <y, x> over (x, s) in epi f
        obj = tuple(-t for t in y) + (Fraction(1),)
        res = solve_min(obj, list(epi.ineqs), list(epi.eqs), warm=True)
        if res.status is LPStatus.UNBOUNDED:
            return POS_INF
        if res.status is not LPStatus.OPTIMAL:
            raise LPInternalError("epigraph LP infeasible for a proper function")
        return -res.optimum

    @cached_property
    def _conjugate(self) -> "PolyhedralFunction":
        if not self.is_proper:
            raise ImproperFunctionError("conjugate of an identically +oo function")
        n = self.dim
        epi = self.epigraph
        verts, rays = epi.generators
        pieces = [(v[:n], -v[n]) for v in verts]
        dom_rows = [(r[:n], r[n]) for r in rays]
        g = PolyhedralFunction.make(n, pieces, Polyhedron.from_hrep(n, dom_rows))
        # polarity: each homogenized generator h = (v, rho, t) of epi f is the
        # row <v, y> - t s <= rho of epi g, which is the row g.epigraph
        # builds from a piece (t = 1) or a domain row (t = 0), and each
        # homogenized row (a, n_s, n_t) of epi f maps to the generator
        # (a, -n_t, -n_s) of epi g's cone; row . generator = n . h, so the
        # zero sets are the incidences of the conversion above
        gens = [(*r[:-2], -r[-1], -r[-2]) for r in _homogenized_rows(epi)]
        keep_generators(g.epigraph, lambda: gens)
        for y in self._audit_points():
            if self.conjugate_eval(y) != g.eval(y):
                raise LPInternalError("conjugate construction failed value audit")
        return g

    def conjugate(self) -> "PolyhedralFunction":
        return self._conjugate

    def biconjugate(self) -> "PolyhedralFunction":
        g = self.conjugate().conjugate()
        if not polyhedron_equal(g.epigraph, self.epigraph):
            raise LPInternalError("biconjugate does not reproduce the function")
        return g

    def _audit_points(self) -> list[Vec]:
        pts = {zeros(self.dim)}
        for i in range(self.dim):
            e = tuple(Fraction(1 if j == i else 0) for j in range(self.dim))
            pts.add(e)
            pts.add(tuple(-t for t in e))
        for a, _ in self.pieces:
            pts.add(a)
        return sorted(pts)

    # -- approximate subdifferentials ----------------------------------

    def eps_subdifferential(self, x: Sequence, eps) -> Polyhedron:
        """{x* : f(x) + f*(x*) - <x*, x> <= eps}; empty when f(x) = +oo.

        It is the image, s dropped, of epi f* cut by s - <x*, x> <=
        eps - f(x); its generators are read off that cut of epi f*'s kept
        pair (``shadow_generators``) by the zero-set test against the
        set's own rows, or converted when either cone has a line.
        """
        eps = rational(eps)
        if eps < 0:
            raise InvalidParameterError("eps must be nonnegative")
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatchError("point arity mismatch")
        if not self.domain.contains(x):
            return Polyhedron.empty(self.dim)
        epi = self.conjugate().epigraph
        # with x = X / d and eps - f(x) = e / d, the cut is d s - <X, y> <= e,
        # and s leaves each row <a, y> - t s <= b of epi f* as
        # <d a - t X, y> <= d b + t e
        X, d = _scale_to_int((*x, eps - self.eval_finite(x)))
        e = X.pop()

        def eliminate(rows):
            return [
                (tuple(d * c + a[-1] * xi for c, xi in zip(a, X)), d * b - a[-1] * e)
                for a, b in rows
            ]

        target = Polyhedron.from_hrep(self.dim, eliminate(epi.ineqs), eliminate(epi.eqs))
        cut = (*(-t for t in X), d, -e)
        return keep_generators(target, partial(shadow_generators, epi, cut, self.dim))

    def recession_function(self) -> "PolyhedralFunction":
        """f-at-infinity, realized as the support function of dom f*."""
        dom_star = self.conjugate().domain
        verts, rays = dom_star.generators
        pieces = [(v, Fraction(0)) for v in verts]
        rows = [(r, Fraction(0)) for r in rays]
        return PolyhedralFunction.make(
            self.dim, pieces, Polyhedron.from_hrep(self.dim, rows)
        )

    # -- epi-pointedness ------------------------------------------------

    def is_epi_pointed(self) -> EpiPointedCertificate | None:
        """Certificate iff dom f* has nonempty interior, else None."""
        return self._epi_pointed

    @cached_property
    def _epi_pointed(self) -> EpiPointedCertificate | None:
        """The largest cube y + alpha*[-1, 1]^n inside dom f*, alpha <= 1.  Its
        slack rows bound a.y + alpha*||a||_1, so every corner lies in dom f*
        and is valued on the built conjugate; ``verify`` re-solves each by LP."""
        fstar = self.conjugate()
        if fstar.domain.eqs:
            return None
        n = self.dim
        res = max_slack(fstar.domain, l1norm)
        if res.status is not LPStatus.OPTIMAL:
            raise LPInternalError("ball LP must be bounded by the cap row")
        alpha = -res.optimum.finite_value()
        if alpha <= 0:
            return None
        center = res.primal_point[:n]
        worst = max(
            fstar.eval(tuple(c + alpha * s for c, s in zip(center, signs))).finite_value()
            for signs in product((1, -1), repeat=n)
        )
        cert = EpiPointedCertificate(center, alpha, -worst)
        if not cert.verify(self):
            raise LPInternalError("epi-pointedness certificate failed recheck")
        return cert


def eps_normal_set(c_set: Polyhedron, x: Sequence, eps) -> Polyhedron:
    """{x* : sup over the set of <x*, .> <= <x*, x> + eps}.

    The approximate normal set of a polyhedron at x, empty when x lies
    outside.  Built from the generator form: one row per vertex, one
    homogeneous row per ray.
    """
    eps = rational(eps)
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    x = vec(x)
    if len(x) != c_set.dim:
        raise DimensionMismatchError("point arity mismatch")
    if not c_set.contains(x):
        return Polyhedron.empty(c_set.dim)
    verts, rays = c_set.generators
    rows: list[Row] = [(vsub(v, x), eps) for v in verts]
    rows += [(r, Fraction(0)) for r in rays]
    return Polyhedron.from_hrep(c_set.dim, rows)


def normal_cone(c_set: Polyhedron, x: Sequence) -> Polyhedron:
    return eps_normal_set(c_set, x, 0)
