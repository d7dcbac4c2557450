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

Functions with empty domain (identically +oo) are representable so that
evaluation never lies, but the calculus operations reject them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    ImproperFunctionError,
    InvalidParameterError,
    LPInternalError,
)
from .lp import LPStatus, Row, _idot, _scale_to_int, solve_max
from .polyhedron import Polyhedron, max_slack, polyhedron_equal
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
        obj = tuple(y) + (Fraction(-1),)
        res = solve_max(obj, list(epi.ineqs), list(epi.eqs), warm=True)
        if res.status is LPStatus.UNBOUNDED:
            return POS_INF
        if res.status is not LPStatus.OPTIMAL:
            raise LPInternalError("epigraph LP infeasible for a proper function")
        return res.optimum

    @cached_property
    def _conjugate(self) -> "PolyhedralFunction":
        if not self.is_proper:
            raise ImproperFunctionError("conjugate of an identically +oo function")
        verts, rays = self.epigraph.generators
        pieces = [(v[: self.dim], -v[self.dim]) for v in verts]
        dom_rows = [(r[: self.dim], r[self.dim]) for r in rays]
        g = PolyhedralFunction.make(
            self.dim, pieces, Polyhedron.from_hrep(self.dim, dom_rows)
        )
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
        """{x* : f(x) + f*(x*) - <x*, x> <= eps}; empty when f(x) = +oo."""
        eps = rational(eps)
        if eps < 0:
            raise InvalidParameterError("eps must be nonnegative")
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatchError("point arity mismatch")
        if not self.domain.contains(x):
            return Polyhedron.empty(self.dim)
        fx = self.eval_finite(x)
        dom = self.conjugate().domain
        rows = [(vsub(v, x), eps - fx - c) for v, c in self.conjugate().pieces]
        return Polyhedron.from_hrep(self.dim, rows + list(dom.ineqs), dom.eqs)

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
        alpha = res.optimum.finite_value()
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
