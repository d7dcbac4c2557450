"""The image  pi(S) = { C y : y in S }  of a polyhedron S in R^N under a
linear map C with a low-dimensional range, known only through LPs over
the rows of S, so no vertex enumeration ever runs in R^N.

``project`` materializes the closure of pi(S) by support probes
(Lassez & Lassez 1992).  It keeps an inner approximation
Q = conv(points) + cone(rays) built from images of points and rays of
S, so Q is a subset of pi(S) at every step.  Each facet (and each
implicit equality) of Q is tested by a support LP over S; a violation
yields a new image point or recession direction, which strictly
enlarges Q.  Since the simplex solver only returns basic solutions, of
which there are finitely many, the loop terminates with
Q = closure(pi(S)).  Only the image dimension is subject to the double
description cap; N may be large.

No library path calls ``project``: it stays public as the tests' LP
oracle for the levels P34 and C46 build with no LP.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, LPInternalError
from .lp import LPResult, LPStatus, Row, solve_min
from .polyhedron import Polyhedron
from .rationals import Vec, vec

_MAX_ROUNDS = 10_000


def _two_sided(q: Polyhedron) -> list[Row]:
    """The rows of q with each equality read as two inequalities."""
    rows = list(q.ineqs)
    for a, b in q.eqs:
        rows += [(a, b), (tuple(-t for t in a), -b)]
    return rows


class Image:
    """{C y : y satisfies the rows}; ``matrix`` holds the rows of C.

    It is known through ``support`` alone; ``project`` materializes it.
    C's nonzero entries are kept by row for ``map`` and by column for
    ``support``.
    """

    def __init__(
        self, src_dim: int, ineqs: Sequence[Row], eqs: Sequence[Row], matrix: Sequence[Vec]
    ) -> None:
        rows = [vec(r) for r in matrix]
        if any(len(r) != src_dim for r in rows):
            raise DimensionMismatchError("projection matrix arity mismatch")
        self.dim = len(rows)
        self.ineqs = list(ineqs)
        self.eqs = list(eqs)
        self._by_row = [[(j, c) for j, c in enumerate(r) if c] for r in rows]
        self._by_col = [[(i, r[j]) for i, r in enumerate(rows) if r[j]] for j in range(src_dim)]

    def map(self, y: Vec) -> Vec:
        return tuple(sum((c * y[j] for j, c in r), Fraction(0)) for r in self._by_row)

    def support(self, a: Vec) -> LPResult:
        """The LP minimizing -<a, C y> over the rows; the support is minus its optimum."""
        c = [-sum((a[i] * m for i, m in col), Fraction(0)) for col in self._by_col]
        return solve_min(c, self.ineqs, self.eqs)


def project(image: Image) -> Polyhedron:
    """Closure of the image, as a Polyhedron; empty when the rows are infeasible."""
    n = image.dim
    points: set[Vec] = set()
    rays: set[Vec] = set()
    # the image is fixed, so a direction probed once (a facet kept from
    # an earlier round, or an axis) answers from its first LP
    probed: dict[Vec, LPResult] = {}

    def exceeds(a: Vec, b: Fraction | None) -> bool | None:
        """Does sup over S of <a, Cy> exceed b?  None when S is empty.

        With b None any bounded maximum counts.  Whenever the answer is
        yes, the maximizer's image (and the unbounded ray's) joins the pool.
        """
        res = probed.get(a)
        if res is None:
            res = probed[a] = image.support(a)
        if res.status is LPStatus.INFEASIBLE:
            return None
        if res.status is LPStatus.OPTIMAL and b is not None:
            if -res.optimum.finite_value() <= b:
                return False
        points.add(image.map(res.primal_point))
        if res.status is LPStatus.UNBOUNDED:
            rays.add(image.map(res.ray))
        return True

    for i in range(n):
        for sign in (1, -1):
            d = tuple(Fraction(sign if j == i else 0) for j in range(n))
            if exceeds(d, None) is None:
                return Polyhedron.empty(n)

    for _ in range(_MAX_ROUNDS):
        hull = Polyhedron.from_generators(n, points, rays)
        grew = False
        for a, b in _two_sided(hull):
            found = exceeds(a, b)
            if found is None:
                raise LPInternalError("support oracle lost feasibility")
            grew = grew or found
        if not grew:
            return hull
    raise LPInternalError("projection failed to converge")


def coordinate_projection(p: Polyhedron, coords: Sequence[int]) -> Polyhedron:
    """Project onto the listed coordinates, in the order given."""
    matrix = [
        tuple(Fraction(1 if j == c else 0) for j in range(p.dim)) for c in coords
    ]
    return project(Image(p.dim, p.ineqs, p.eqs, matrix))
