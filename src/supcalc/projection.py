"""Exact projection of a lifted constraint system onto few coordinates.

Computes the closed image  pi(S) = { C x : x in S }  of a polyhedron
S in R^N under a linear map C with a low-dimensional range, without ever
running a vertex enumeration in R^N.  Only the image dimension is
subject to the double description cap; N may be large.

The method maintains an inner approximation Q = conv(points) + cone(rays)
built from images of points and rays of S, so Q is a subset of pi(S) at
every step.  Each facet (and each implicit equality) of Q is tested by a
support LP over S; a violation yields a new image point or recession
direction, which strictly enlarges Q.  Since the simplex solver only
returns basic solutions, of which there are finitely many, the loop
terminates with Q = closure(pi(S)).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import LPInternalError
from .lp import LPStatus, Row, solve_max
from .polyhedron import Polyhedron
from .rationals import Vec, dot, vec

_MAX_ROUNDS = 10_000


def _image(matrix: Sequence[Vec], x: Vec) -> Vec:
    return tuple(dot(row, x) for row in matrix)


def pullback(matrix: Sequence[Vec], a: Vec) -> Vec:
    """The objective <a, C x> as a vector over the source coordinates."""
    src = len(matrix[0])
    return tuple(
        sum(a[i] * matrix[i][j] for i in range(len(matrix))) for j in range(src)
    )


def project(
    src_dim: int,
    ineqs: Sequence[Row],
    eqs: Sequence[Row],
    matrix: Sequence[Vec],
) -> Polyhedron:
    """Closure of {C x : x satisfies the rows}, as a Polyhedron.

    ``matrix`` holds the rows of C; every row must have src_dim entries.
    Returns the empty polyhedron when the system is infeasible.
    """
    n = len(matrix)
    rows_c = [vec(r) for r in matrix]
    for r in rows_c:
        if len(r) != src_dim:
            raise LPInternalError("projection matrix arity mismatch")

    points: set[Vec] = set()
    rays: set[Vec] = set()

    def exceeds(a: Vec, b: Fraction | None) -> bool | None:
        """Does sup over S of <a, Cx> exceed b?  None when S is empty.

        With b None any bounded maximum counts.  Whenever the answer is
        yes, the maximizer's image (and the unbounded ray's) joins the pool.
        """
        res = solve_max(pullback(rows_c, a), list(ineqs), list(eqs))
        if res.status is LPStatus.INFEASIBLE:
            return None
        if res.status is LPStatus.OPTIMAL and b is not None:
            if res.optimum.finite_value() <= b:
                return False
        points.add(_image(rows_c, res.primal_point))
        if res.status is LPStatus.UNBOUNDED:
            rays.add(_image(rows_c, res.ray))
        return True

    for i in range(n):
        for sign in (1, -1):
            d = tuple(Fraction(sign if j == i else 0) for j in range(n))
            if exceeds(d, None) is None:
                return Polyhedron.empty(n)

    for _ in range(_MAX_ROUNDS):
        hull = Polyhedron.from_generators(n, points, rays)
        facets = list(hull.ineqs)
        for a, b in hull.eqs:
            facets += [(a, b), (tuple(-t for t in a), -b)]
        grew = False
        for a, b in facets:
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
    return project(p.dim, p.ineqs, p.eqs, matrix)
