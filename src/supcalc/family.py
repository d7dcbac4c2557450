"""Finite families of polyhedral functions and their pointwise supremum.

The supremum of finitely many max-affine functions is again max-affine:
its pieces are the union of the members' pieces and its domain is the
intersection of their domains.  A family may carry a partial order on
labels together with an ``increasing`` claim (t below s implies
f_t <= f_s pointwise); the claim is audited exactly through epigraph
inclusion, not sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidParameterError
from .functions import PolyhedralFunction
from .polyhedron import Polyhedron, cco_union, included, intersect
from .rationals import rational, vec


@dataclass(frozen=True)
class FunctionFamily:
    dim: int
    members: tuple[tuple[str, PolyhedralFunction], ...]
    order_edges: tuple[tuple[str, str], ...] = ()
    increasing: bool = False

    @staticmethod
    def make(
        members: Iterable[tuple[str, PolyhedralFunction]],
        order_edges: Iterable[tuple[str, str]] = (),
        increasing: bool = False,
    ) -> "FunctionFamily":
        members = tuple(members)
        if not members:
            raise InvalidParameterError("a family needs at least one member")
        labels = [t for t, _ in members]
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("duplicate member labels")
        dim = members[0][1].dim
        for _, f in members:
            if f.dim != dim:
                raise DimensionMismatchError("member dimension mismatch")
        edges = tuple(sorted(set(tuple(e) for e in order_edges)))
        known = set(labels)
        for lo, hi in edges:
            if lo not in known or hi not in known:
                raise InvalidParameterError(f"order edge on unknown label: {lo!r} <= {hi!r}")
        return FunctionFamily(dim, members, edges, bool(increasing))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.members)

    def member(self, label: str) -> PolyhedralFunction:
        for t, f in self.members:
            if t == label:
                return f
        raise InvalidParameterError(f"unknown label {label!r}")

    # -- the supremum ----------------------------------------------------

    @cached_property
    def sup(self) -> PolyhedralFunction:
        """Pointwise max of the members; improper when domains miss."""
        pieces: list = []
        domain = Polyhedron.full_space(self.dim)
        for _, f in self.members:
            pieces.extend(f.pieces)
            domain = intersect(domain, f.domain)
        return PolyhedralFunction(
            self.dim, tuple(sorted(set(pieces))), domain
        )

    @cached_property
    def conjugate_hull(self) -> Polyhedron:
        """Closed convex hull of the member conjugate epigraphs."""
        return cco_union([f.conjugate().epigraph for _, f in self.members])

    @cached_property
    def co_hull_values(self) -> dict:
        """Hull-program results over every label by dual point, kept by
        ``calculus.co_hull_conjugates`` so each point's LP is solved once."""
        return {}

    @cached_property
    def qc2_answers(self) -> dict:
        """QC2 answers by primal point, kept by ``calculus.check_qc2`` so
        each point's triviality test is solved once."""
        return {}

    def active_indices(self, x: Sequence, eps) -> set[str]:
        """Labels with f_t(x) within eps of the supremum value."""
        eps = rational(eps)
        if eps < 0:
            raise InvalidParameterError("eps must be nonnegative")
        fx = self.sup.eval(vec(x))
        if not fx.is_finite:
            raise InvalidParameterError("active set needs a finite supremum value")
        cut = fx.finite_value() - eps
        out = set()
        for t, f in self.members:
            v = f.eval(vec(x))
            if v.is_finite and v.finite_value() >= cut:
                out.add(t)
        return out

    # -- order reasoning -------------------------------------------------

    @cached_property
    def order_closure(self) -> frozenset[tuple[str, str]]:
        """Reflexive-transitive closure of the declared edges."""
        labels = self.labels
        reach: dict[str, set[str]] = {t: {t} for t in labels}
        changed = True
        while changed:
            changed = False
            for lo, hi in self.order_edges:
                add = reach[hi] - reach[lo]
                if add:
                    reach[lo] |= add
                    changed = True
        return frozenset((lo, hi) for lo, ups in reach.items() for hi in ups)

    def verify_increasing(self) -> bool:
        """Audit the increasing claim exactly, once per family."""
        return self._increasing_verified

    @cached_property
    def _increasing_verified(self) -> bool:
        """Is the order directed (every pair of labels has an upper bound)
        and does each edge t <= s give f_t <= f_s?  For closed functions
        that is the epigraph inclusion epi f_s subset-of epi f_t."""
        if not self.increasing:
            return False
        closure = self.order_closure
        for t in self.labels:
            for s in self.labels:
                if not any(
                    (t, u) in closure and (s, u) in closure for u in self.labels
                ):
                    return False
        for lo, hi in self.order_edges:
            if not included(self.member(hi).epigraph, self.member(lo).epigraph):
                return False
        return True
