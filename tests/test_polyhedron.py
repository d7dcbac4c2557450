"""Polyhedron kernel: representations, set algebra, recession structure.

Derived expectations in this file come from a support-function oracle
built on raw vertex/ray enumeration, never from the operation under test.
"""
import os
import random
from fractions import Fraction as Q
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supcalc.lp as lp_module
import supcalc.polyhedron as polyhedron_module

from supcalc.errors import (
    CapacityError,
    DimensionMismatchError,
    EmptySetError,
    InvalidParameterError,
)
from supcalc.polyhedron import (
    Polyhedron,
    affine_preimage,
    cco_union,
    cone_is_trivial,
    dd_dimension_cap,
    included,
    interior_point,
    intersect,
    minkowski_sum,
    missing_generator,
    polyhedron_equal,
    recession_cone,
    support_value,
)
from supcalc.oracles import _nullspace_basis, brute_generators
from supcalc.projection import Image
from supcalc.rationals import NEG_INF, POS_INF, ExtendedRational, dot, qv
from supcalc.serialize import json_digest

FIN = ExtendedRational.finite

DIRECTIONS_2D = [
    qv(a, b)
    for a, b in [
        (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1),
        (2, 1), (1, 2), (-2, 1), (1, -2), (3, -1), (-1, 3), (-3, -2), (2, -3),
        (Q(1, 2), 1), (1, Q(1, 3)), (Q(-2, 3), Q(1, 5)), (Q(5, 7), Q(-1, 2)),
    ]
]


def assert_canonical_rows(p):
    """Stored rows are int, coprime and sorted without repeats; equalities lead positive."""
    for rows in (p.ineqs, p.eqs):
        flat = [(*a, b) for a, b in rows]
        assert all(type(t) is int for r in flat for t in r)
        assert all(gcd(*r) == 1 for r in flat)
        assert flat == sorted(set(flat))
    assert all(next(t for t in a if t) > 0 for a, _ in p.eqs)


def oracle_support(verts, rays, d):
    """sup of <d, x> over conv(verts) + cone(rays), by direct enumeration."""
    if not verts:
        return NEG_INF
    if any(dot(d, r) > 0 for r in rays):
        return POS_INF
    return FIN(max(dot(d, v) for v in verts))


class TestRepresentations:
    def test_box_round_trip(self):
        box = Polyhedron.box(qv(-1, 0), qv(2, 3))
        verts, rays = box.generators
        assert sorted(verts) == [
            qv(-1, 0), qv(-1, 3), qv(2, 0), qv(2, 3)
        ]
        assert rays == ()
        assert polyhedron_equal(Polyhedron.from_generators(2, verts, rays), box)

    def test_triangle_from_generators(self):
        tri = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)])
        assert tri.contains(qv("1/4", "1/4"))
        assert not tri.contains(qv(1, 1))
        assert sorted(tri.vertices) == [qv(0, 0), qv(0, 1), qv(1, 0)]

    def test_single_point_and_full_space(self):
        pt = Polyhedron.single_point(qv(2, -1))
        assert pt.vertices == (qv(2, -1),) and pt.rays == ()
        full = Polyhedron.full_space(2)
        assert full.contains(qv(100, -100)) and full.ineqs == () and full.eqs == ()

    def test_empty(self):
        e = Polyhedron.empty(2)
        assert e.is_empty and not e.contains(qv(0, 0))
        assert e.generators == ((), ())

    def test_a_hull_of_generators_knows_it_is_nonempty(self, monkeypatch):
        solves = []
        real = lp_module.solve_min
        for module in (lp_module, polyhedron_module):
            monkeypatch.setattr(module, "solve_min",
                                lambda *args, **kw: solves.append(args) or real(*args, **kw))
        beam = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 2)], [qv(1, 0)])
        assert not beam.is_empty and solves == []
        # rays alone generate no point, so that hull stays the empty set
        assert Polyhedron.from_generators(2, [], [qv(1, 0)]).is_empty

    def test_contains_interior_and_ray(self):
        box = Polyhedron.box(qv(0), qv(1))
        assert box.contains_in_interior(qv("1/2"))
        assert not box.contains_in_interior(qv(0))
        ray = Polyhedron.from_hrep(2, [(qv(-1, 0), Q(0))])
        assert ray.contains_ray(qv(1, 0))
        assert ray.contains_ray(qv(0, 1))
        assert not ray.contains_ray(qv(-1, 0))

    @pytest.mark.parametrize("make", [
        lambda: Polyhedron.from_hrep(2, [(qv("1/2", "-1/3"), Q(1, 6))], [(qv(-2, 4), Q(1))]),
        lambda: Polyhedron.from_generators(2, [qv("1/2", 0), qv(0, "1/3")]),
        lambda: Polyhedron.from_generators(2, [qv("1/2", 0)], [qv(-1, "-2/3"), qv(0, 1)]),
        lambda: Polyhedron.empty(2),
        lambda: Polyhedron.box(qv("-1/2", 0), qv(1, "2/3")),
        lambda: Polyhedron.single_point(qv("1/3", -2)),
        lambda: intersect(Polyhedron.box(qv(0, 0), qv(2, 2)),
                          Polyhedron.from_hrep(2, [(qv(1, 1), Q(5, 2))], [(qv(-1, 1), Q(0))])),
    ], ids=["from_hrep", "from_generators", "from_generators_rays", "empty", "box",
            "single_point", "intersect"])
    def test_every_constructor_stores_canonical_int_rows(self, make):
        p = make()
        assert p.ineqs or p.eqs
        assert_canonical_rows(p)

    @pytest.mark.parametrize("predicate", ["contains", "contains_ray", "contains_in_interior"])
    def test_predicates_refuse_a_wrong_length(self, predicate):
        for p in (Polyhedron.full_space(2), Polyhedron.from_hrep(2, [], [(qv(1, 0), Q(0))])):
            for probe in (qv(1), qv(1, 2, 3)):
                with pytest.raises(DimensionMismatchError):
                    getattr(p, predicate)(probe)

    @pytest.mark.parametrize("build", [
        lambda: Polyhedron.box(qv(0, 0), qv(1)),
        lambda: Polyhedron.box(qv(0), qv(1, 1)),
        lambda: affine_preimage(Polyhedron.box(qv(0, 0), qv(1, 1)), [qv(1, 0), qv(1)], qv(0, 0)),
        lambda: Image(2, [], [], [qv(1, 0), qv(1)]),
    ], ids=["box_short_hi", "box_long_hi", "affine_preimage_ragged", "image_ragged"])
    def test_constructors_refuse_a_wrong_length(self, build):
        with pytest.raises(DimensionMismatchError):
            build()


class TestSetAlgebra:
    def test_minkowski_sum_against_support_oracle(self):
        tri = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)])
        beam = Polyhedron.from_generators(2, [qv(0, 0)], [qv(1, 1)])
        s = minkowski_sum(tri, beam)
        for d in DIRECTIONS_2D:
            want = oracle_support(tri.vertices, tri.rays, d) + oracle_support(
                beam.vertices, beam.rays, d
            )
            assert support_value(s, d) == want

    def test_cco_union_interval(self):
        a = Polyhedron.box(qv(0), qv(1))
        b = Polyhedron.box(qv(2), qv(3))
        u = cco_union([a, b])
        assert polyhedron_equal(u, Polyhedron.box(qv(0), qv(3)))

    def test_cco_union_support_is_max(self):
        a = Polyhedron.box(qv(-1, -1), qv(0, 0))
        b = Polyhedron.from_generators(2, [qv(1, 0)], [qv(0, 1)])
        u = cco_union([a, b])
        for d in DIRECTIONS_2D:
            want = max(
                oracle_support(a.vertices, a.rays, d),
                oracle_support(b.vertices, b.rays, d),
            )
            assert support_value(u, d) == want

    def test_intersect_included_equal(self):
        big = Polyhedron.box(qv(0, 0), qv(4, 4))
        small = Polyhedron.box(qv(1, 1), qv(2, 2))
        assert included(small, big) and not included(big, small)
        cap = intersect(big, Polyhedron.box(qv(1, 1), qv(9, 9)))
        assert polyhedron_equal(cap, Polyhedron.box(qv(1, 1), qv(4, 4)))
        assert not polyhedron_equal(big, small)

    def test_included_with_rays(self):
        quad = Polyhedron.from_hrep(2, [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0))])
        half = Polyhedron.from_hrep(2, [(qv(-1, -1), Q(0))])
        assert included(quad, half)
        assert not included(half, quad)

    def test_witness_point_outside(self):
        big = Polyhedron.box(qv(0, 0), qv(4, 4))
        small = Polyhedron.box(qv(1, 1), qv(2, 2))
        gap = missing_generator(big, small)
        assert gap == {"point": qv(0, 0)}
        assert gap["point"] in big.vertices and not small.contains(gap["point"])

    def test_witness_ray_only(self):
        # every vertex of the quadrant lies in the strip; only the ray (0, 1) leaves
        quad = Polyhedron.from_hrep(2, [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0))])
        strip = Polyhedron.from_hrep(
            2, [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0)), (qv(0, 1), Q(1))]
        )
        assert all(strip.contains(v) for v in quad.vertices)
        assert missing_generator(quad, strip) == {"ray": qv(0, 1)}

    def test_witness_empty_sides(self):
        square = Polyhedron.box(qv(0, 0), qv(1, 1))
        empty = Polyhedron.empty(2)
        assert missing_generator(square, empty) == {"point": square.vertices[0]}
        assert square.vertices[0] == qv(0, 0)
        assert missing_generator(empty, square) is None
        assert missing_generator(empty, empty) is None

    def test_no_witness_on_inclusion(self):
        big = Polyhedron.box(qv(0, 0), qv(4, 4))
        small = Polyhedron.box(qv(1, 1), qv(2, 2))
        assert missing_generator(small, big) is None
        assert missing_generator(big, big) is None
        quad = Polyhedron.from_hrep(2, [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0))])
        half = Polyhedron.from_hrep(2, [(qv(-1, -1), Q(0))])
        assert missing_generator(quad, half) is None


def _counting_solves(monkeypatch):
    solves = []
    real = lp_module.solve_min
    for module in (lp_module, polyhedron_module):
        monkeypatch.setattr(module, "solve_min",
                            lambda *args, **kw: solves.append(args) or real(*args, **kw))
    return solves


# x <= 0 and x >= 1 in the first coordinate: empty, though no single row says so
def _hidden_empty(dim):
    e = (Q(1),) + (Q(0),) * (dim - 1)
    return Polyhedron.from_hrep(dim, [(e, Q(0)), (tuple(-t for t in e), Q(-1))])


def _counting_conversions(monkeypatch):
    conversions = []
    real = polyhedron_module.dd_cone
    monkeypatch.setattr(polyhedron_module, "dd_cone",
                        lambda *args: conversions.append(args) or real(*args))
    return conversions


class TestEmptinessFromGenerators:
    """is_empty reads the conversion within the DD cap and an LP above it."""

    @pytest.mark.parametrize("p, empty", [
        (Polyhedron.box(qv(0, 0), qv(1, 1)), False), (_hidden_empty(2), True),
    ])
    def test_is_empty_converts_within_the_cap_and_solves_one_lp_above(
        self, monkeypatch, p, empty
    ):
        solves = _counting_solves(monkeypatch)
        conversions = _counting_conversions(monkeypatch)
        within = Polyhedron(p.dim, p.ineqs, p.eqs)
        assert within.is_empty == empty
        assert solves == [] and len(conversions) == 1
        assert "generators" in vars(within)
        monkeypatch.setenv("SUPCALC_DD_CAP", "1")
        above = Polyhedron(p.dim, p.ineqs, p.eqs)
        assert above.is_empty == empty
        assert len(solves) == 1 and len(conversions) == 1
        assert "generators" not in vars(above)

    def test_cco_union_solves_no_lp(self, monkeypatch):
        solves = _counting_solves(monkeypatch)
        square = Polyhedron.from_hrep(2, [(qv(1, 0), Q(1)), (qv(-1, 0), Q(0)),
                                          (qv(0, 1), Q(1)), (qv(0, -1), Q(0))])
        beam = Polyhedron.from_hrep(2, [(qv(0, 1), Q(2)), (qv(0, -1), Q(-2)),
                                        (qv(-1, 0), Q(-3))])
        u = cco_union([square, _hidden_empty(2), beam])
        assert solves == []
        assert u.vertices == (qv(0, 0), qv(0, 1), qv(3, 2))
        assert u.rays == (qv(1, 0),)

    def test_minkowski_sum_solves_no_lp(self, monkeypatch):
        solves = _counting_solves(monkeypatch)
        seg = Polyhedron.from_hrep(1, [(qv(1), Q(1)), (qv(-1), Q(0))])
        half = Polyhedron.from_hrep(1, [(qv(-1), Q(-2))])
        s = minkowski_sum(seg, half)
        assert solves == []
        assert s.generators == ((qv(2),), (qv(1),))
        with pytest.raises(EmptySetError):
            minkowski_sum(seg, _hidden_empty(1))
        assert solves == []

    def test_missing_generator_solves_no_lp(self, monkeypatch):
        solves = _counting_solves(monkeypatch)
        big = Polyhedron.from_hrep(2, [(qv(1, 0), Q(4)), (qv(-1, 0), Q(0)),
                                       (qv(0, 1), Q(4)), (qv(0, -1), Q(0))])
        small = Polyhedron.box(qv(1, 1), qv(2, 2))
        hole = _hidden_empty(2)
        assert missing_generator(big, small) == {"point": qv(0, 0)}
        assert missing_generator(hole, small) is None
        # the built generators answer is_empty later as well
        assert not big.is_empty and hole.is_empty
        assert solves == []

    def test_set_relations_read_converted_emptiness(self, monkeypatch):
        # within the DD cap is_empty reads every side's emptiness off its
        # conversion, the right-hand set of included too, so no LP is solved
        solves = _counting_solves(monkeypatch)
        box = Polyhedron.box(qv(0, 0), qv(1, 1))
        hole = _hidden_empty(2)
        assert polyhedron_equal(hole, _hidden_empty(2))
        assert not polyhedron_equal(box, _hidden_empty(2))
        assert polyhedron_equal(box, Polyhedron.box(qv(0, 0), qv(1, 1)))
        assert solves == []
        unit = Polyhedron.box(qv(0, 0), qv(1, 1))
        assert included(_hidden_empty(2), unit) and included(box, unit)
        assert not included(Polyhedron.box(qv(0, 0), qv(2, 2)), unit)
        assert len(solves) == 0

    def test_equal_rows_need_no_conversion(self, monkeypatch):
        # equal canonical rows are one set, empty or not, so within the
        # DD cap neither relation converts a set or solves an LP
        solves = _counting_solves(monkeypatch)
        conversions = _counting_conversions(monkeypatch)
        for make in (lambda: Polyhedron.box(qv(0, 0), qv(1, 1)), lambda: _hidden_empty(2)):
            p, q = make(), make()
            assert p == q and p is not q
            assert included(p, q) and polyhedron_equal(p, q)
        assert solves == [] and conversions == []
        assert not included(Polyhedron.box(qv(0, 0), qv(2, 2)), Polyhedron.box(qv(0, 0), qv(1, 1)))
        assert conversions

    def test_above_the_cap_empty_sets_keep_their_answers(self, monkeypatch):
        # no conversion may run, so an LP tells the empty sets apart and
        # they never reach CapacityError; equal rows need neither
        monkeypatch.setenv("SUPCALC_DD_CAP", "1")
        box = Polyhedron.box(qv(0, 0), qv(1, 1))
        assert missing_generator(_hidden_empty(2), box) is None
        with pytest.raises(EmptySetError):
            cco_union([_hidden_empty(2), _hidden_empty(2)])
        with pytest.raises(EmptySetError):
            minkowski_sum(_hidden_empty(2), box)
        with pytest.raises(EmptySetError):
            minkowski_sum(box, _hidden_empty(2))
        with pytest.raises(CapacityError):
            cco_union([_hidden_empty(2), box])
        for relation in (included, polyhedron_equal):
            assert not relation(Polyhedron.box(qv(0, 0), qv(1, 1)), Polyhedron.empty(2))
            assert relation(_hidden_empty(2), _hidden_empty(2))
            assert relation(box, Polyhedron.box(qv(0, 0), qv(1, 1)))  # two unit boxes
        assert included(_hidden_empty(2), Polyhedron.box(qv(0, 0), qv(1, 1)))


class TestKeptConversion:
    """A hull from generators reads its V-form off the conversion that built it."""

    @staticmethod
    def _parts():
        # a triangle and a beam, their own generators already read
        parts = [Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)]),
                 Polyhedron.from_generators(2, [qv(3, 2)], [qv(1, 0)])]
        for p in parts:
            p.generators
        return parts

    def test_a_pointed_hull_converts_once(self, monkeypatch):
        parts = self._parts()
        conversions = _counting_conversions(monkeypatch)
        u = cco_union(parts)
        assert u.generators == ((qv(0, 0), qv(0, 1), qv(3, 2)), (qv(1, 0),))
        assert len(conversions) == 1
        assert "_conversion" not in vars(u)

    def test_a_hull_with_a_line_converts_its_rows(self, monkeypatch):
        parts = self._parts() + [Polyhedron.from_generators(2, [qv(0, 5)], [qv(-1, 0)])]
        parts[-1].generators
        conversions = _counting_conversions(monkeypatch)
        u = cco_union(parts)
        assert u.generators == ((qv(0, 0), qv(0, 5)), (qv(-1, 0), qv(1, 0)))  # 0 <= y <= 5
        assert len(conversions) == 2
        assert "_conversion" not in vars(u)

    def test_a_repeated_vertex_is_kept_once(self, monkeypatch):
        # without the repeats dropped, each copy's zero set would rule
        # its twin out and the segment would lose both ends
        conversions = _counting_conversions(monkeypatch)
        seg = Polyhedron.from_generators(2, [qv(0, 0), qv(2, 1), qv(0, 0), qv(1, Q(1, 2)), qv(2, 1)])
        assert seg.generators == ((qv(0, 0), qv(2, 1)), ())
        ray = Polyhedron.from_generators(1, [qv(1), qv(1)], [qv(3), qv(1)])
        assert ray.generators == ((qv(1),), (qv(1),))
        assert len(conversions) == 2  # the two V->H conversions only

    def test_the_kept_read_needs_no_cap(self, monkeypatch):
        tri = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)])
        band = Polyhedron.from_generators(2, [qv(0, 0), qv(0, 1)], [qv(1, 0), qv(-1, 0)])
        monkeypatch.setenv("SUPCALC_DD_CAP", "1")
        assert tri.vertices == (qv(0, 0), qv(0, 1), qv(1, 0))
        with pytest.raises(CapacityError):
            band.generators


@st.composite
def generator_sets(draw):
    """(dim, vertices, rays) with dim <= 4, often with redundant generators.

    On coin flips a vertex repeats, a point inside the hull (a midpoint)
    joins, a ray repeats at scale 2, a ray's opposite joins (a line),
    or one coordinate is zeroed in every generator (a flat hull); a lone
    vertex with no ray is a single point.
    """
    dim = draw(st.integers(1, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.tuples(*[entry] * dim)
    verts = draw(st.lists(vector, min_size=1, max_size=dim + 3))
    rays = draw(st.lists(vector, max_size=2))
    if draw(st.booleans()):
        verts.append(draw(st.sampled_from(verts)))
    if len(verts) > 1 and draw(st.booleans()):
        verts.append(tuple((a + b) / 2 for a, b in zip(verts[0], verts[1])))
    if rays and draw(st.booleans()):
        rays.append(tuple(2 * t for t in rays[0]))
    if rays and draw(st.integers(0, 3)) == 0:
        rays.append(tuple(-t for t in rays[-1]))
    if dim > 1 and draw(st.integers(0, 3)) == 0:
        verts, rays = ([(Q(0),) + g[1:] for g in gens] for gens in (verts, rays))
    return dim, verts, rays


def _has_line(rays):
    return any(tuple(-t for t in r) in rays for r in rays)


@settings(max_examples=300)
@given(generator_sets())
@example((1, [qv(2)], []))  # a single point
@example((2, [qv(0, 0), qv(0, 0)], [qv(1, 1), qv(2, 2)]))  # repeats only
@example((2, [qv(0, 0), qv(2, 0), qv(1, 0)], [qv(0, 1), qv(0, -1)]))  # a band
@example((3, [qv(0, 0, 0), qv(1, 0, 0), qv(0, 1, 0), qv(Q(1, 3), Q(1, 3), 0)], []))
def test_kept_generators_match_dd_on_the_rows(data):
    """The hull's read equals DD on its own rows; only a line converts."""
    dim, verts, rays = data
    hull = Polyhedron.from_generators(dim, verts, rays)
    conversions = []
    real = polyhedron_module.dd_cone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedron_module, "dd_cone",
                   lambda *args: conversions.append(args) or real(*args))
        read = hull.generators
    assert read == Polyhedron(dim, hull.ineqs, hull.eqs).generators
    assert len(conversions) == (1 if _has_line(read[1]) else 0)
    assert "_conversion" not in vars(hull)
    if dim <= 3 and not _has_line(read[1]):
        # pointed: extreme points and extreme directions are unique
        pts, dirs = brute_generators(dim, hull.ineqs, hull.eqs)
        assert list(read[0]) == pts
        direction = polyhedron_module._int_normalize
        assert {direction(r) for r in read[1]} == {direction(r) for r in dirs}


def _fraction_rank(rows):
    """The former rank: Gaussian elimination in Fractions, kept as the reference."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    top = rows[0]
    col = next(j for j, t in enumerate(top) if t != 0)
    return 1 + _fraction_rank([[t - r[col] / top[col] * u for t, u in zip(r, top)] for r in rows[1:]])


@given(
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=7)),
    st.integers(-4, 4).filter(bool),
)
@example([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 0, 1]], 2)
@example([[0, 1], [0, 2], [0, -5]], -3)
def test_integer_rank_matches_the_fraction_reference(rows, scale):
    # the fraction-free rank equals the Fraction one, and scaling a row
    # by a nonzero integer leaves it unchanged
    rank = polyhedron_module._rank(rows)
    assert rank == _fraction_rank([[Q(t) for t in r] for r in rows])
    if rows:
        assert polyhedron_module._rank([[scale * t for t in rows[0]], *rows[1:]]) == rank


def _lp_empty(p):
    """Emptiness by a phase-1 LP on p's rows, independent of ``is_empty``."""
    res = lp_module.solve_min((Q(0),) * p.dim, p.ineqs, p.eqs)
    return res.status is lp_module.LPStatus.INFEASIBLE


def _reference_equal(p, q):
    """``polyhedron_equal``'s body when every emptiness was an LP."""
    if p.dim != q.dim:
        raise DimensionMismatchError("polyhedron_equal arity mismatch")
    if p == q:  # equal canonical rows are one set
        return True
    if _lp_empty(p) or _lp_empty(q):
        return _lp_empty(p) and _lp_empty(q)
    return missing_generator(p, q) is None and missing_generator(q, p) is None


def _reference_included(p, q):
    """``included``'s body when P's emptiness was an LP."""
    if p.dim != q.dim:
        raise DimensionMismatchError("included arity mismatch")
    if p == q:  # equal canonical rows are one set
        return True
    if _lp_empty(p):
        return True
    # an empty Q needs no witness, so P's generators are never converted
    return not _lp_empty(q) and missing_generator(p, q) is None


@st.composite
def set_pairs(draw):
    """(cap, p, q): two sets in one dimension 1-3 and a DD cap (None for
    the default), below the dimension in some draws.

    Each set is drawn rows, drawn rows with a contradicting pair added
    (empty, though no single row says so) or ``Polyhedron.empty``; p is
    often cut from q or equal to it, so inclusions and equalities hold.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    cap = draw(st.sampled_from([None, *range(1, dim)]))
    entry = st.integers(min_value=-2, max_value=2)

    def rows(most):
        return [(tuple(draw(entry) for _ in range(dim)), draw(entry))
                for _ in range(draw(st.integers(min_value=0, max_value=most)))]

    def drawn():
        kind = draw(st.sampled_from(["rows", "rows", "infeasible", "empty"]))
        if kind == "empty":
            return Polyhedron.empty(dim)
        ineqs, eqs = rows(4), rows(1)
        if kind == "infeasible":
            a = (1,) + tuple(draw(entry) for _ in range(dim - 1))
            b = draw(entry)
            ineqs += [(a, b - 1), (tuple(-t for t in a), -b)]
        return Polyhedron.from_hrep(dim, ineqs, eqs)

    q = drawn()
    relation = draw(st.sampled_from(["apart", "inside", "equal"]))
    if relation == "apart":
        p = drawn()
    elif relation == "inside":
        p = intersect(q, drawn())
    else:
        p = q
    return cap, p, q


def _outcome(relation, p, q):
    """The answer, or the error type, on copies that know nothing yet."""
    fresh = [Polyhedron(s.dim, s.ineqs, s.eqs) for s in (p, q)]
    try:
        return relation(*fresh)
    except CapacityError:
        return CapacityError


@given(set_pairs())
@example((1, Polyhedron.box(qv(0, 0), qv(1, 1)), Polyhedron.empty(2)))
@example((1, Polyhedron.empty(2), Polyhedron.box(qv(0, 0), qv(1, 1))))
@example((1, _hidden_empty(2), Polyhedron.box(qv(0, 0), qv(1, 1))))
@example((2, _hidden_empty(3), _hidden_empty(3)))
def test_set_relations_match_their_reference_bodies(data):
    # above the cap too, an empty side or equal rows answer; only two
    # nonempty sets that need a conversion raise CapacityError
    cap, p, q = data
    env = {} if cap is None else {"SUPCALC_DD_CAP": str(cap)}
    with mock.patch.dict(os.environ, env):
        for a, b in ((p, q), (q, p)):
            assert _outcome(included, a, b) == _outcome(_reference_included, a, b)
            assert _outcome(polyhedron_equal, a, b) == _outcome(_reference_equal, a, b)


class TestRecession:
    def test_recession_cone_of_wedge(self):
        wedge = Polyhedron.from_hrep(
            2, [(qv(-1, 0), Q(1)), (qv(1, -1), Q(2))]
        )
        rc = recession_cone(wedge)
        assert rc.contains(qv(0, 1)) and rc.contains(qv(1, 1))
        assert not rc.contains(qv(1, 0))
        assert rc.contains(qv(0, 0))

    def test_recession_cone_of_polytope_is_origin(self):
        rc = recession_cone(Polyhedron.box(qv(0, 0), qv(1, 1)))
        assert polyhedron_equal(rc, Polyhedron.single_point(qv(0, 0)))

    def test_cone_is_trivial(self):
        dim = 2
        origin_rows = [(qv(1, 0), Q(0)), (qv(-1, 0), Q(0)),
                       (qv(0, 1), Q(0)), (qv(0, -1), Q(0))]
        assert cone_is_trivial(dim, origin_rows, [])
        assert not cone_is_trivial(dim, [(qv(1, 0), Q(0))], [])

    def test_cone_rows_need_zero_right_hand_sides(self):
        with pytest.raises(InvalidParameterError):
            cone_is_trivial(1, [(qv(1), Q(1))], [])
        with pytest.raises(InvalidParameterError):
            cone_is_trivial(1, [(qv(1), Q(0))], [(qv(1), Q(-1))])


@st.composite
def small_cones(draw):
    """(dim, ineqs, eqs) of a cone: dim <= 4, at most 7 inequalities, 2 equalities.

    Entries lie in [-2, 2].  On coin flips an inequality is joined by
    its negation (an implicit equality) or repeated, and one coordinate
    is zeroed in every row so that [G; A] loses rank.
    """
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2).map(Q)] * dim)
    ineqs = draw(st.lists(vector, max_size=5))
    eqs = draw(st.lists(vector, max_size=2))
    if ineqs and draw(st.booleans()):
        ineqs.append(tuple(-t for t in draw(st.sampled_from(ineqs))))
    if ineqs and draw(st.booleans()):
        ineqs.append(draw(st.sampled_from(ineqs)))
    if draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        ineqs, eqs = ([a[:k] + (Q(0),) + a[k + 1:] for a in rows] for rows in (ineqs, eqs))
    return dim, [(a, Q(0)) for a in ineqs], [(a, Q(0)) for a in eqs]


def _cone(dim, ineqs, eqs=()):
    return dim, [(qv(*a), Q(0)) for a in ineqs], [(qv(*a), Q(0)) for a in eqs]


@settings(max_examples=200)
@given(small_cones())
@example(_cone(2, [(1, 0), (0, 1), (-1, -1)]))  # a positive spanning set
@example(_cone(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [(0, 0, 1)]))
@example(_cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]))  # rank 2
@example(_cone(2, [(1, 1), (-1, -1), (1, -1)], [(0, 0)]))  # a half-line
def test_cone_is_trivial_matches_brute_generators(cone):
    """Trivial exactly when the oracle finds no ray; one LP, none below full rank."""
    dim, ineqs, eqs = cone
    _, rays = brute_generators(dim, ineqs, eqs)
    solves = []
    real = polyhedron_module.solve_min
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedron_module, "solve_min",
                   lambda *args, **kw: solves.append(args) or real(*args, **kw))
        assert cone_is_trivial(dim, ineqs, eqs) == (not rays)
    full_rank = not _nullspace_basis([a for a, _ in ineqs + eqs], dim)
    assert len(solves) == (1 if full_rank else 0)


class TestInteriorPoint:
    def test_box_interior(self):
        box = Polyhedron.box(qv(0, 0), qv(1, 1))
        x = interior_point(box)
        assert x is not None and box.contains_in_interior(x)

    def test_flat_and_empty_have_none(self):
        seg = Polyhedron.from_hrep(
            2, [(qv(1, 0), Q(1)), (qv(-1, 0), Q(0))], [(qv(0, 1), Q(0))]
        )
        assert interior_point(seg) is None
        assert interior_point(Polyhedron.empty(2)) is None

    def test_row_free_full_space(self):
        x = interior_point(Polyhedron.full_space(3))
        assert x is not None and len(x) == 3

    @pytest.mark.parametrize("rows, has_interior, empty", [
        ([(qv(1, 0), Q(1)), (qv(-1, 0), Q(0)), (qv(0, 1), Q(1)), (qv(0, -1), Q(0))],
         True, False),
        ([(qv(1, 0), Q(0)), (qv(-1, 0), Q(0))], False, False),  # the line x = 0
        ([(qv(1, 0), Q(-1)), (qv(-1, 0), Q(-1))], False, True),
    ])
    def test_one_lp_settles_emptiness(self, rows, has_interior, empty):
        # the max-slack LP is negative exactly on an empty set, so it
        # answers is_empty too, and a known answer is reused
        def counted(make):
            p = Polyhedron.from_hrep(2, rows)
            solves = []
            real = lp_module.solve_min
            with pytest.MonkeyPatch.context() as mp:
                for module in (lp_module, polyhedron_module):
                    mp.setattr(module, "solve_min",
                               lambda *args, **kw: solves.append(args) or real(*args, **kw))
                answers = make(p)
            return answers, len(solves)

        point_first, n_first = counted(lambda p: (interior_point(p), p.is_empty))
        assert n_first == 1
        assert (point_first[0] is not None) == has_interior
        assert point_first[1] == empty
        empty_first, n_known = counted(lambda p: (p.is_empty, interior_point(p)))
        assert empty_first == (empty, point_first[0])
        assert n_known == (0 if empty else 1)
        # the answer is kept on the set, so asking again solves nothing
        twice, n_twice = counted(lambda p: (interior_point(p), interior_point(p)))
        assert twice == (point_first[0],) * 2
        assert n_twice == 1


class TestAffinePreimage:
    def test_line_section_of_box(self):
        box = Polyhedron.box(qv(0, 0), qv(1, 1))
        # z maps to (z, 1/2); preimage is the unit interval
        pre = affine_preimage(box, [qv(1), qv(0)], qv(0, "1/2"))
        assert polyhedron_equal(pre, Polyhedron.box(qv(0), qv(1)))

    def test_shifted_scaling(self):
        box = Polyhedron.box(qv(0), qv(4))
        # z maps to 2z + 1; preimage of [0,4] is [-1/2, 3/2]
        pre = affine_preimage(box, [qv(2)], qv(1))
        assert polyhedron_equal(pre, Polyhedron.box(qv("-1/2"), qv("3/2")))


class TestSupportValue:
    def test_box_and_unbounded(self):
        box = Polyhedron.box(qv(-1, 0), qv(2, 3))
        assert support_value(box, qv(1, 1)) == FIN(Q(5))
        beam = Polyhedron.from_generators(2, [qv(0, 0)], [qv(1, 0)])
        assert support_value(beam, qv(1, 0)) == POS_INF
        assert support_value(beam, qv(-1, 0)) == FIN(Q(0))
        assert support_value(Polyhedron.empty(2), qv(1, 0)) == NEG_INF


class TestCap:
    def test_env_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("SUPCALC_DD_CAP", "2")
        assert dd_dimension_cap() == 2
        with pytest.raises(CapacityError):
            Polyhedron.box(qv(0, 0, 0), qv(1, 1, 1)).generators

    def test_bad_cap_values(self, monkeypatch):
        monkeypatch.setenv("SUPCALC_DD_CAP", "zero")
        with pytest.raises(InvalidParameterError):
            dd_dimension_cap()
        monkeypatch.setenv("SUPCALC_DD_CAP", "0")
        with pytest.raises(InvalidParameterError):
            dd_dimension_cap()


interval_bounds = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@given(interval_bounds, interval_bounds)
def test_double_conversion_identity(bx, by):
    lo = (min(bx), min(by))
    hi = (max(bx), max(by))
    p = Polyhedron.box(lo, hi)
    rebuilt = Polyhedron.from_generators(2, *p.generators)
    assert polyhedron_equal(rebuilt, p)


@st.composite
def rows_and_probes(draw):
    """(dim, ineqs, eqs, x, d) with fractional rows, dim <= 3.

    Rows are often tight at the point x or flat along the direction d,
    so equalities and boundaries are hit; zero rows, repeated rows and
    rows repeated at a positive rational scale also occur.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vector = st.tuples(*[entry] * dim)
    x, d = draw(vector), draw(vector)
    flat = (d[1], -d[0]) + (Q(0),) * (dim - 2) if dim > 1 else (Q(0),)

    def row():
        kind = draw(st.sampled_from(["free", "tight", "tight", "flat", "zero"]))
        if kind == "zero":
            return (Q(0),) * dim, draw(st.sampled_from([Q(0), Q(0), Q(1, 2), Q(-1)]))
        a = flat if kind == "flat" else draw(vector)
        return a, dot(a, x) if kind == "tight" else draw(entry)

    def rows(most):
        out = [row() for _ in range(draw(st.integers(min_value=0, max_value=most)))]
        if out and draw(st.booleans()):
            a, b = draw(st.sampled_from(out))
            k = draw(st.sampled_from([Q(1), Q(2, 3), Q(5)]))
            out.append((tuple(k * t for t in a), k * b))
        return out

    return dim, rows(4), rows(2), x, d


@given(rows_and_probes())
def test_integer_rows_take_the_same_canonical_form(data):
    # integer rows skip the Fraction round trip; a Polyhedron's own rows
    # fed back, and the same rows scaled by integers, must store the
    # rows the Fraction path stores
    dim, ineqs, eqs, _, _ = data
    p = Polyhedron.from_hrep(dim, ineqs, eqs)
    again = Polyhedron.from_hrep(dim, p.ineqs, p.eqs)
    scaled = Polyhedron.from_hrep(
        dim,
        [(tuple(3 * t for t in a), 3 * b) for a, b in p.ineqs],
        [(tuple(-2 * t for t in a), -2 * b) for a, b in p.eqs],
    )
    fractions = Polyhedron.from_hrep(
        dim,
        [(tuple(map(Q, a)), Q(b)) for a, b in p.ineqs],
        [(tuple(map(Q, a)), Q(b)) for a, b in p.eqs],
    )
    for q in (again, scaled, fractions):
        assert_canonical_rows(q)
        assert (q.ineqs, q.eqs) == (p.ineqs, p.eqs)


@given(rows_and_probes())
@example((2, [((Q(1, 2), Q(0)), Q(1, 3)), ((Q(0), Q(0)), Q(0))],
          [((Q(0), Q(0)), Q(0))], (Q(2, 3), Q(1)), (Q(-1), Q(0))))
@example((2, [((Q(1), Q(0)), Q(-1))], [], (Q(0), Q(0)), (Q(0), Q(1))))
def test_predicates_agree_with_the_callers_rows(data):
    # the reference reads the rows as given, not as the polyhedron stores them
    dim, ineqs, eqs, x, d = data
    p = Polyhedron.from_hrep(dim, ineqs, eqs)
    assert_canonical_rows(p)
    assert p.contains(x) == (
        all(dot(a, x) <= b for a, b in ineqs) and all(dot(a, x) == b for a, b in eqs)
    )
    # interior: a zero row limits nothing unless it is unsatisfiable,
    # and a nonzero equality leaves no interior
    assert p.contains_in_interior(x) == (
        all(dot(a, x) < b if any(a) else b >= 0 for a, b in ineqs)
        and all(not any(a) and b == 0 for a, b in eqs)
    )
    # an unsatisfiable zero row stores the empty marker, whose
    # recession test admits every direction
    if all(b >= 0 for a, b in ineqs if not any(a)) and all(b == 0 for a, b in eqs if not any(a)):
        assert p.contains_ray(d) == (
            all(dot(a, d) <= 0 for a, _ in ineqs) and all(dot(a, d) == 0 for a, _ in eqs)
        )


@given(rows_and_probes(), st.booleans())
# empty; unbounded with an equality; empty by its equalities alone
@example((1, [((Q(1),), Q(0)), ((Q(-1),), Q(-1))], [], (Q(0),), (Q(0),)), False)
@example((2, [((Q(1), Q(1)), Q(1))], [((Q(1), Q(-1)), Q(0))], (Q(0), Q(0)), (Q(1), Q(1))), False)
@example((3, [], [((Q(1), Q(0), Q(0)), Q(1)), ((Q(2), Q(0), Q(0)), Q(3))],
          (Q(0),) * 3, (Q(0),) * 3), False)
def test_no_generated_point_means_an_infeasible_lp(data, contradict):
    # the LP is the independent oracle: phase 1 on the caller's rows
    dim, ineqs, eqs, x, _ = data
    if contradict:
        # a.y <= b - 1 next to a.y >= b makes the set empty
        a = (ineqs + eqs)[-1][0] if ineqs + eqs else (Q(1),) * dim
        b = dot(a, x)
        ineqs = ineqs + [(a, b - 1), (tuple(-t for t in a), -b)]
    lp_status = lp_module.solve_min((Q(0),) * dim, ineqs, eqs).status
    lp_empty = lp_status is lp_module.LPStatus.INFEASIBLE
    p = Polyhedron.from_hrep(dim, ineqs, eqs)
    verts, rays = p.generators
    assert (not verts) == lp_empty
    assert p.is_empty == lp_empty  # read off the generators just built
    if lp_empty:
        assert rays == ()
    # a fresh copy answers by its own conversion within the cap, and by
    # an LP on its stored rows with the cap below dim
    caps = [{}] + [{"SUPCALC_DD_CAP": str(dim - 1)}] * (dim > 1)
    for env in caps:
        with mock.patch.dict(os.environ, env):
            assert Polyhedron(dim, p.ineqs, p.eqs).is_empty == lp_empty


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_generators_satisfy_their_own_hrep(rows):
    ineqs = [((Q(a), Q(b)), Q(c)) for a, b, c in rows if (a, b) != (0, 0)]
    if not ineqs:
        return
    p = Polyhedron.from_hrep(2, ineqs)
    verts, rays = p.generators
    for v in verts:
        assert p.contains(v)
    for r in rays:
        assert p.contains_ray(r)


# ---------------------------------------------------------------------
# double description pinned on a seeded corpus
# ---------------------------------------------------------------------

def _pinned_polyhedra():
    """Seeded inputs for the DD pin: 250 H-forms, 100 V-forms, 100 raw cones.

    Dims 1-5 in turn.  Rows have small integer or fractional entries.
    Few rows leave lines and unbounded directions.  A third of the
    H-form draws repeat a row at the scale 2 or 1/3, a quarter add a
    row's negation with the same right-hand side (an implicit equality),
    a quarter keep the first row as an explicit equality, and every
    tenth draw adds a row that contradicts another, so the set is empty.
    The V-form inputs repeat a point now and then and carry up to two
    rays.  The raw cones go to ``dd_cone`` as drawn: integer rows that
    are not reduced, with zero rows, repeats, scaled repeats and
    negations, which no caller's canonical rows contain.
    """
    rng = random.Random(1953)

    def q():
        return Q(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))

    hreps = []
    for k in range(250):
        dim = 1 + k % 5
        rows = [(tuple(q() for _ in range(dim)), q()) for _ in range(rng.randint(0, 2 * dim + 3))]
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows)
            t = rng.choice((Q(2), Q(1, 3)))
            rows.append((tuple(t * x for x in a), t * b))
        if rows and rng.random() < 0.25:
            a, b = rng.choice(rows)
            rows.append((tuple(-x for x in a), -b))
        if rows and k % 10 == 9:
            a, b = rng.choice(rows)
            rows.append((tuple(-x for x in a), -b - 1))
        rng.shuffle(rows)
        split = 1 if rows and rng.random() < 0.25 else 0
        hreps.append(Polyhedron.from_hrep(dim, rows[split:], rows[:split]))

    vreps = []
    for k in range(100):
        dim = 1 + k % 5
        points = [tuple(q() for _ in range(dim)) for _ in range(rng.randint(1, dim + 2))]
        if rng.random() < 0.3:
            points.append(rng.choice(points))
        rays = [tuple(q() for _ in range(dim)) for _ in range(rng.randint(0, 2))]
        vreps.append((dim, points, rays))

    cones = []
    for k in range(100):
        dim = 2 + k % 5
        norms = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 4))]
        for _ in range(rng.randint(0, 2)):
            m = rng.choice(norms)
            t = rng.choice((1, 2, -1))
            norms.insert(rng.randint(0, len(norms)), tuple(t * x for x in m))
        cones.append((norms, dim))
    return hreps, vreps, cones


def _recorded_conversions(monkeypatch):
    """Run every pinned conversion, recording each dd_cone call in order."""
    calls = []
    kernel = polyhedron_module.dd_cone

    def recording(norms, dim):
        rays, lines = kernel(norms, dim)
        calls.append([list(norms), dim, rays, lines])
        return rays, lines

    monkeypatch.setattr(polyhedron_module, "dd_cone", recording)
    hreps, vreps, cones = _pinned_polyhedra()
    results = []
    for p in hreps:
        results.append([p, p.generators, Polyhedron.from_generators(p.dim, *p.generators)])
    for dim, points, rays in vreps:
        results.append(Polyhedron.from_generators(dim, points, rays))
    for norms, dim in cones:
        recording(norms, dim)
    return hreps, calls, results


# sha256 of the canonical JSON of every dd_cone call above (input rows,
# then rays and lines in the kernel's order) and of every converted set
PINNED_DD = "8cd276dea9b13770aa35eef598c26cc332f16f9c4c4c26316145aad8ed44171c"


def test_double_description_matches_the_pinned_digest(monkeypatch):
    # a kernel change must keep each ray list and its order, not only
    # the canonical generators that the callers sort
    _, calls, results = _recorded_conversions(monkeypatch)
    assert json_digest([calls, results]) == PINNED_DD


def test_pinned_polyhedra_cover_every_case(monkeypatch):
    hreps, calls, _ = _recorded_conversions(monkeypatch)
    assert {p.dim for p in hreps} == {1, 2, 3, 4, 5}
    assert sum(1 for p in hreps if p.is_empty) >= 25
    live = [p for p in hreps if not p.is_empty]
    with_lines = [p for p in live if any(tuple(-t for t in r) in p.rays for r in p.rays)]
    assert len(with_lines) >= 50
    assert sum(1 for p in live if p.rays and p not in with_lines) >= 20
    assert sum(1 for p in live if not p.rays) >= 15
    assert sum(1 for p in live if p.eqs) >= 20
    implicit = [p for p in live if any((tuple(-t for t in a), -b) in p.ineqs for a, b in p.ineqs)]
    assert len(implicit) >= 20
    assert {dim for _, dim, _, _ in calls} == {2, 3, 4, 5, 6}
    assert sum(1 for norms, _, _, _ in calls if len(set(norms)) < len(norms)) >= 50
