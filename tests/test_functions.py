"""Polyhedral functions: evaluation, conjugacy, approximate subgradients.

Frozen values below were derived against the grid Legendre transform and
raw generator enumeration before being inlined here; test_oracles keeps
those cross-checks alive.
"""
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polyhedron import _counting_conversions

import supcalc.functions as functions_module
import supcalc.lp as lp_module
from supcalc.errors import (
    DimensionMismatchError,
    ImproperFunctionError,
    InvalidParameterError,
)
from supcalc.functions import (
    PolyhedralFunction,
    eps_normal_set,
    normal_cone,
)
from supcalc.polyhedron import (
    Polyhedron,
    polyhedron_equal,
    recession_cone,
)
from supcalc.rationals import POS_INF, ExtendedRational, dot, qv

PF = PolyhedralFunction.make
FIN = ExtendedRational.finite


def make_abs():
    return PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])


class TestEvaluation:
    def test_kink_values(self, f_kink):
        assert f_kink.eval(qv(2)) == FIN(Q(3))
        assert f_kink.eval(qv("1/2")) == FIN(Q(1, 2))
        assert f_kink.eval(qv(0)) == FIN(Q(0))
        assert f_kink.eval(qv(6)) == POS_INF
        assert f_kink.eval(qv(-1)) == POS_INF

    def test_eval_finite_guard(self, f_kink):
        assert f_kink.eval_finite(qv(1)) == Q(1)
        with pytest.raises(InvalidParameterError):
            f_kink.eval_finite(qv(-1))

    def test_arity_checks(self, f_kink):
        with pytest.raises(DimensionMismatchError):
            f_kink.eval(qv(0, 0))
        with pytest.raises(DimensionMismatchError):
            PF(2, [(qv(1), Q(0))])

    def test_needs_a_piece(self):
        with pytest.raises(InvalidParameterError):
            PF(1, [])

    def test_properness(self):
        empty_dom = Polyhedron.from_hrep(1, [(qv(1), Q(0)), (qv(-1), Q(-1))])
        assert not PF(1, [(qv(1), Q(0))], empty_dom).is_proper
        assert make_abs().is_proper

    def test_indicator(self):
        ind = PolyhedralFunction.indicator(Polyhedron.box(qv(0), qv(1)))
        assert ind.eval(qv("1/2")) == FIN(Q(0))
        assert ind.eval(qv(2)) == POS_INF

    def test_pieces_are_scaled_once(self, monkeypatch):
        # the pieces' integer form is kept on the function, so a second
        # eval scales only its point
        f = PF(2, [(qv("1/2", "-1/3"), Q(1, 6)), (qv(2, "3/4"), Q(-1)), (qv(0, 1), Q(5, 7))])
        scaled = []
        real = lp_module._scale_to_int
        monkeypatch.setattr(functions_module, "_scale_to_int",
                            lambda v: scaled.append(tuple(v)) or real(v))
        x = qv("2/3", "-1/5")
        first = f.eval(x)
        assert first == FIN(max(dot(a, x) + b for a, b in f.pieces))
        del scaled[:]
        assert f.eval(x) == first
        assert scaled == [x]


@st.composite
def pieces_and_points(draw):
    """(f, x, lo, hi): fractional pieces in dims 1-4 on the box [lo, hi] or on R^n.

    x has denominators and may leave the box.  A piece tied at x with
    the largest one, and one tied with any piece, are often added.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    vector = st.tuples(*[entry] * dim)
    x = draw(vector)
    pieces = draw(st.lists(st.tuples(vector, entry), min_size=1, max_size=5))
    top = max(pieces, key=lambda p: dot(p[0], x) + p[1])
    for a, b in draw(st.lists(st.sampled_from([top, *pieces]), max_size=2)):
        slope = draw(vector)
        pieces.append((slope, dot(a, x) + b - dot(slope, x)))
    if draw(st.booleans()):
        return PF(dim, pieces), x, None, None
    lo = draw(st.tuples(*[st.integers(min_value=-2, max_value=0)] * dim))
    hi = draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * dim))
    return PF(dim, pieces, Polyhedron.box(lo, hi)), x, lo, hi


@given(pieces_and_points())
def test_eval_is_the_largest_piece_inside_the_domain(data):
    f, x, lo, hi = data
    inside = lo is None or all(l <= t <= h for l, t, h in zip(lo, x, hi))
    want = FIN(max(dot(a, x) + b for a, b in f.pieces)) if inside else POS_INF
    assert f.eval(x) == want


SIGN_POINTS = [tuple(Q(s) for s in signs) for signs in product((1, -1), repeat=4)]


@st.composite
def dim4_functions(draw):
    """A max of 2-4 small integer pieces in dimension 4, on R^4 or a box."""
    entry = st.integers(min_value=-2, max_value=2)
    pieces = draw(st.lists(st.tuples(st.tuples(*[entry] * 4), entry), min_size=2, max_size=4))
    if draw(st.booleans()):
        return PF(4, pieces)
    return PF(4, pieces, Polyhedron.box((-1, 0, -2, -1), (1, 2, 0, 1)))


@settings(max_examples=10)
@given(dim4_functions())
def test_conjugate_values_do_not_depend_on_earlier_solves(f):
    # conjugate_eval solves warm, from the tableau its last solve on the
    # epigraph ended on, and the value audit of conjugate() solves on the
    # same rows: the 16 sign-point values must not depend on either
    lp_module._row_set.cache_clear()
    forward = [f.conjugate_eval(y) for y in SIGN_POINTS]
    backward = [f.conjugate_eval(y) for y in reversed(SIGN_POINTS)][::-1]
    g = f.conjugate()
    after = [f.conjugate_eval(y) for y in SIGN_POINTS]
    after_backward = [f.conjugate_eval(y) for y in reversed(SIGN_POINTS)][::-1]
    assert forward == backward == after == after_backward
    assert forward == [g.eval(y) for y in SIGN_POINTS]


class TestConjugate:
    def test_abs_conjugate_is_indicator_box(self):
        f = make_abs()
        assert f.conjugate_eval(qv("1/2")) == FIN(Q(0))
        assert f.conjugate_eval(qv(-1)) == FIN(Q(0))
        assert f.conjugate_eval(qv(2)) == POS_INF
        g = f.conjugate()
        assert polyhedron_equal(g.domain, Polyhedron.box(qv(-1), qv(1)))

    def test_kink_conjugate_values(self, f_kink):
        # slope 3/2 is held between the two kink pieces at x = 1
        assert f_kink.conjugate_eval(qv("3/2")) == FIN(Q(1, 2))
        assert f_kink.conjugate_eval(qv(0)) == FIN(Q(0))
        assert f_kink.conjugate_eval(qv(3)) == FIN(Q(6))
        assert f_kink.conjugate_eval(qv(-1)) == FIN(Q(0))

    def test_conjugate_function_matches_pointwise_sup(self, f_kink):
        g = f_kink.conjugate()
        for y in (Q(-2), Q(0), Q(1, 2), Q(3, 2), Q(2), Q(7)):
            assert g.eval(qv(y)) == f_kink.conjugate_eval(qv(y))

    def test_biconjugate_identity(self, f_kink):
        for f in (make_abs(), f_kink):
            h = f.biconjugate()
            assert polyhedron_equal(h.epigraph, f.epigraph)

    def test_improper_conjugate_rejected(self):
        empty_dom = Polyhedron.from_hrep(1, [(qv(1), Q(0)), (qv(-1), Q(-1))])
        f = PF(1, [(qv(1), Q(0))], empty_dom)
        with pytest.raises(ImproperFunctionError):
            f.conjugate()


class TestKeptConjugatePair:
    """epi f*'s generators and pointed ε-subdifferentials come from epi f's one conversion."""

    EPS = (Q(0), Q(1, 3), Q(1))

    def test_a_pointed_function_converts_once(self, monkeypatch):
        # the l-infinity norm: f* is the indicator of the l1 ball
        f = PF(2, [(qv(1, 0), Q(0)), (qv(-1, 0), Q(0)), (qv(0, 1), Q(0)), (qv(0, -1), Q(0))])
        assert f.is_proper  # the domain's own conversion, not counted
        conversions = _counting_conversions(monkeypatch)
        g = f.conjugate()
        assert g.epigraph.generators == (
            (qv(-1, 0, 0), qv(0, -1, 0), qv(0, 1, 0), qv(1, 0, 0)), (qv(0, 0, 1),)
        )
        subs = [f.eps_subdifferential(qv(1, 0), eps).generators for eps in self.EPS]
        assert len(conversions) == 1
        assert subs[0] == ((qv(1, 0),), ())
        assert subs[1] == ((qv(Q(2, 3), Q(-1, 3)), qv(Q(2, 3), Q(1, 3)), qv(1, 0)), ())
        assert subs[2] == ((qv(0, -1), qv(0, 1), qv(1, 0)), ())

    def test_a_domain_equality_keeps_the_conversions(self, monkeypatch):
        # dom f lies in x2 = 0, so epi f* holds a line and every read runs
        # its own double description, as a set with no kept pair does
        seg = Polyhedron.from_hrep(2, [(qv(1, 0), Q(1)), (qv(-1, 0), Q(1))], [(qv(0, 1), Q(0))])
        f = PF(2, [(qv(1, 1), Q(0)), (qv(-1, 0), Q(0))], seg)
        assert f.is_proper
        conversions = _counting_conversions(monkeypatch)
        g = f.conjugate()
        assert "_conversion" in vars(g.epigraph)
        read = g.epigraph.generators
        subs = [f.eps_subdifferential(qv(0, 0), eps) for eps in self.EPS]
        assert all("_conversion" in vars(s) for s in subs)
        reads = [s.generators for s in subs]
        assert len(conversions) == 5
        assert "_conversion" not in vars(g.epigraph)
        fresh = [Polyhedron(p.dim, p.ineqs, p.eqs).generators for p in (g.epigraph, *subs)]
        assert fresh == [read, *reads]


class TestEpsSubdifferential:
    def test_abs_at_zero(self):
        f = make_abs()
        sub = f.eps_subdifferential(qv(0), Q(0))
        assert polyhedron_equal(sub, Polyhedron.box(qv(-1), qv(1)))

    def test_abs_away_from_zero(self):
        # at x = 2 with eps = 1: slopes with 2y >= 2 - 1
        f = make_abs()
        sub = f.eps_subdifferential(qv(2), Q(1))
        assert polyhedron_equal(sub, Polyhedron.box(qv("1/2"), qv(1)))

    def test_monotone_in_eps(self, f_kink):
        small = f_kink.eps_subdifferential(qv(1), Q(0))
        large = f_kink.eps_subdifferential(qv(1), Q(1, 2))
        assert all(large.contains(v) for v in small.vertices)
        assert polyhedron_equal(small, Polyhedron.box(qv(1), qv(2)))

    def test_outside_domain_empty(self, f_kink):
        assert f_kink.eps_subdifferential(qv(-3), Q(1)).is_empty

    def test_negative_eps_rejected(self, f_kink):
        with pytest.raises(InvalidParameterError):
            f_kink.eps_subdifferential(qv(1), Q(-1))


class TestEpsNormalSet:
    def test_half_line_at_origin(self):
        c = Polyhedron.from_hrep(1, [(qv(-1), Q(0))])  # [0, oo)
        n = eps_normal_set(c, qv(0), Q(0))
        assert polyhedron_equal(n, Polyhedron.from_hrep(1, [(qv(1), Q(0))]))

    def test_unit_interval_relaxed(self):
        c = Polyhedron.box(qv(0), qv(1))
        n = eps_normal_set(c, qv(0), Q(1, 2))
        assert polyhedron_equal(n, Polyhedron.from_hrep(1, [(qv(1), Q(1, 2))]))

    def test_outside_is_empty(self):
        c = Polyhedron.box(qv(0), qv(1))
        assert eps_normal_set(c, qv(2), Q(0)).is_empty

    def test_normal_cone_alias(self):
        c = Polyhedron.box(qv(0), qv(1))
        assert polyhedron_equal(
            normal_cone(c, qv(1)), eps_normal_set(c, qv(1), Q(0))
        )


class TestRecessionFunction:
    def test_abs_is_fixed_point(self):
        f = make_abs()
        h = f.recession_function()
        for x in (Q(-3), Q(0), Q(2)):
            assert h.eval(qv(x)) == f.eval(qv(x))

    def test_indicator_of_interval(self):
        f = PolyhedralFunction.indicator(Polyhedron.box(qv(0), qv(1)))
        h = f.recession_function()
        assert h.eval(qv(0)) == FIN(Q(0))
        assert h.eval(qv(1)) == POS_INF
        assert h.eval(qv(-1)) == POS_INF

    def test_kink_on_half_line(self):
        f = PF(
            1,
            [(qv(1), Q(0)), (qv(2), Q(-1))],
            Polyhedron.from_hrep(1, [(qv(-1), Q(0))]),
        )
        h = f.recession_function()
        assert h.eval(qv(1)) == FIN(Q(2))
        assert h.eval(qv(3)) == FIN(Q(6))
        assert h.eval(qv(-1)) == POS_INF

    def test_epigraph_is_recession_cone_of_epigraph(self, f_kink):
        for f in (make_abs(), f_kink):
            h = f.recession_function()
            assert polyhedron_equal(h.epigraph, recession_cone(f.epigraph))


class TestEpiPointed:
    def test_abs_certificate(self):
        cert = make_abs().is_epi_pointed()
        assert cert is not None
        assert cert.minorant_slope == qv(0) and cert.margin == Q(1)
        assert cert.verify(make_abs())

    def test_point_indicator_certificate(self):
        f = PolyhedralFunction.indicator(Polyhedron.single_point(qv(0)))
        cert = f.is_epi_pointed()
        assert cert is not None and cert.verify(f)

    def test_flat_dual_domain_has_none(self):
        f = PF(2, [(qv(1, 0), Q(0)), (qv(-1, 0), Q(0))])
        assert f.is_epi_pointed() is None

    def test_certificate_is_built_once(self, f_kink):
        cert = f_kink.is_epi_pointed()
        assert cert is not None and f_kink.is_epi_pointed() is cert

    def test_corners_are_read_off_the_built_conjugate(self, monkeypatch):
        # one max-slack LP, then only verify's one LP per corner; the
        # offset is minus the largest LP conjugate value at the corners
        f = PF(2, [(qv(1, 1), Q(1)), (qv(-1, 0), Q(0)), (qv(0, -1), Q(2)), (qv(1, -1), Q(-3))])
        f.conjugate()
        solves = []
        real = lp_module._certify_scaled
        monkeypatch.setattr(lp_module, "_certify_scaled",
                            lambda *args: solves.append(args) or real(*args))
        cert = f.is_epi_pointed()
        assert cert is not None and len(solves) == 1 + 2 ** 2
        corners = [
            tuple(c + cert.margin * s for c, s in zip(cert.minorant_slope, signs))
            for signs in product((1, -1), repeat=2)
        ]
        assert cert.offset == -max(f.conjugate_eval(y).finite_value() for y in corners)
