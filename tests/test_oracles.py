"""Independent oracles: grids, raw generator enumeration, membership audits.

These are the referees for everything else, so they avoid the LP and
double-description kernels entirely; cross-checks against the kernel are
one-directional (kernel output audited by the oracle, never the reverse).
"""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcalc.errors import EmptySetError, InvalidParameterError
from supcalc.functions import PolyhedralFunction, eps_normal_set
from supcalc.oracles import GridSpec, brute_generators, grid_legendre, membership_audit
from supcalc.polyhedron import Polyhedron, polyhedron_equal
from supcalc.rationals import qv
from supcalc.serialize import json_digest

PF = PolyhedralFunction.make


class TestGridSpec:
    def test_point_count(self):
        g = GridSpec.make(qv(-2), qv(2), Q(1, 4))
        assert len(list(g.points())) == 17

    def test_non_integral_span_rejected(self):
        with pytest.raises(InvalidParameterError):
            GridSpec.make(qv(0), qv(1), Q(2, 7))

    def test_point_cap(self):
        with pytest.raises(InvalidParameterError):
            GridSpec.make(qv(0, 0, 0), qv(1, 1, 1), Q(1, 1000))

    def test_degenerate_interval(self):
        g = GridSpec.make(qv(1), qv(1), Q(1, 2))
        assert list(g.points()) == [qv(1)]


class TestGridLegendre:
    def test_abs_slopes_inside_unit_box(self):
        f = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        g = GridSpec.make(qv(-2), qv(2), Q(1, 4))
        assert grid_legendre(f, g, qv("1/2")) == 0
        assert grid_legendre(f, g, qv(0)) == 0

    def test_kink_exact_on_aligned_grid(self, f_kink):
        g = GridSpec.make(qv(0), qv(5), Q(1, 8))
        assert grid_legendre(f_kink, g, qv("3/2")) == Q(1, 2)
        assert f_kink.conjugate_eval(qv("3/2")).finite_value() == Q(1, 2)

    def test_refinement_is_monotone_below_conjugate(self, f_kink):
        vals = [
            grid_legendre(f_kink, GridSpec.make(qv(0), qv(5), s), qv("7/5"))
            for s in (Q(1, 2), Q(1, 4), Q(1, 8))
        ]
        exact = f_kink.conjugate_eval(qv("7/5")).finite_value()
        assert vals[0] <= vals[1] <= vals[2] <= exact

    def test_grid_missing_domain(self, f_kink):
        far = GridSpec.make(qv(10), qv(12), Q(1, 2))
        with pytest.raises(EmptySetError):
            grid_legendre(f_kink, far, qv(0))

    def test_2d_grid(self):
        f = PF(2, [(qv(1, 1), Q(0)), (qv(-1, -1), Q(0))])
        g = GridSpec.make(qv(-1, -1), qv(1, 1), Q(1, 2))
        assert grid_legendre(f, g, qv(1, 1)) == 0


@st.composite
def small_hreps(draw):
    """(dim, ineqs, eqs) in dims 2-4 with small integer rows.

    An equality row comes in about half the draws, and in a third no
    row reads the last coordinate, so the set holds a line.
    """
    dim = draw(st.sampled_from((4, 3, 2)))
    flat = draw(st.integers(min_value=0, max_value=2)) == 0
    coef = st.integers(min_value=-2, max_value=2)

    def row():
        a = draw(st.tuples(*[coef] * dim))
        if flat:
            a = a[:-1] + (0,)
        return tuple(map(Q, a)), Q(draw(st.integers(min_value=0, max_value=3)))

    ineqs = [row() for _ in range(draw(st.integers(min_value=1, max_value=2 * dim + 2)))]
    eqs = [row() for _ in range(draw(st.integers(min_value=0, max_value=1)))]
    return dim, ineqs, eqs


class TestBruteGenerators:
    def test_box(self):
        box = Polyhedron.box(qv(-1, 0), qv(2, 3))
        pts, rays = brute_generators(2, box.ineqs, box.eqs)
        assert sorted(pts) == [
            (Q(-1), Q(0)), (Q(-1), Q(3)), (Q(2), Q(0)), (Q(2), Q(3))
        ]
        assert rays == []

    def test_halfspace_lineality(self):
        half = Polyhedron.from_hrep(3, [((Q(0), Q(0), Q(1)), Q(0))])
        pts, rays = brute_generators(3, half.ineqs, half.eqs)
        assert (Q(0), Q(0), Q(-1)) in rays
        assert (Q(1), Q(0), Q(0)) in rays and (Q(-1), Q(0), Q(0)) in rays
        assert (Q(0), Q(0), Q(1)) not in rays

    def test_empty(self):
        pts, rays = brute_generators(
            1, [((Q(1),), Q(0)), ((Q(-1),), Q(-1))], []
        )
        assert pts == []

    def test_rebuild_matches_kernel(self):
        wedge = Polyhedron.from_hrep(
            2,
            [((Q(-1), Q(0)), Q(1)), ((Q(0), Q(-1)), Q(1)), ((Q(-1), Q(-1)), Q(1))],
        )
        pts, rays = brute_generators(2, wedge.ineqs, wedge.eqs)
        rebuilt = Polyhedron.from_generators(2, pts, rays)
        assert polyhedron_equal(rebuilt, wedge)

    def test_equality_rows(self):
        diag = Polyhedron.from_hrep(
            2, [((Q(1), Q(0)), Q(1)), ((Q(-1), Q(0)), Q(0))],
            [((Q(1), Q(-1)), Q(0))],
        )
        pts, rays = brute_generators(2, diag.ineqs, diag.eqs)
        assert sorted(pts) == [(Q(0), Q(0)), (Q(1), Q(1))]
        assert rays == []

    @settings(max_examples=40)
    @given(small_hreps())
    def test_agrees_with_kernel_on_random_hreps(self, data):
        dim, ineqs, eqs = data
        p = Polyhedron.from_hrep(dim, ineqs, eqs)
        pts, rays = brute_generators(dim, p.ineqs, p.eqs)
        if not pts:
            assert p.is_empty
            return
        rebuilt = Polyhedron.from_generators(dim, pts, rays)
        assert polyhedron_equal(rebuilt, p)
        if not any(tuple(-t for t in r) in rays for r in rays):
            # pointed: the vertices are unique, so both lists agree exactly
            assert list(p.vertices) == pts


class TestMembershipAudit:
    def test_subdiff_pass(self):
        f = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        sub = f.eps_subdifferential(qv(0), Q(1, 2))
        r = membership_audit(sub, "subdiff", f=f, x=qv(0), eps=Q(1, 2), samples=100)
        assert r.status == "pass"
        assert r.details["samples"] == 100
        assert r.details["member_claims"] > 0

    def test_subdiff_pass_restricted_domain(self, f_kink):
        sub = f_kink.eps_subdifferential(qv("1/2"), Q(1, 4))
        r = membership_audit(sub, "subdiff", f=f_kink, x=qv("1/2"), eps=Q(1, 4))
        assert r.status == "pass"

    def test_corrupted_subdiff_detected(self):
        f = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        sub = f.eps_subdifferential(qv(0), Q(1, 2))
        shifted = Polyhedron.from_hrep(
            sub.dim,
            [(a, b + Q(1, 10) * a[0]) for a, b in sub.ineqs],
            sub.eqs,
        )
        r = membership_audit(shifted, "subdiff", f=f, x=qv(0), eps=Q(1, 2))
        assert r.status == "fail"
        assert r.witness is not None and "point" in r.witness

    def test_normal_pass(self):
        tri = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)])
        nrm = eps_normal_set(tri, qv(0, 0), Q(1, 4))
        r = membership_audit(nrm, "normal", c_set=tri, x=qv(0, 0), eps=Q(1, 4))
        assert r.status == "pass"

    def test_corrupted_normal_detected(self):
        tri = Polyhedron.from_generators(2, [qv(0, 0), qv(1, 0), qv(0, 1)])
        nrm = eps_normal_set(tri, qv(0, 0), Q(1, 4))
        bad = Polyhedron.from_hrep(
            2, [(a, b + Q(1, 10)) for a, b in nrm.ineqs], nrm.eqs
        )
        r = membership_audit(bad, "normal", c_set=tri, x=qv(0, 0), eps=Q(1, 4))
        assert r.status == "fail"

    def test_deterministic_for_fixed_seed(self):
        f = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        sub = f.eps_subdifferential(qv(0), Q(1, 2))
        a = membership_audit(sub, "subdiff", f=f, x=qv(0), eps=Q(1, 2), seed=3)
        b = membership_audit(sub, "subdiff", f=f, x=qv(0), eps=Q(1, 2), seed=3)
        assert a.details == b.details and a.instance_digest == b.instance_digest

    def test_digest_is_canonical_json_of_the_audit_inputs(self):
        f = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        sub = f.eps_subdifferential(qv(0), Q(1, 2))
        r = membership_audit(sub, "subdiff", f=f, x=qv(0), eps="1/2", seed=3)
        assert r.instance_digest == json_digest(
            ["membership", "subdiff", f, sub, qv(0), Q(1, 2), 100, 3]
        )

    def test_bad_kind_rejected(self):
        box = Polyhedron.box(qv(0), qv(1))
        with pytest.raises(InvalidParameterError):
            membership_audit(box, "nonsense", x=qv(0), eps=Q(0))
