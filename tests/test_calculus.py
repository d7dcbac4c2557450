"""Supremum calculus: co-hulls, sandwich bounds, decompositions, sums."""
from fractions import Fraction as Q

import pytest

import supcalc.calculus as calculus_module
import supcalc.lp as lp_module
from supcalc.calculus import (
    CoHullValue,
    SimplexWeights,
    check_qc1,
    check_qc2,
    co_hull_conjugates,
    conjugate_on_interior,
    decompose,
    eps_normal_intersection,
    eps_subdiff_rhs_basic,
    inf_convolution_value,
    rhs_basic_covers,
    rhs_basic_image,
    rhs_basic_strict_margin,
    rhs_basic_within,
    sum_functions,
)
from supcalc.errors import CapacityError, HypothesesNotMet, InvalidParameterError
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction, eps_normal_set
from supcalc.polyhedron import Polyhedron, intersect, polyhedron_equal
from supcalc.projection import project
from supcalc.rationals import POS_INF, ExtendedRational, qv

PF = PolyhedralFunction.make
FIN = ExtendedRational.finite


class TestCoHull:
    def test_value_and_weights_at_zero(self, fam_abs):
        h = co_hull_conjugates(fam_abs, qv(0))
        assert h.value == FIN(Q(0))
        assert h.weights[("p")] == Q(1, 2) and h.weights[("m")] == Q(1, 2)
        assert h.weights.mass == Q(1)

    def test_infeasible_dual_point(self, fam_abs):
        assert co_hull_conjugates(fam_abs, qv(2)).value == POS_INF

    def test_support_cap(self, fam_abs):
        h = co_hull_conjugates(fam_abs, qv("1/2"), support_cap=2)
        assert h.value == FIN(Q(0))
        assert len(h.weights.support) <= 2

    def test_a_wide_optimum_falls_back_to_subset_enumeration(self, monkeypatch):
        # sup{x, -x, 0} = |x|; the conjugates sit at 1, -1 and 0, so any
        # two members that straddle 1/2 reach the hull value 0
        fam = FunctionFamily.make(
            [(t, PF(1, [(qv(a), Q(0))])) for t, a in (("p", 1), ("m", -1), ("z", 0))]
        )
        real = calculus_module._co_hull_lp
        sizes = []

        def widened(family, xstar, allowed):
            sizes.append(len(allowed))
            res = real(family, xstar, allowed)
            if len(allowed) < len(family.labels):
                return res
            # an optimum that weights every member, wider than the cap
            spread = SimplexWeights.make({t: Q(1, len(allowed)) for t in allowed}, 1)
            return CoHullValue(res.value, spread, res.points, res.directions)

        monkeypatch.setattr(calculus_module, "_co_hull_lp", widened)
        h = co_hull_conjugates(fam, qv("1/2"), support_cap=2)
        assert h.value == FIN(Q(0))
        assert len(h.weights.support) <= 2
        assert sorted(sizes) == [1, 1, 1, 2, 2, 2, 3]

    def test_a_narrow_optimum_is_the_capped_one(self, monkeypatch):
        # the full optimum at 1/2 weights two of the three members, so it
        # is itself a capped optimum and no subset program is solved
        fam = FunctionFamily.make(
            [(t, PF(1, [(qv(a), Q(0))])) for t, a in (("p", 1), ("m", -1), ("z", 0))]
        )
        real = calculus_module._co_hull_lp
        sizes = []
        monkeypatch.setattr(
            calculus_module, "_co_hull_lp",
            lambda family, xstar, allowed: sizes.append(len(allowed)) or real(family, xstar, allowed),
        )
        h = co_hull_conjugates(fam, qv("1/2"), support_cap=2)
        assert sizes == [3]
        assert h is fam.co_hull_values[qv("1/2")]
        assert h.value == FIN(Q(0)) and len(h.weights.support) <= 2


class TestConjugateOnInterior:
    def test_truncated_chain(self, chain6):
        assert conjugate_on_interior(chain6, qv(0)) == FIN(Q(0))
        assert conjugate_on_interior(chain6, qv("7/10")) == FIN(Q(0))

    def test_boundary_rejected(self, chain6):
        # dom f* = [-5/6, 5/6] for the top slope 5/6
        with pytest.raises(HypothesesNotMet):
            conjugate_on_interior(chain6, qv("5/6"))

    def test_outside_rejected(self, chain6):
        with pytest.raises(HypothesesNotMet):
            conjugate_on_interior(chain6, qv(2))


class TestRhsBasic:
    def test_abs_at_zero(self, fam_abs):
        rhs = eps_subdiff_rhs_basic(fam_abs, qv(0), Q(0), Q(1, 4))
        assert polyhedron_equal(rhs, Polyhedron.box(qv(-1), qv(1)))

    def test_gamma_must_be_positive(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            eps_subdiff_rhs_basic(fam_abs, qv(0), Q(0), Q(0))

    def test_singleton_collapses_to_subdifferential(self):
        fam = FunctionFamily.make(
            [("a", PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))]))]
        )
        rhs = eps_subdiff_rhs_basic(fam, qv(2), Q(1, 2), Q(1, 4))
        sub = fam.sup.eps_subdifferential(qv(2), Q(3, 4))
        assert polyhedron_equal(rhs, sub)

    def test_two_member_budget_match(self, fam_abs):
        rhs = eps_subdiff_rhs_basic(fam_abs, qv(1), Q(0), Q(1, 8))
        sub = fam_abs.sup.eps_subdifferential(qv(1), Q(1, 8))
        assert polyhedron_equal(rhs, sub)

    def test_sandwich_helpers(self, fam_abs):
        sub0 = fam_abs.sup.eps_subdifferential(qv(0), Q(0))
        image = project(rhs_basic_image(fam_abs, qv(0), Q(0)))
        assert rhs_basic_covers(image, sub0) is None
        assert rhs_basic_within(image, sub0)
        big = Polyhedron.box(qv(-2), qv(2))
        assert rhs_basic_covers(image, big) is not None
        small = Polyhedron.box(qv(0), qv("1/2"))
        assert not rhs_basic_within(image, small)

    def test_strict_margin_positive_budget(self, fam_abs):
        m = rhs_basic_strict_margin(fam_abs, qv(0), Q(1, 4))
        assert m > 0


class TestEpsNormalIntersection:
    def test_opposing_half_lines(self):
        neg = Polyhedron.from_hrep(1, [(qv(1), Q(0))])
        pos = Polyhedron.from_hrep(1, [(qv(-1), Q(0))])
        whole = eps_normal_intersection([neg, pos], qv(0), Q(0))
        assert polyhedron_equal(whole, Polyhedron.full_space(1))

    def test_repeated_interval(self):
        unit = Polyhedron.box(qv(0), qv(1))
        neg = Polyhedron.from_hrep(1, [(qv(1), Q(0))])
        got = eps_normal_intersection([unit, unit], qv(0), Q(0))
        assert polyhedron_equal(got, neg)

    def test_2d_against_direct_normal_set(self):
        c1 = Polyhedron.from_hrep(2, [((Q(1), Q(-1)), Q(0))])
        c2 = Polyhedron.from_hrep(2, [((Q(-1), Q(-1)), Q(0))])
        lhs = eps_normal_intersection([c1, c2], qv(0, 0), Q(1, 2))
        rhs = eps_normal_set(intersect(c1, c2), qv(0, 0), Q(1, 2))
        assert polyhedron_equal(lhs, rhs)


class TestQualification:
    def test_qc1_full_space(self, fam_abs):
        assert check_qc1(fam_abs, qv(0))

    def test_qc1_fails_on_an_explicit_equality(self):
        line = Polyhedron.from_hrep(2, [], [(qv(0, 1), Q(0))])
        fam = FunctionFamily.make(
            [("line", PolyhedralFunction.indicator(line)),
             ("slope", PF(2, [(qv(1, 0), Q(0))]))]
        )
        assert fam.sup.domain.eqs
        assert not check_qc1(fam, qv(3, 0))

    def test_qc1_fails_on_an_implicit_equality(self):
        below = Polyhedron.from_hrep(2, [(qv(0, 1), Q(1))])
        above = Polyhedron.from_hrep(2, [(qv(0, -1), Q(-1))])
        fam = FunctionFamily.make(
            [("below", PolyhedralFunction.indicator(below)),
             ("above", PolyhedralFunction.indicator(above))]
        )
        assert not fam.sup.domain.eqs
        assert not check_qc1(fam, qv(0, 1))

    def test_qc1_builds_no_cone(self, fam_abs, monkeypatch):
        def refuse(*args):
            raise AssertionError("check_qc1 ran a cone test")

        monkeypatch.setattr(calculus_module, "cone_is_trivial", refuse)
        assert check_qc1(fam_abs, qv(0))
        # a corner of the square: a pointed normal cone, so QC1 holds
        square = Polyhedron.box(qv(0, 0), qv(1, 1))
        fam = FunctionFamily.make([("box", PolyhedralFunction.indicator(square))])
        assert check_qc1(fam, qv(1, 0))

    def test_qc2_opposing_indicators_fails(self):
        neg = Polyhedron.from_hrep(1, [(qv(1), Q(0))])
        pos = Polyhedron.from_hrep(1, [(qv(-1), Q(0))])
        fam = FunctionFamily.make(
            [("l", PolyhedralFunction.indicator(neg)),
             ("r", PolyhedralFunction.indicator(pos))]
        )
        assert not check_qc2(fam, qv(0))

    def test_qc2_is_solved_once_per_point(self, monkeypatch):
        # the answer depends on the family and x alone, so it is kept
        neg = Polyhedron.from_hrep(1, [(qv(1), Q(0))])
        pos = Polyhedron.from_hrep(1, [(qv(-1), Q(0))])
        fam = FunctionFamily.make(
            [("l", PolyhedralFunction.indicator(neg)),
             ("r", PolyhedralFunction.indicator(pos))]
        )
        solves = []
        certify = lp_module._certify_scaled

        def counting(*args):
            solves.append(args)
            return certify(*args)

        monkeypatch.setattr(lp_module, "_certify_scaled", counting)
        assert not check_qc2(fam, qv(0))
        assert solves
        solves.clear()
        assert not check_qc2(fam, [0])
        assert solves == []
        # x is still checked against every member domain first
        with pytest.raises(InvalidParameterError, match="'l'"):
            check_qc2(fam, qv(1))

    def test_qc2_box_with_norm_holds(self):
        square = Polyhedron.box(qv(0, 0), qv(1, 1))
        fam = FunctionFamily.make(
            [("box", PolyhedralFunction.indicator(square)),
             ("l1", PF(2, [((Q(sx), Q(sy)), Q(0))
                           for sx in (-1, 1) for sy in (-1, 1)]))]
        )
        assert check_qc2(fam, qv(0, 0))


class TestDecompose:
    def test_t53_on_abs(self, fam_abs):
        w = decompose(fam_abs, qv(0), Q(0), qv("1/2"), "T53")
        assert w is not None
        assert w.lam[("p")] == Q(3, 4) and w.lam[("m")] == Q(1, 4)
        assert dict(w.points)["p"] == qv(1) and dict(w.points)["m"] == qv(-1)
        assert w.normal_part == qv(0)
        assert w.verify(fam_abs, qv(0), Q(0), qv("1/2"))

    def test_t52_and_t53_on_indicator(self):
        unit = Polyhedron.box(qv(0), qv(1))
        fam = FunctionFamily.make([("i", PolyhedralFunction.indicator(unit))])
        for mode in ("T52", "T53"):
            w = decompose(fam, qv(0), Q(0), qv(-5), mode)
            assert w is not None and w.verify(fam, qv(0), Q(0), qv(-5))

    def test_r54_size_bound(self):
        g1 = PF(1, [(qv(1), Q(0)), (qv(2), Q(1))], Polyhedron.box(qv(0), qv(5)))
        g2 = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        fam = FunctionFamily.make([("g1", g1), ("g2", g2)])
        sub = fam.sup.eps_subdifferential(qv(0), Q(1, 2))
        verts, _ = sub.generators
        assert verts
        for v in verts:
            w = decompose(fam, qv(0), Q(1, 2), v, "R54")
            assert w is not None
            k1 = len(w.lam.support)
            k2 = len({t for t, _ in w.normal_parts})
            assert k1 + k2 <= 2  # n + 1 with n = 1
            assert w.verify(fam, qv(0), Q(1, 2), v)

    def test_gamma_only_for_t52(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            decompose(fam_abs, qv(0), Q(0), qv("1/2"), "T53", gamma=Q(1, 8))

    def test_t52_gamma_relaxation(self, fam_abs):
        w = decompose(fam_abs, qv(0), Q(0), qv("1/2"), "T52", gamma=Q(1, 8))
        assert w is not None and w.gamma == Q(1, 8)

    def test_non_subgradient_rejected(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            decompose(fam_abs, qv(0), Q(0), qv(3), "T53")

    def test_qc2_violation_reported(self):
        neg = Polyhedron.from_hrep(1, [(qv(1), Q(0))])
        pos = Polyhedron.from_hrep(1, [(qv(-1), Q(0))])
        fam = FunctionFamily.make(
            [("l", PolyhedralFunction.indicator(neg)),
             ("r", PolyhedralFunction.indicator(pos))]
        )
        with pytest.raises(HypothesesNotMet):
            decompose(fam, qv(0), Q(0), qv(0), "T53")


class TestSums:
    def test_pointwise_sum(self):
        f1 = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        f2 = PF(1, [(qv(0), Q(0)), (qv(1), Q(-1))])
        s = sum_functions([f1, f2])
        for pt, want in [(-2, 2), (0, 0), (1, 1), (3, 5)]:
            assert s.eval(qv(Q(pt))) == FIN(Q(want))

    def test_conjugate_of_sum_is_inf_convolution(self):
        f1 = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        f2 = PF(1, [(qv(0), Q(0)), (qv(1), Q(-1))])
        s = sum_functions([f1, f2])
        conjugates = [f1.conjugate(), f2.conjugate()]
        for y in (Q(0), Q(1), Q(3, 2), Q(-1), Q(2)):
            assert s.conjugate_eval(qv(y)) == inf_convolution_value(
                conjugates, qv(y)
            )

    def test_member_cap(self):
        f = PF(1, [(qv(1), Q(0))])
        with pytest.raises(CapacityError):
            sum_functions([f, f, f, f])
