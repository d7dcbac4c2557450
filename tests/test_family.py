"""Families, their supremum, and the audited increasing order."""
from fractions import Fraction as Q

import pytest

from supcalc.errors import DimensionMismatchError, InvalidParameterError
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction
from supcalc.polyhedron import Polyhedron, cco_union, polyhedron_equal
from supcalc.rationals import POS_INF, ExtendedRational, qv

PF = PolyhedralFunction.make
FIN = ExtendedRational.finite


def test_sup_of_two_lines_is_abs(fam_abs):
    s = fam_abs.sup
    assert s.eval(qv(-3)) == FIN(Q(3))
    assert s.eval(qv(2)) == FIN(Q(2))


def test_sup_domain_is_intersection():
    a = PF(1, [(qv(1), Q(0))], Polyhedron.box(qv(0), qv(3)))
    b = PF(1, [(qv(0), Q(1))], Polyhedron.box(qv(2), qv(5)))
    fam = FunctionFamily.make([("a", a), ("b", b)])
    s = fam.sup
    assert s.eval(qv("5/2")) == FIN(Q(5, 2))
    assert s.eval(qv(1)) == POS_INF
    assert s.eval(qv(4)) == POS_INF


def test_conjugate_hull_is_the_member_hull_and_cached(fam_abs):
    hull = fam_abs.conjugate_hull
    epis = [f.conjugate().epigraph for _, f in fam_abs.members]
    assert polyhedron_equal(hull, cco_union(epis))
    assert fam_abs.conjugate_hull is hull


def test_member_lookup(fam_abs):
    assert fam_abs.member("p").pieces == ((qv(1), Q(0)),)
    with pytest.raises(InvalidParameterError):
        fam_abs.member("zz")
    assert fam_abs.labels == ("p", "m")


def test_active_indices(fam_abs):
    assert fam_abs.active_indices(qv(2), Q(0)) == {"p"}
    assert fam_abs.active_indices(qv(2), Q(4)) == {"p", "m"}
    assert fam_abs.active_indices(qv(0), Q(0)) == {"p", "m"}


def test_active_indices_needs_finite_sup():
    f = PF(1, [(qv(1), Q(0))], Polyhedron.box(qv(0), qv(1)))
    fam = FunctionFamily.make([("f", f)])
    with pytest.raises(InvalidParameterError):
        fam.active_indices(qv(9), Q(0))


class TestMake:
    def test_duplicate_labels(self):
        f = PF(1, [(qv(1), Q(0))])
        with pytest.raises(InvalidParameterError):
            FunctionFamily.make([("a", f), ("a", f)])

    def test_empty_family(self):
        with pytest.raises(InvalidParameterError):
            FunctionFamily.make([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FunctionFamily.make(
                [("a", PF(1, [(qv(1), Q(0))])), ("b", PF(2, [(qv(1, 0), Q(0))]))]
            )

    def test_unknown_edge_label(self):
        f = PF(1, [(qv(1), Q(0))])
        with pytest.raises(InvalidParameterError):
            FunctionFamily.make([("a", f)], order_edges=[("a", "zz")])


class TestOrder:
    def test_closure_contains_chain(self, chain6):
        closure = chain6.order_closure
        assert ("n2", "n6") in closure
        assert ("n2", "n2") in closure
        assert ("n6", "n2") not in closure

    def test_verify_increasing_on_chain(self, chain6):
        assert chain6.verify_increasing()

    def test_flag_off_means_false(self, fam_abs):
        assert not fam_abs.verify_increasing()

    def test_undirected_order_fails(self):
        f1 = PF(1, [(qv(1), Q(0))])
        f2 = PF(1, [(qv(-1), Q(0))])
        fam = FunctionFamily.make([("a", f1), ("b", f2)], increasing=True)
        assert not fam.verify_increasing()

    def test_false_monotonicity_claim_fails(self):
        # edge claims f_a <= f_b but the two cross
        f1 = PF(1, [(qv(1), Q(0))])
        f2 = PF(1, [(qv(-1), Q(0))])
        fam = FunctionFamily.make(
            [("a", f1), ("b", f2)], order_edges=[("a", "b")], increasing=True
        )
        assert not fam.verify_increasing()

    def test_true_claim_with_shift(self):
        f1 = PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])
        f2 = PF(1, [(qv(1), Q(1)), (qv(-1), Q(1))])
        fam = FunctionFamily.make(
            [("lo", f1), ("hi", f2)], order_edges=[("lo", "hi")], increasing=True
        )
        assert fam.verify_increasing()
