"""Exact scalar/vector layer: wire format, extended arithmetic, helpers."""
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supcalc.errors import (
    DimensionMismatchError,
    ExtendedArithmeticError,
    InvalidParameterError,
    SchemaError,
)
from supcalc import calculus
from supcalc.functions import PolyhedralFunction, eps_normal_set
from supcalc.identities import check_identity
from supcalc.oracles import GridSpec, brute_generators, membership_audit
from supcalc.polyhedron import Polyhedron
from supcalc.rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    dot,
    format_extended,
    format_rational,
    l1norm,
    parse_rational,
    qv,
    rational,
    vadd,
    vsub,
)

FIN = ExtendedRational.finite

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=97
)


class TestParse:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == Q(3)
        assert parse_rational("-5/2") == Q(-5, 2)
        assert parse_rational("2/4") == Q(1, 2)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1/0", "1/-2", "a", "1 / 2", " 1", "1e3", "+3", ""]
    )
    def test_rejects_non_wire_literals(self, bad):
        with pytest.raises(SchemaError):
            parse_rational(bad)

    def test_rejects_non_strings(self):
        with pytest.raises(SchemaError):
            parse_rational(1)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestExtendedRational:
    def test_total_order(self):
        samples = [NEG_INF, FIN(Q(-7, 3)), FIN(Q(0)), FIN(Q(2)), POS_INF]
        for i, a in enumerate(samples):
            for j, b in enumerate(samples):
                assert (a < b) == (i < j)
                assert (a == b) == (i == j)
                assert (a <= b) == (i <= j)

    def test_addition(self):
        assert FIN(Q(1, 2)) + FIN(Q(1, 3)) == FIN(Q(5, 6))
        assert POS_INF + FIN(Q(5)) == POS_INF
        assert NEG_INF + FIN(Q(-5)) == NEG_INF
        assert POS_INF + POS_INF == POS_INF

    def test_opposite_infinities_undefined(self):
        with pytest.raises(ExtendedArithmeticError):
            POS_INF + NEG_INF
        with pytest.raises(ExtendedArithmeticError):
            POS_INF - POS_INF

    def test_negation_and_subtraction(self):
        assert -POS_INF == NEG_INF
        assert -FIN(Q(3)) == FIN(Q(-3))
        assert FIN(Q(1)) - FIN(Q(4)) == FIN(Q(-3))

    def test_finite_value_guard(self):
        assert FIN(Q(7)).finite_value() == Q(7)
        with pytest.raises(ExtendedArithmeticError):
            POS_INF.finite_value()

    def test_format_extended(self):
        assert format_extended(POS_INF) == "+inf"
        assert format_extended(NEG_INF) == "-inf"
        assert format_extended(FIN(Q(-6, 8))) == "-3/4"
        assert format_extended(FIN(Q(0))) == "0"
        assert repr(POS_INF) == "+inf"
        assert repr(NEG_INF) == "-inf"

    def test_coercion_and_hash(self):
        assert FIN(Q(3)) == 3
        assert FIN(Q(2)) == 2
        assert hash(POS_INF) != hash(NEG_INF)
        assert len({FIN(Q(1)), FIN(Q(1)), POS_INF}) == 2


class TestVectors:
    def test_basic_ops(self):
        a, b = qv(1, 2), qv("1/2", -1)
        assert vadd(a, b) == qv("3/2", 1)
        assert vsub(a, b) == qv("1/2", 3)
        assert dot(a, b) == Q(-3, 2)
        assert l1norm(b) == Q(3, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dot(qv(1), qv(1, 2))
        with pytest.raises(DimensionMismatchError):
            vadd(qv(1), qv(1, 2))


@pytest.mark.parametrize("build", [
    lambda: Polyhedron.from_hrep(1, [((0.1,), 1)]),
    lambda: Polyhedron.from_hrep(1, [], [((1,), 0.5)]),
    lambda: PolyhedralFunction.make(1, [((0.1,), 0)]),
    lambda: PolyhedralFunction.make(1, [((1,), 0.5)]),
    lambda: qv(1, 0.5),
], ids=["from_hrep-coefficient", "from_hrep-rhs", "make-slope", "make-offset", "qv"])
def test_constructors_refuse_floats(build):
    # 0.1 is 3602879701896397/36028797018963968 in binary; an exact
    # auditor must not take it as a rational silently
    with pytest.raises(InvalidParameterError, match="not an exact rational"):
        build()


ABS = PolyhedralFunction.make(1, [(qv(1), 0), (qv(-1), 0)])
UNIT = Polyhedron.box(qv(0), qv(1))


def _witness_check(fam, v):
    witness = calculus.decompose(fam, qv(0), Q(1, 3), qv(Q(1, 2)), "T52")
    return witness.verify(fam, qv(0), v, qv(Q(1, 2)))


# one call per public entry point that reads a scalar parameter
SCALAR_PARAMETERS = {
    "eps_subdifferential": lambda fam, v: ABS.eps_subdifferential(qv(1), v),
    "eps_normal_set": lambda fam, v: eps_normal_set(UNIT, qv(0), v),
    "active_indices": lambda fam, v: fam.active_indices(qv(1), v),
    "SimplexWeights-weight": lambda fam, v: calculus.SimplexWeights.make([("a", v)], Q(1, 3)),
    "SimplexWeights-mass": lambda fam, v: calculus.SimplexWeights.make([("a", Q(1, 3))], v),
    "DecompositionWitness.verify": _witness_check,
    "rhs_basic_level": lambda fam, v: calculus.rhs_basic_level(fam, qv(0), v),
    "rhs_basic_strict_margin": lambda fam, v: calculus.rhs_basic_strict_margin(fam, qv(0), v),
    "eps_normal_intersection-eps": lambda fam, v: calculus.eps_normal_intersection([UNIT], qv(0), v),
    "decompose-eps": lambda fam, v: calculus.decompose(fam, qv(0), v, qv(Q(1, 2)), "T52"),
    "decompose-gamma": lambda fam, v: calculus.decompose(fam, qv(0), 0, qv(Q(1, 2)), "T52", v),
    "check_identity-eps": lambda fam, v: check_identity("L2D", fam, {"eps": v}).status,
    "check_identity-gamma_grid": lambda fam, v: check_identity("L2D", fam, {"gamma_grid": [v]}).status,
    "GridSpec.make": lambda fam, v: GridSpec.make(qv(0), qv(1), v),
    "membership_audit": lambda fam, v: membership_audit(
        ABS.eps_subdifferential(qv(0), Q(1, 3)), "subdiff", f=ABS, x=qv(0), eps=v, samples=8
    ).status,
    "brute_generators": lambda fam, v: brute_generators(1, [((1,), v)]),
}


def test_rational_reads_exact_scalars_and_refuses_floats():
    assert rational("1/3") == rational(Q(1, 3)) == Q(1, 3)
    assert rational(-2) == Q(-2)
    with pytest.raises(InvalidParameterError, match="not an exact rational"):
        rational(0.5)


@pytest.mark.parametrize("call", SCALAR_PARAMETERS.values(), ids=SCALAR_PARAMETERS.keys())
def test_scalar_parameters_refuse_floats(call, fam_abs):
    # 0.1 read at its binary value would shift every row it enters
    with pytest.raises(InvalidParameterError, match="not an exact rational"):
        call(fam_abs, 0.1)
    assert call(fam_abs, "1/3") == call(fam_abs, Q(1, 3))
