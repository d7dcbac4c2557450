"""Exact simplex: known optima, certificates, degenerate and redundant rows."""
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcalc.errors import LPInternalError
from supcalc.lp import LPStatus, _certify, solve_max, solve_min
from supcalc.oracles import brute_generators
from supcalc.polyhedron import Polyhedron
from supcalc.rationals import ExtendedRational, dot, qv

FIN = ExtendedRational.finite

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def test_bounded_minimum():
    # min x + y over x >= 1, y >= 2
    res = solve_min(qv(1, 1), [(qv(-1, 0), Q(-1)), (qv(0, -1), Q(-2))])
    assert res.status is LPStatus.OPTIMAL
    assert res.optimum == FIN(Q(3))
    assert res.primal_point == qv(1, 2)
    assert set(res.dual_certificate) == {"mu", "nu"}


def test_bounded_maximum():
    rows = [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0)), (qv(1, 1), Q(4))]
    res = solve_max(qv(2, 3), rows)
    assert res.status is LPStatus.OPTIMAL
    assert res.optimum == FIN(Q(12))
    assert res.primal_point == qv(0, 4)


def test_equality_constraints():
    # min x - y on the segment x + y == 2, 0 <= x, x - y <= 1
    res = solve_min(
        qv(1, -1),
        [(qv(1, -1), Q(1)), (qv(-1, 0), Q(0))],
        [(qv(1, 1), Q(2))],
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.optimum == FIN(Q(-2))
    assert res.primal_point == qv(0, 2)


def test_redundant_equality_rows():
    # duplicated equality leaves an artificial basic at zero; the
    # drive-out step must not corrupt the tableau
    res = solve_min(
        qv(1, 0),
        [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0))],
        [(qv(1, 1), Q(2)), (qv(2, 2), Q(4))],
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.optimum == FIN(Q(0))
    assert res.primal_point == qv(0, 2)


def test_degenerate_vertex():
    rows = [(qv(1, 0), Q(1)), (qv(0, 1), Q(1)), (qv(1, 1), Q(2))]
    res = solve_max(qv(1, 1), rows)
    assert res.optimum == FIN(Q(2))


def test_infeasible_with_farkas_certificate():
    res = solve_min(qv(1), [(qv(1), Q(-1)), (qv(-1), Q(-1))])
    assert res.status is LPStatus.INFEASIBLE
    assert set(res.dual_certificate) == {"farkas_mu", "farkas_nu"}
    assert res.optimum > FIN(Q(10**9))  # +oo for a min over the empty set


def test_unbounded_with_ray():
    res = solve_min(qv(1, 0), [(qv(0, 1), Q(1)), (qv(0, -1), Q(1))])
    assert res.status is LPStatus.UNBOUNDED
    assert res.optimum < FIN(Q(-(10**9)))
    ray = res.ray
    assert ray is not None and dot(qv(1, 0), ray) < 0


def test_zero_objective_decides_emptiness():
    rows = [(qv(1, 1), Q(2)), (qv(-1, 0), Q(0)), (qv(0, -1), Q(0))]
    res = solve_min(qv(0, 0), rows)
    assert res.status is LPStatus.OPTIMAL
    assert all(dot(a, res.primal_point) <= b for a, b in rows)
    assert not Polyhedron.from_hrep(2, rows).is_empty
    empty = [(qv(1), Q(-1)), (qv(-1), Q(-1))]
    assert solve_min(qv(0), empty).status is LPStatus.INFEASIBLE
    assert Polyhedron.from_hrep(1, empty).is_empty


def test_fractional_data():
    # min (1/3)x over 1/2 <= x <= 7/2
    res = solve_min(qv("1/3"), [(qv(-1), Q(-1, 2)), (qv(1), Q(7, 2))])
    assert res.optimum == FIN(Q(1, 6))
    assert res.primal_point == qv("1/2")


@given(st.tuples(coeff, coeff))
def test_box_minimum_matches_corner_enumeration(c):
    # independent oracle: a linear form on a box is minimized at a corner
    lo, hi = (Q(-2), Q(-1)), (Q(3), Q(2))
    rows = [
        (qv(1, 0), hi[0]),
        (qv(-1, 0), -lo[0]),
        (qv(0, 1), hi[1]),
        (qv(0, -1), -lo[1]),
    ]
    corners = [(a, b) for a in (lo[0], hi[0]) for b in (lo[1], hi[1])]
    want = min(dot(c, p) for p in corners)
    res = solve_min(c, rows)
    assert res.status is LPStatus.OPTIMAL
    assert res.optimum == FIN(want)
    assert all(dot(a, res.primal_point) <= b for a, b in rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplex_volume_corner(n):
    # max sum(x) over the standard simplex is 1 in every dimension
    rows = [(tuple(Q(1) for _ in range(n)), Q(1))]
    rows += [(tuple(-Q(i == j) for j in range(n)), Q(0)) for i in range(n)]
    res = solve_max(tuple(Q(1) for _ in range(n)), rows)
    assert res.optimum == FIN(Q(1))


small = st.integers(min_value=-2, max_value=2).map(Q)


@st.composite
def small_lps(draw):
    """(c, ineqs, eqs) with n <= 3 and at most 6 rows, one of them maybe a repeat.

    Small integer data makes degenerate vertices, empty systems and
    unbounded objectives common draws; the first ``split`` rows become
    equalities, so a repeated row can land among the equalities too.
    """
    n = draw(st.integers(1, 3))
    vector = st.tuples(*[small] * n)
    rows = draw(st.lists(st.tuples(vector, small), max_size=5))
    if rows and draw(st.booleans()):
        a, b = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.sampled_from([Q(1), Q(2), Q(1, 3)]))
        rows.insert(draw(st.integers(0, len(rows))), (tuple(k * t for t in a), k * b))
    split = draw(st.integers(0, min(2, len(rows))))
    return draw(vector), rows[split:], rows[:split]


@settings(max_examples=200)
@given(small_lps())
@example((qv(1), [(qv(1), Q(-1)), (qv(-1), Q(-1))], []))  # infeasible
@example((qv(1, 0), [(qv(0, 1), Q(1))], []))  # unbounded
@example((qv(1, 1), [(qv(-1, 0), Q(0)), (qv(0, -1), Q(0)), (qv(-1, -1), Q(0))], []))
@example((qv(1, 0), [(qv(-1, 0), Q(0))], [(qv(1, 1), Q(2)), (qv(2, 2), Q(4))]))
def test_solve_min_matches_generator_enumeration(lp):
    # differential oracle: brute_generators enumerates row subsets and
    # shares no code with the simplex
    c, ineqs, eqs = lp
    points, rays = brute_generators(len(c), ineqs, eqs)
    res = solve_min(c, ineqs, eqs)
    if not points:
        assert res.status is LPStatus.INFEASIBLE
    elif any(dot(c, r) < 0 for r in rays):
        assert res.status is LPStatus.UNBOUNDED
    else:
        assert res.status is LPStatus.OPTIMAL
        assert res.optimum == FIN(min(dot(c, p) for p in points))


# (c, ineqs, eqs): optimal, infeasible and unbounded results, some with equality rows
BOX = (qv(1, 1), [(qv(-1, 0), Q(-1)), (qv(0, -1), Q(-2))], [])  # optimum 3 at (1, 2)
SEGMENT = (qv(1, -1), [(qv(1, -1), Q(1)), (qv(-1, 0), Q(0))], [(qv(1, 1), Q(2))])
EMPTY = (qv(1), [(qv(1), Q(-1)), (qv(-1), Q(-1))], [])
STRIP = (qv(1, 0), [(qv(0, 1), Q(1)), (qv(0, -1), Q(1))], [])  # ray (-1, 0)
LINE = (qv(1, 0), [], [(qv(0, 1), Q(0))])  # ray (-1, 0)
ZERO_ROW = (qv(1), [(qv(0), Q(-1))], [])  # 0 <= -1


def _put(t, i, v):
    return t[:i] + (v,) + t[i + 1:]


def _cert_entry(key, i, edit):
    def tamper(res):
        cert = dict(res.dual_certificate)
        cert[key] = _put(cert[key], i, edit(cert[key][i]))
        return replace(res, dual_certificate=cert)
    return tamper


def _point_entry(field, i, value):
    return lambda res: replace(res, **{field: _put(getattr(res, field), i, value)})


@pytest.mark.parametrize("lp, tamper, message", [
    pytest.param(BOX, _cert_entry("mu", 0, lambda m: m + 1),
                 "dual stationarity fails", id="multiplier-value"),
    pytest.param(SEGMENT, _cert_entry("nu", 0, lambda m: m + 1),
                 "dual stationarity fails", id="equality-multiplier-value"),
    pytest.param(BOX, _cert_entry("mu", 0, lambda m: -m),
                 "negative dual multiplier", id="multiplier-sign"),
    pytest.param(BOX, lambda res: replace(res, dual_certificate={
                     "mu": res.dual_certificate["mu"][:1], "nu": ()}),
                 "multiplier count differs", id="multiplier-dropped"),
    pytest.param(BOX, _point_entry("primal_point", 1, Q(3)),
                 "complementary slackness fails", id="primal-coordinate-slack"),
    pytest.param(BOX, _point_entry("primal_point", 0, Q(0)),
                 "primal point violates an inequality", id="primal-coordinate-outside"),
    pytest.param(SEGMENT, _point_entry("primal_point", 1, Q(3)),
                 "primal point violates an equality", id="primal-coordinate-off-equality"),
    pytest.param(BOX, lambda res: replace(res, optimum=FIN(Q(4))),
                 "primal and dual objectives differ", id="optimum"),
    pytest.param(EMPTY, _cert_entry("farkas_mu", 0, lambda m: 2 * m),
                 "Farkas combination not null", id="farkas-value"),
    pytest.param(EMPTY, _cert_entry("farkas_mu", 0, lambda m: -m),
                 "Farkas multiplier negative", id="farkas-sign"),
    pytest.param(ZERO_ROW, _cert_entry("farkas_mu", 0, lambda m: 0 * m),
                 "Farkas value not negative", id="farkas-value-zero"),
    pytest.param(EMPTY, lambda res: replace(res, optimum=FIN(Q(0))),
                 "infeasible minimum must be", id="infeasible-optimum"),
    pytest.param(STRIP, _point_entry("ray", 1, Q(1)),
                 "ray leaves an inequality", id="ray-leaves"),
    pytest.param(LINE, _point_entry("ray", 1, Q(1)),
                 "ray leaves an equality", id="ray-off-equality"),
    pytest.param(STRIP, _point_entry("ray", 0, Q(0)),
                 "ray does not improve the objective", id="ray-flat"),
    pytest.param(STRIP, lambda res: replace(res, optimum=FIN(Q(0))),
                 "unbounded minimum must be", id="unbounded-optimum"),
])
def test_certify_rejects_one_wrong_entry(lp, tamper, message):
    res = solve_min(*lp)
    _certify(res, *lp)
    bad = tamper(res)
    assert bad != res
    with pytest.raises(LPInternalError, match=message):
        _certify(bad, *lp)

