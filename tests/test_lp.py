"""Exact simplex: known optima, certificates, degenerate and redundant rows."""
import random
from collections import Counter
from dataclasses import replace
from math import gcd
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcalc import lp as lp_module
from supcalc.errors import LPInternalError
from supcalc.lp import LPStatus, _certify, _combine, _scale_to_int, solve_max, solve_min
from supcalc.oracles import brute_generators
from supcalc.polyhedron import Polyhedron
from supcalc.rationals import ExtendedRational, dot, qv
from supcalc.serialize import json_digest

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


def _cold_solve(c, ineqs, eqs):
    """solve_min on a fresh tableau, sharing nothing with earlier solves."""
    lp_module._snapshots.clear()
    return solve_min(c, ineqs, eqs)


@st.composite
def objectives_on_one_row_set(draw):
    """(objectives, ineqs, eqs): a small_lps row set under 3-6 objectives.

    The row set may be feasible, infeasible or unbounded under a given
    objective; objectives mix small integers, fractions, zero and the
    negated normal of a row, so optima land on faces as well as vertices.
    """
    c, ineqs, eqs = draw(small_lps())
    n = len(c)
    rows = ineqs + eqs
    objective = st.one_of(
        st.tuples(*[small] * n),
        st.tuples(*[coeff] * n),
        st.just((Q(0),) * n),
        *([st.sampled_from(rows).map(lambda r: tuple(-t for t in r[0]))] if rows else []),
    )
    return draw(st.lists(objective, min_size=3, max_size=6)), ineqs, eqs


@settings(max_examples=150)
@given(objectives_on_one_row_set())
def test_objectives_on_one_row_set_match_cold_solves(data):
    # every objective on a row set solved before must give the result a
    # fresh tableau gives, field for field, in any order
    objectives, ineqs, eqs = data
    results = [solve_min(c, ineqs, eqs) for c in objectives]
    assert results == [_cold_solve(c, ineqs, eqs) for c in objectives]


@settings(max_examples=150)
@given(objectives_on_one_row_set(), st.lists(st.booleans(), min_size=6, max_size=6))
def test_warm_solves_match_cold_solves(data, warm):
    # a warm solve may end on another optimal basis than a fresh tableau,
    # so only its status and optimum must agree; a cold solve between warm
    # ones on the same row set must still agree field for field
    objectives, ineqs, eqs = data
    cold = [_cold_solve(c, ineqs, eqs) for c in objectives]
    lp_module._snapshots.clear()
    for c, want, w in zip(objectives, cold, warm):
        res = solve_min(c, ineqs, eqs, warm=w)
        if w:
            assert (res.status, res.optimum) == (want.status, want.optimum)
        else:
            assert res == want
    top = solve_max(objectives[0], ineqs, eqs, warm=True)
    want = solve_max(objectives[0], ineqs, eqs)
    assert (top.status, top.optimum) == (want.status, want.optimum)


def _counting_pivots(monkeypatch):
    pivots = []
    real = lp_module._Tableau._pivot
    monkeypatch.setattr(lp_module._Tableau, "_pivot",
                        lambda self, r, c: pivots.append((r, c)) or real(self, r, c))
    return pivots


def test_a_repeated_warm_objective_makes_no_pivot(monkeypatch):
    # the warm start is the optimal tableau of the last warm solve; the
    # cold path still starts from the phase-1 basis every time
    rows = [((1, 0), 3), ((-1, 0), 0), ((0, 1), 4), ((0, -1), 0)]
    c = qv(-1, -1)
    lp_module._snapshots.clear()
    first = solve_min(c, rows, warm=True)
    pivots = _counting_pivots(monkeypatch)
    again = solve_min(c, rows, warm=True)
    assert pivots == []
    assert again == first == replace(_cold_solve(c, rows, []), primal_point=None,
                                     dual_certificate=None)
    assert (again.primal_point, again.dual_certificate, again.ray) == (None, None, None)
    lp_module._snapshots.clear()
    solve_min(c, rows)
    del pivots[:]
    solve_min(c, rows)
    assert len(pivots) == 4


def test_int_and_fraction_right_hand_sides_share_one_row_set(monkeypatch):
    # an int right-hand side is kept as an int; it hashes and compares
    # equal to its Fraction, so both spellings find the same kept rows
    ints = [((1, 0), 3), ((-1, 0), 0), ((0, 1), 4), ((0, -1), 0)]
    fractions = [(a, Q(b)) for a, b in ints]
    eqs = [((1, -1), -1)]
    lp_module._snapshots.clear()
    built = []
    real = lp_module._RowSet.__init__
    monkeypatch.setattr(lp_module._RowSet, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    c = qv(-1, "-1/2")
    from_ints = solve_min(c, ints, eqs)
    assert solve_min(c, fractions, [(a, Q(b)) for a, b in eqs]) == from_ints
    assert len(built) == 1 and len(lp_module._snapshots) == 1
    (_, kept_ineqs, kept_eqs), _ = next(iter(lp_module._snapshots.values()))
    assert all(type(b) is int for _, b in (*kept_ineqs, *kept_eqs))
    assert from_ints.optimum == FIN(Q(-5))  # at (3, 4)


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
INTEGER = {"BOX": BOX, "SEGMENT": SEGMENT, "EMPTY": EMPTY, "STRIP": STRIP,
           "LINE": LINE, "ZERO_ROW": ZERO_ROW}

# the same sets with non-unit denominators in rows, right-hand sides and
# objectives, so a check that scaled a row but not its b, or forgot a
# row's scale in a multiplier, fails on them
FRACTIONAL = {
    "BOX": (qv("1/2", "3/5"),  # BOX rows scaled by 1/3 and 2/7: optimum 17/10 at (1, 2)
            [(qv("-1/3", 0), Q(-1, 3)), (qv(0, "-2/7"), Q(-4, 7))], []),
    "SEGMENT": (qv("1/2", "-1/2"),  # x + y = 5/3
                [(qv("2/3", "-2/3"), Q(2, 3)), (qv("-1/4", 0), Q(0))],
                [(qv(1, 1), Q(5, 3))]),
    "EMPTY": (qv("1/2"), [(qv("1/3"), Q(-1, 5)), (qv("-2/7"), Q(-1, 2))], []),
    "STRIP": (qv("2/3", 0), [(qv(0, "1/3"), Q(1, 2)), (qv(0, "-3/5"), Q(2, 7))], []),
    "LINE": (qv("3/4", 0), [], [(qv(0, "2/5"), Q(1, 3))]),
    "ZERO_ROW": (qv("1/2"), [(qv(0), Q(-2, 3))], []),
}


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


# (set, tamper, message, id); each runs on the integer and the fractional set
TAMPERS = [
    ("BOX", _cert_entry("mu", 0, lambda m: m + 1),
     "dual stationarity fails", "multiplier-value"),
    ("SEGMENT", _cert_entry("nu", 0, lambda m: m + 1),
     "dual stationarity fails", "equality-multiplier-value"),
    ("BOX", _cert_entry("mu", 0, lambda m: -m),
     "negative dual multiplier", "multiplier-sign"),
    ("BOX", lambda res: replace(res, dual_certificate={
        "mu": res.dual_certificate["mu"][:1], "nu": ()}),
     "multiplier count differs", "multiplier-dropped"),
    ("BOX", _point_entry("primal_point", 1, Q(3)),
     "complementary slackness fails", "primal-coordinate-slack"),
    ("BOX", _point_entry("primal_point", 0, Q(0)),
     "primal point violates an inequality", "primal-coordinate-outside"),
    ("SEGMENT", _point_entry("primal_point", 1, Q(3)),
     "primal point violates an equality", "primal-coordinate-off-equality"),
    ("BOX", lambda res: replace(res, optimum=FIN(Q(4))),
     "primal and dual objectives differ", "optimum"),
    ("EMPTY", _cert_entry("farkas_mu", 0, lambda m: 2 * m),
     "Farkas combination not null", "farkas-value"),
    ("EMPTY", _cert_entry("farkas_mu", 0, lambda m: -m),
     "Farkas multiplier negative", "farkas-sign"),
    ("ZERO_ROW", _cert_entry("farkas_mu", 0, lambda m: 0 * m),
     "Farkas value not negative", "farkas-value-zero"),
    ("EMPTY", lambda res: replace(res, optimum=FIN(Q(0))),
     "infeasible minimum must be", "infeasible-optimum"),
    ("STRIP", _point_entry("ray", 1, Q(1)),
     "ray leaves an inequality", "ray-leaves"),
    ("LINE", _point_entry("ray", 1, Q(1)),
     "ray leaves an equality", "ray-off-equality"),
    ("STRIP", _point_entry("ray", 0, Q(0)),
     "ray does not improve the objective", "ray-flat"),
    ("STRIP", lambda res: replace(res, optimum=FIN(Q(0))),
     "unbounded minimum must be", "unbounded-optimum"),
]


@pytest.mark.parametrize("lp, tamper, message", [
    pytest.param(INTEGER[name], tamper, message, id=ident)
    for name, tamper, message, ident in TAMPERS
] + [
    pytest.param(FRACTIONAL[name], tamper, message, id=f"{ident}-fractional")
    for name, tamper, message, ident in TAMPERS
])
def test_certify_rejects_one_wrong_entry(lp, tamper, message):
    res = solve_min(*lp)
    _certify(res, *lp)
    bad = tamper(res)
    assert bad != res
    with pytest.raises(LPInternalError, match=message):
        _certify(bad, *lp)



def test_fractional_sets_have_the_stated_results():
    box, segment = solve_min(*FRACTIONAL["BOX"]), solve_min(*FRACTIONAL["SEGMENT"])
    assert (box.optimum, box.primal_point) == (FIN(Q(17, 10)), qv(1, 2))
    assert (segment.optimum, segment.primal_point) == (FIN(Q(-5, 6)), qv(0, "5/3"))
    for name in ("EMPTY", "ZERO_ROW"):
        assert solve_min(*FRACTIONAL[name]).status is LPStatus.INFEASIBLE
    for name in ("STRIP", "LINE"):
        assert solve_min(*FRACTIONAL[name]).status is LPStatus.UNBOUNDED


def test_infeasible_rows_resolved_under_another_objective():
    _, ineqs, eqs = FRACTIONAL["EMPTY"]
    first = solve_min(qv(1), ineqs, eqs)
    again = solve_min(qv("-2/3"), ineqs, eqs)
    assert first.status is again.status is LPStatus.INFEASIBLE
    assert again == _cold_solve(qv("-2/3"), ineqs, eqs)


def test_unbounded_objective_after_an_optimal_one():
    # the strip 0 <= y <= 1 is bounded in y and unbounded in x
    rows = [(qv(0, 1), Q(1)), (qv(0, -1), Q(0))]
    optimal = solve_min(qv(0, 1), rows)
    unbounded = solve_min(qv(1, 1), rows)
    assert optimal.status is LPStatus.OPTIMAL and optimal.optimum == FIN(Q(0))
    assert unbounded.status is LPStatus.UNBOUNDED
    assert unbounded == _cold_solve(qv(1, 1), rows, [])
    kept = dict(lp_module._snapshots)
    assert solve_min(qv(0, 1), rows) == optimal
    assert lp_module._snapshots == kept  # the start was reused, not rebuilt


def test_snapshot_is_bounded_and_evicted_sets_still_solve():
    cap = lp_module._SNAPSHOT_CAP
    boxes = [[(qv(1, 0), Q(k)), (qv(-1, 0), Q(0)), (qv(0, 1), Q(1)), (qv(0, -1), Q(0))]
             for k in range(1, 2 * cap + 2)]
    c = qv(-1, -1)
    first = [solve_min(c, rows) for rows in boxes]
    assert len(lp_module._snapshots) <= cap
    assert [r.optimum for r in first] == [FIN(Q(-k - 1)) for k in range(1, 2 * cap + 2)]
    again = [solve_min(c, rows) for rows in boxes]  # the first sets were evicted
    assert again == first
    assert again == [_cold_solve(c, rows, []) for rows in boxes]
    assert len(lp_module._snapshots) <= cap


@pytest.mark.parametrize("name", ["BOX", "EMPTY"])
def test_results_share_no_state_with_the_snapshot(name):
    c, ineqs, eqs = FRACTIONAL[name]
    res = solve_min(c, ineqs, eqs)
    for key in list(res.dual_certificate):
        res.dual_certificate[key] = ()
    res.dual_certificate["tampered"] = True
    again = solve_min(c, ineqs, eqs)
    assert again.dual_certificate is not res.dual_certificate
    assert again == _cold_solve(c, ineqs, eqs)
    assert "tampered" not in again.dual_certificate


@given(st.lists(coeff, max_size=6))
def test_scale_to_int_matches_fraction_arithmetic(v):
    ints, k = _scale_to_int(v)
    assert k > 0 and all(type(t) is int for t in ints)
    assert [Q(t, k) for t in ints] == v
    assert gcd(k, *ints) == 1  # no smaller k makes every entry integral


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.tuples(*[coeff] * n), coeff), max_size=4),
    st.lists(st.tuples(st.tuples(*[coeff] * n), coeff), max_size=3),
    st.lists(coeff, min_size=7, max_size=7),
)))
def test_combine_matches_fraction_sums(data):
    # the integer row combination of _certify against plain Fraction sums
    n, ineqs, eqs, ys = data
    rows = ineqs + eqs
    mu, nu = tuple(ys[: len(ineqs)]), tuple(ys[len(ineqs) : len(rows)])
    coef, rhs, big = _combine(mu, nu, [_scale_to_int((*a, b)) for a, b in rows], len(ineqs), n)
    want = [sum((y * a[p] for y, (a, _) in zip(mu + nu, rows)), Q(0)) for p in range(n)]
    assert big > 0
    assert [Q(t, big) for t in coef] == want
    assert Q(rhs, big) == sum((y * b for y, (_, b) in zip(mu + nu, rows)), Q(0))


def _pinned_lps():
    """400 seeded LPs: n <= 4, at most 8 rows, fractional entries.

    About a third of the draws repeat a row, scaled by 1, 2, 1/3 or -1
    (the last turns an inequality into an implicit equality), the first
    rows become equalities in most draws, and every fourth objective is
    zero and every other fourth is the negated normal of an inequality,
    so many optima are attained on a whole face and the returned point
    is the one the pivot sequence reaches.
    """
    rng = random.Random(1968)

    def q():
        return Q(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 5)))

    lps = []
    for k in range(400):
        n = rng.randint(1, 4)
        rows = [(tuple(q() for _ in range(n)), q()) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:
            a, b = rng.choice(rows)
            t = rng.choice((Q(1), Q(2), Q(1, 3), Q(-1)))
            rows.insert(rng.randint(0, len(rows)), (tuple(t * x for x in a), t * b))
        split = rng.randint(0, min(2, len(rows)))
        eqs, ineqs = rows[:split], rows[split:]
        if k % 4 == 0:
            c = (Q(0),) * n
        elif k % 4 == 1 and ineqs:
            t = rng.choice((Q(1), Q(1, 2), Q(3)))
            c = tuple(-t * x for x in rng.choice(ineqs)[0])
        else:
            c = tuple(q() for _ in range(n))
        lps.append((c, ineqs, eqs))
    return lps


# sha256 of the canonical JSON of every field of every result above
PINNED_RESULTS = "cf9952622817da892af390832250e33cfc705976b49eeccf4e17380c6b6fa10c"


def test_results_match_the_pinned_digest():
    # any change to the pivot sequence moves some point, certificate or
    # ray; a kernel rewrite must keep every field of every result
    results = [solve_min(*lp) for lp in _pinned_lps()]
    assert json_digest(results) == PINNED_RESULTS


def test_pinned_lps_cover_every_case():
    lps = _pinned_lps()
    results = [solve_min(*lp) for lp in lps]
    statuses = Counter(r.status for r in results)
    assert min(statuses[s] for s in LPStatus) >= 80
    assert sum(1 for _, _, eqs in lps if eqs) >= 200
    # optima attained at two generator points or along a flat ray
    on_a_face = 0
    for (c, ineqs, eqs), res in zip(lps, results):
        if res.status is LPStatus.OPTIMAL:
            points, rays = brute_generators(len(c), ineqs, eqs)
            best = res.optimum.finite_value()
            if (sum(dot(c, p) == best for p in points) >= 2
                    or any(dot(c, r) == 0 for r in rays)):
                on_a_face += 1
    assert on_a_face >= 80
