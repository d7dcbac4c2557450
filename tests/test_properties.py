"""Structural invariants checked on randomized functions.

Each property here is a consequence of conjugate duality for max-affine
functions, so a single counterexample is a genuine engine fault; none of
these tolerate approximation.
"""
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcalc.calculus import (
    _co_hull_lp,
    _normal_block,
    _perspective_block,
    _row,
    _subgradient_row,
    _sum_rows,
    co_hull_conjugates,
    eps_normal_intersection,
    rhs_basic_level,
    rhs_basic_strict_margin,
)
from supcalc.errors import IdentityFalsified
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction, eps_normal_set
from supcalc.identities import _dual_samples, _scaled_level
from supcalc.lp import LPStatus, solve_min
from supcalc.oracles import brute_generators
from supcalc.polyhedron import (
    Polyhedron,
    _int_normalize,
    included,
    intersect,
    polyhedron_equal,
    recession_cone,
)
from supcalc.projection import Image, project
from supcalc.rationals import ExtendedRational, dot, qv

PF = PolyhedralFunction.make
FIN = ExtendedRational.finite

small = st.integers(min_value=-3, max_value=3)
offsets = st.integers(min_value=-2, max_value=2)


@st.composite
def functions_1d(draw):
    pieces = draw(
        st.lists(st.tuples(small, offsets), min_size=1, max_size=3)
    )
    bounded = draw(st.booleans())
    if bounded:
        lo = draw(st.integers(min_value=-3, max_value=0))
        hi = draw(st.integers(min_value=1, max_value=3))
        domain = Polyhedron.box(qv(lo), qv(hi))
    else:
        domain = None
    return PF(1, [(qv(a), Q(b)) for a, b in pieces], domain)


@st.composite
def functions_2d(draw):
    pieces = draw(
        st.lists(st.tuples(small, small, offsets), min_size=1, max_size=3)
    )
    lo = (Q(draw(st.integers(-2, 0))), Q(draw(st.integers(-2, 0))))
    hi = (Q(draw(st.integers(1, 2))), Q(draw(st.integers(1, 2))))
    return PF(
        2,
        [(qv(a, b), Q(c)) for a, b, c in pieces],
        Polyhedron.box(lo, hi),
    )


@st.composite
def function_point_pairs(draw):
    f = draw(functions_1d())
    if f.domain.ineqs:
        verts = f.domain.vertices
        lo = min(v[0] for v in verts)
        hi = max(v[0] for v in verts)
        x = draw(
            st.fractions(min_value=lo, max_value=hi, max_denominator=4)
        )
    else:
        x = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return f, qv(x)


@given(function_point_pairs(), st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_fenchel_young(pair, y):
    f, x = pair
    ystar = qv(y)
    fx = f.eval(x)
    fy = f.conjugate_eval(ystar)
    pairing = FIN(dot(ystar, x))
    assert fy + fx >= pairing
    sub = f.eps_subdifferential(x, Q(0))
    equality = (fy + fx) == pairing
    assert equality == sub.contains(ystar)


@given(function_point_pairs(), st.fractions(min_value=0, max_value=2, max_denominator=4))
def test_eps_monotone_and_limit(pair, eps):
    f, x = pair
    base = f.eps_subdifferential(x, eps)
    relaxed = [f.eps_subdifferential(x, eps + g) for g in (Q(1, 2), Q(1, 8))]
    for r in relaxed:
        assert included(base, r)
    assert included(intersect(*relaxed), relaxed[0])
    # gamma = eps end of the family is the set itself, exactly
    assert polyhedron_equal(base, f.eps_subdifferential(x, eps))


@given(function_point_pairs())
def test_subdiff_recession_is_domain_normal_cone(pair):
    f, x = pair
    sub = f.eps_subdifferential(x, Q(1))
    if sub.is_empty:
        return
    assert polyhedron_equal(
        recession_cone(sub), eps_normal_set(f.domain, x, Q(0))
    )


@given(functions_1d())
def test_biconjugate_identity_1d(f):
    assert polyhedron_equal(f.biconjugate().epigraph, f.epigraph)


@given(functions_2d())
def test_biconjugate_identity_2d(f):
    assert polyhedron_equal(f.biconjugate().epigraph, f.epigraph)


@given(functions_1d())
def test_recession_function_epigraph(f):
    h = f.recession_function()
    assert polyhedron_equal(h.epigraph, recession_cone(f.epigraph))


@given(functions_2d(), st.tuples(small, small))
def test_conjugate_dominates_grid_probe_2d(f, probe):
    # a one-point Legendre probe never exceeds the exact conjugate
    ystar = qv(*probe)
    x0 = f.domain.vertices[0]
    lower = dot(ystar, x0) - f.eval_finite(x0)
    assert f.conjugate_eval(ystar) >= FIN(lower)


@given(function_point_pairs(), st.fractions(min_value=0, max_value=1, max_denominator=3))
def test_eps_normal_sets_grow_with_eps(pair, eps):
    f, x = pair
    c = f.domain
    if not c.contains(x):
        return
    tight = eps_normal_set(c, x, eps)
    loose = eps_normal_set(c, x, eps + Q(1, 2))
    assert included(tight, loose)


@st.composite
def functions_with_points(draw):
    """(f, points): dims 1-3, a domain vertex (if any) and a relative interior point.

    The domain is R^n, a box, the orthant shifted to -1 (unbounded) or a
    box flattened to x_1 = 0, whose equality gives epi f* a line (the
    path that converts).  On a coin flip every piece ignores x_n, so on
    an unbounded domain epi f holds a line and epi f* is pointed but flat.
    """
    n = draw(st.integers(1, 3))
    pieces = draw(st.lists(st.tuples(st.tuples(*[small] * n), offsets), min_size=1, max_size=4))
    if draw(st.booleans()):
        pieces = [((*a[:-1], 0), b) for a, b in pieces]
    kind = draw(st.sampled_from(["full", "box", "orthant", "flat"]))
    ones = (Q(1),) * n
    if kind == "full":
        domain, inner = None, (Q(0),) * n
    elif kind == "orthant":
        domain = Polyhedron.from_hrep(
            n, [(tuple(-Q(int(i == j)) for j in range(n)), Q(1)) for i in range(n)])
        inner = (Q(0),) * n
    else:
        domain, inner = Polyhedron.box((-1,) * n, ones), (Q(1, 3),) * n
        if kind == "flat":
            e1 = (Q(1),) + (Q(0),) * (n - 1)
            domain = Polyhedron.from_hrep(n, domain.ineqs, [(e1, Q(0))])
            inner = (Q(0),) + inner[1:]
    f = PF(n, [(tuple(Q(t) for t in a), Q(b)) for a, b in pieces], domain)
    return f, f.domain.vertices[:1] + (inner,)


def _generators_by_dd_and_brute(p):
    """p's generators read again by DD on a fresh copy of its rows, and by enumeration."""
    read = Polyhedron(p.dim, p.ineqs, p.eqs).generators
    lines = any(tuple(-t for t in r) in read[1] for r in read[1])
    return read, None if lines else brute_generators(p.dim, p.ineqs, p.eqs)


@settings(max_examples=60, deadline=None)
@given(functions_with_points())
def test_kept_conjugate_pair_reads_match_dd_and_enumeration(data):
    # epi f*'s generators and each ε-subdifferential's come off epi f's
    # one conversion when their cones are pointed; DD on the same rows
    # and row-subset enumeration (pointed sets only, where the V-form is
    # unique) are the oracles
    f, points = data
    g = f.conjugate()
    cases = [(x, eps) for x in points for eps in (Q(0), Q(1, 3), Q(1))]
    subs = [f.eps_subdifferential(x, eps) for x, eps in cases]
    # the rows are those of f*'s own epigraph and of the former
    # piece-by-piece subdifferential, exactly
    assert g.epigraph == PF(g.dim, g.pieces, g.domain).epigraph
    for (x, eps), p in zip(cases, subs):
        rows = [(tuple(c - t for c, t in zip(v, x)), eps - f.eval_finite(x) - c)
                for v, c in g.pieces]
        assert p == Polyhedron.from_hrep(f.dim, rows + list(g.domain.ineqs), g.domain.eqs)
    for p in (g.epigraph, *subs):
        read = p.generators
        by_dd, by_brute = _generators_by_dd_and_brute(p)
        assert read == by_dd
        if by_brute is not None:
            pts, dirs = by_brute
            assert list(read[0]) == pts
            assert {_int_normalize(r) for r in read[1]} == {_int_normalize(r) for r in dirs}


@st.composite
def families_with_points(draw):
    """2-3 members whose domains all hold [0, 1]^dim, and x in that cube."""
    dim = draw(st.sampled_from((1, 2)))
    members = draw(st.lists(functions_1d() if dim == 1 else functions_2d(),
                            min_size=2, max_size=3))
    fam = FunctionFamily.make([(f"f{i}", f) for i, f in enumerate(members)])
    x = tuple(draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
              for _ in range(dim))
    return fam, x


@given(
    families_with_points(),
    st.just(Q(0)) | st.fractions(min_value=0, max_value=1, max_denominator=3),
    st.integers(min_value=1, max_value=20).filter(lambda k: k % 7),
)
def test_rhs_basic_levels_match_the_lifted_projection(pair, eps, k):
    # each level is read off the conjugate hull; at every budget, eps
    # itself and 0 included, it must be the projection of that level's
    # lifted system, which is what P34's per-level sandwich relies on
    fam, x = pair
    for budget in (eps, eps + Q(k, 7)):
        level = rhs_basic_level(fam, x, budget)
        assert polyhedron_equal(level, _reference_projection(fam, x, budget))


@st.composite
def set_families_with_points(draw):
    """2-3 polyhedra in dimension 1-3, each holding x: boxes around the
    unit cube with some sides dropped, cut by a row through or near x or
    by an equality through x."""
    dim = draw(st.integers(min_value=1, max_value=3))
    x = tuple(draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
              for _ in range(dim))
    sets = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        rows = []
        for i in range(dim):
            e = tuple(Q(int(j == i)) for j in range(dim))
            if draw(st.booleans()):
                rows.append((e, Q(draw(st.integers(1, 2)))))
            if draw(st.booleans()):
                rows.append((tuple(-t for t in e), Q(draw(st.integers(0, 2)))))
        eqs = []
        cut = draw(st.sampled_from((None, "row", "equality")))
        if cut is not None:
            a = tuple(Q(draw(small)) for _ in range(dim))
            if cut == "row":
                rows.append((a, dot(a, x) + Q(draw(st.integers(0, 2)), 2)))
            else:
                eqs.append((a, dot(a, x)))
        sets.append(Polyhedron.from_hrep(dim, rows, eqs))
    return sets, x


def _reference_normal_sum(sets, x, budget):
    """The split-budget normal sum by LP projection: an eta_t-normal block
    z_t per set, the eta_t summing to the budget, projected onto sum_t z_t."""
    n = sets[0].dim
    blocks = [(n + 1) * i for i in range(len(sets))]
    width = (n + 1) * len(sets)
    ineqs = [row for c, at in zip(sets, blocks) for row in _normal_block(c, x, at, width)]
    eqs = [(_row(width, {at + n: 1 for at in blocks}), budget)]
    return project(Image(width, ineqs, eqs, _sum_rows(blocks, n, width)))


@given(
    set_families_with_points(),
    st.fractions(min_value=0, max_value=1, max_denominator=3),
    st.integers(min_value=1, max_value=20).filter(lambda k: k % 7),
)
def test_normal_sum_levels_match_the_lifted_projection(pair, eps, k):
    # C46 reads every level off the unit level, scaled by its budget; at
    # eps itself and at a budget no grid names, the scaled level and the
    # level generated at that budget must both be the LP projection
    sets, x = pair
    unit = eps_normal_intersection(sets, x, 1)
    for budget in (eps, eps + Q(k, 7)):
        want = _reference_normal_sum(sets, x, budget)
        for level in (_scaled_level(unit, budget), eps_normal_intersection(sets, x, budget)):
            assert polyhedron_equal(level, want)
            assert level.generators == want.generators


@given(set_families_with_points(), st.fractions(min_value=0, max_value=2, max_denominator=3))
def test_normal_sum_of_one_set_is_its_normal_set(pair, budget):
    # eps_normal_intersection builds the level from the set's rows and
    # eps_normal_set from its generators; for one set they must agree
    sets, x = pair
    for c in sets:
        assert polyhedron_equal(eps_normal_intersection([c], x, budget),
                                eps_normal_set(c, x, budget))


@st.composite
def hull_families(draw, max_members=6):
    """2-max_members max-affine members in dimension 1-3, each on the whole
    space or on a box around the unit cube, so the supremum is proper."""
    dim = draw(st.integers(min_value=1, max_value=3))
    members = []
    for i in range(draw(st.integers(min_value=2, max_value=max_members))):
        pieces = draw(st.lists(st.tuples(st.tuples(*[small] * dim), offsets),
                               min_size=1, max_size=3))
        domain = None
        if draw(st.booleans()):
            lo = [Q(draw(st.integers(-2, 0))) for _ in range(dim)]
            hi = [Q(draw(st.integers(1, 2))) for _ in range(dim)]
            domain = Polyhedron.box(lo, hi)
        members.append((f"f{i}", PF(dim, [(a, Q(b)) for a, b in pieces], domain)))
    return FunctionFamily.make(members)


@given(hull_families(), st.data())
def test_capped_hull_value_is_the_least_subset_value(fam, data):
    # the oracle enumerates every label subset of at most cap members;
    # the capped value must be its minimum, or the call must refuse the
    # cap when that minimum misses the unrestricted value
    xs = data.draw(st.sampled_from(_dual_samples(fam)))
    cap = data.draw(st.integers(min_value=1, max_value=len(fam.labels)))
    full = _co_hull_lp(fam, xs, fam.labels).value
    oracle = min(
        (_co_hull_lp(fam, xs, subset).value
         for size in range(1, cap + 1) for subset in combinations(fam.labels, size))
    )
    if oracle != full:
        with pytest.raises(IdentityFalsified):
            co_hull_conjugates(fam, xs, support_cap=cap)
        return
    capped = co_hull_conjugates(fam, xs, support_cap=cap)
    assert capped.value == oracle
    if capped.weights is not None:
        assert len(capped.weights.support) <= cap


def _reference_rhs_basic_system(fam, x, budget, margin=False):
    """The lifted system with a scaled error e_t >= 0 per member, bounded
    below by the member's subgradient row, and an optional margin delta
    in [0, 1] that tightens the budget and activity rows uniformly."""
    # a block (y_t, u_t, lambda_t, e_t) per member, then delta
    n, fx = fam.dim, fam.sup.eval_finite(x)
    blocks = [(n + 3) * i for i in range(len(fam.labels))]
    width = (n + 3) * len(blocks) + margin
    delta = width - 1 if margin else None
    ineqs, eqs = [], []
    errors, activity = {}, {}
    for t, at in zip(fam.labels, blocks):
        f_t = fam.member(t)
        f_at, e = f_t.eval_finite(x), at + n + 2
        block_ineqs, block_eqs = _perspective_block(f_t, at, width)
        ineqs += block_ineqs + [_subgradient_row(x, f_at, at, e, width), (_row(width, {e: -1}), 0)]
        eqs += block_eqs
        errors[e] = activity[e] = Q(1)
        activity[at + n + 1] = -f_at

    def budgeted(row, rhs):
        if delta is not None:
            row[delta] = Q(1)
        return _row(width, row), budget + rhs

    eqs.append((_row(width, {at + n + 1: 1 for at in blocks}), 1))
    ineqs += [budgeted(errors, Q(0)), budgeted(activity, -fx)]
    if delta is not None:
        ineqs += [(_row(width, {delta: Q(-1)}), 0), (_row(width, {delta: Q(1)}), 1)]
    return width, ineqs, eqs, _sum_rows(blocks, n, width), delta


def _reference_projection(fam, x, budget):
    width, ineqs, eqs, matrix, _ = _reference_rhs_basic_system(fam, x, budget)
    return project(Image(width, ineqs, eqs, matrix))


@given(
    hull_families(max_members=4),
    st.data(),
    st.integers(min_value=0, max_value=20).map(lambda k: Q(k, 7)),
)
def test_rhs_basic_sets_and_margin_match_the_error_variable_reference(fam, data, budget):
    # budgets 0, off the grid and above 1; x in [0, 1]^dim lies in every
    # member's domain.  The level read off the conjugate hull, a preimage
    # that may carry redundant rows, is compared with the reference
    # projection as a set, and the margin with the delta LP of the
    # reference system
    x = tuple(data.draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
              for _ in range(fam.dim))
    want = _reference_projection(fam, x, budget)
    assert polyhedron_equal(rhs_basic_level(fam, x, budget), want)
    width, ineqs, eqs, _, delta = _reference_rhs_basic_system(fam, x, budget, margin=True)
    res = solve_min(_row(width, {delta: Q(-1)}), ineqs, eqs)
    assert res.status is LPStatus.OPTIMAL
    assert rhs_basic_strict_margin(fam, x, budget) == -res.optimum.finite_value()
