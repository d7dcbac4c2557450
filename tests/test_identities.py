"""The executable identity catalog, driven over worked instances."""
import sys
from fractions import Fraction as Q

import pytest
from conftest import abs_family, kink_function
from hypothesis import given
from hypothesis import strategies as st
from test_acceptance import _c2_plan, _dom_point

import supcalc.calculus as calculus_module
import supcalc.family as family_module
import supcalc.identities as identities
import supcalc.lp as lp_module
import supcalc.polyhedron as polyhedron_module
import supcalc.projection as projection_module
from supcalc.cli import _fuzz_params
from supcalc.errors import HypothesesNotMet, IdentityFalsified, InvalidParameterError
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction
from supcalc.generator import DOMAIN_KINDS, GeneratorParams, generate
from supcalc.identities import check_identity, identity_ids
from supcalc.polyhedron import Polyhedron, intersect
from supcalc.rationals import qv
from supcalc.reports import CheckStatus
from supcalc.serialize import json_digest, report_to_json

PF = PolyhedralFunction.make

ALL_IDS = (
    "L2A", "L2B", "L2C", "L2D", "L2E", "L2F", "P34", "T41", "C42", "T44",
    "C46", "T52", "T53", "R54", "T54A", "T54B", "L57", "RINF",
)


@pytest.fixture
def pair():
    return FunctionFamily.make(
        [
            ("g1", PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])),
            ("g2", PF(1, [(qv(1), Q(-1)), (qv(-1), Q(1))])),
        ]
    )


def test_catalog_listing():
    assert identity_ids() == ALL_IDS
    for ident in ALL_IDS:
        entry = identities.CATALOG[ident]
        assert entry.summary


def test_l2a_pass_and_digest_stability(fam_abs):
    r = check_identity("L2A", fam_abs)
    assert r.status == "pass"
    assert check_identity("L2A", fam_abs).instance_digest == r.instance_digest


def test_digest_is_canonical_json_of_identity_instance_and_params(fam_abs):
    digest = check_identity("L2A", fam_abs, {"eps": "1/2"}).instance_digest
    assert digest == json_digest(["L2A", fam_abs, {"eps": Q(1, 2)}])
    assert check_identity("L2A", fam_abs, {"eps": Q(2, 4)}).instance_digest == digest


def test_l2b_and_l2c(fam_abs):
    r = check_identity("L2B", fam_abs)
    assert r.status == "pass" and r.details["finite_samples"] > 0
    r = check_identity("L2C", fam_abs)
    assert r.status == "pass" and r.details["value_samples"] > 0


def test_l2d_requires_increasing(fam_abs, chain6):
    assert check_identity("L2D", fam_abs).status == "hypotheses-not-met"
    r = check_identity("L2D", chain6)
    assert r.status == "pass" and r.details["top"] == "n6"


def test_l2e_edges(fam_abs, chain6):
    r = check_identity("L2E", chain6)
    assert r.status == "pass" and r.details["exercised"] > 0
    assert check_identity("L2E", fam_abs).status == "trivial-pass"


def test_l2f(chain6):
    assert check_identity("L2F", chain6).status == "pass"


def test_p34_strict_margins(fam_abs):
    r = check_identity("P34", fam_abs, {"x": [0], "eps": Q(1, 2)})
    assert r.status == "pass"
    assert all(Q(m) > 0 for m in r.details["strict_margins"].values())


def test_p34_custom_gamma_grid(fam_abs):
    r = check_identity(
        "P34", fam_abs, {"x": [0], "eps": 0, "gamma_grid": [Q(1, 2), Q(1, 16)]}
    )
    assert r.status == "pass"


def _count_lps_inside(monkeypatch, *names) -> list:
    """The certified LPs solved while one of the named identities-module
    functions runs."""
    inside, solves = [], []
    certify = lp_module._certify_scaled

    def entered(real):
        def counted(*args):
            inside.append(True)
            try:
                return real(*args)
            finally:
                inside.pop()
        return counted

    def counted_certify(*args):
        if inside:
            solves.append(args)
        return certify(*args)

    for name in names:
        monkeypatch.setattr(identities, name, entered(getattr(identities, name)))
    monkeypatch.setattr(lp_module, "_certify_scaled", counted_certify)
    return solves


def test_p34_margins_solve_no_lp(fam_abs, monkeypatch):
    # the least feasible budget is 0 (an active member's subgradient meets
    # both budgeted rows there), so every level's margin is min(1, budget)
    # and no LP is solved for it
    solves = _count_lps_inside(monkeypatch, "rhs_basic_strict_margin")
    grid = [Q(1, 2), Q(1, 4), Q(1, 8)]
    r = check_identity("P34", fam_abs, {"x": [0], "eps": 0, "gamma_grid": grid})
    assert r.status == "pass"
    assert r.details["strict_margins"] == {str(g): g for g in grid}
    assert solves == []


def _patch_target(monkeypatch, family, target):
    # the supremum's own subdifferential is replaced by a wrong target;
    # the members, which build the lifted system, keep theirs
    sup = family.sup
    original = PolyhedralFunction.eps_subdifferential

    def wrong(self, x, eps):
        return target if self is sup else original(self, x, eps)

    monkeypatch.setattr(PolyhedralFunction, "eps_subdifferential", wrong)


P34_AT_ZERO = {"x": [0], "eps": 0, "gamma_grid": [Q(1, 2)]}


@pytest.mark.parametrize("target, reason, witness", [
    pytest.param(
        Polyhedron.box(qv(-2), qv(2)),
        "a subdifferential generator is unreachable at its own budget",
        {"gamma": 0, "point": (-2,)}, id="uncovered-point"),
    pytest.param(
        Polyhedron.from_generators(1, [qv(0)], [qv(1)]),
        "a subdifferential generator is unreachable at its own budget",
        {"gamma": 0, "ray": (1,)}, id="uncovered-ray"),
    pytest.param(
        Polyhedron.box(qv(0), qv(Q(1, 2))),
        "the represented set overshoots the subdifferential",
        {"gamma": 0, "budget": 0}, id="overshoot"),
])
def test_p34_failure_reports(fam_abs, monkeypatch, target, reason, witness):
    # the represented set at budget 0 is [-1, 1]
    _patch_target(monkeypatch, fam_abs, target)
    r = check_identity("P34", fam_abs, P34_AT_ZERO)
    assert r.status == "fail"
    assert r.details == {"reason": reason}
    assert r.witness == witness


PINNED_P34 = "214247ab32713969234416688cee2a488a46c8b8915aaeefde6cbf4dbae09c18"

# the wrong targets of test_p34_failure_reports, in its order
P34_WRONG_TARGETS = (
    Polyhedron.box(qv(-2), qv(2)),
    Polyhedron.from_generators(1, [qv(0)], [qv(1)]),
    Polyhedron.box(qv(0), qv(Q(1, 2))),
)


def _p34_corpus(monkeypatch) -> list[dict]:
    """P34 records over criterion-2 instances on their grid, fuzz instances
    on the default grid, and the injected-target failures."""
    records = []
    for i in range(40):
        fam = generate(_c2_plan(i))
        params = {"x": _dom_point(fam), "eps": Q(1, 3), "gamma_grid": (Q(1, 2), Q(1, 8))}
        records.append(report_to_json(check_identity("P34", fam, params)))
    for i in range(40):
        fam = generate(_fuzz_params(7100, i, 3))
        params = {"eps": (Q(0), Q(1, 2))[i % 2]}
        if i % 4 < 2:
            params["x"] = _dom_point(fam)
        records.append(report_to_json(check_identity("P34", fam, params)))
    for target in P34_WRONG_TARGETS:
        fam = abs_family()
        with monkeypatch.context() as m:
            _patch_target(m, fam, target)
            records.append(report_to_json(check_identity("P34", fam, P34_AT_ZERO)))
    return records


def test_p34_reports_match_the_pinned_digest(monkeypatch):
    # every P34 answer, margin and witness stays byte-identical
    records = _p34_corpus(monkeypatch)
    statuses = [r["status"] for r in records]
    assert statuses.count("pass") >= 60 and statuses[-3:] == ["fail"] * 3
    assert json_digest(records) == PINNED_P34


def _count_covers(monkeypatch) -> list[int]:
    """The image dimension of each rhs_basic_covers call P34 makes."""
    dims = []
    real = identities.rhs_basic_covers

    def counting(image, target):
        dims.append(image.dim)
        return real(image, target)

    monkeypatch.setattr(identities, "rhs_basic_covers", counting)
    return dims


def test_a_passing_p34_covers_once_per_level(fam_abs, monkeypatch):
    # each level is a preimage of the conjugate hull in dimension dim;
    # covers converts the target and within converts the level, and both
    # read emptiness off those conversions, so neither solves an LP
    dims = _count_covers(monkeypatch)
    solves = _count_lps_inside(monkeypatch, "rhs_basic_covers", "rhs_basic_within")
    r = check_identity("P34", fam_abs, {"x": [0], "eps": Q(1, 2)})
    assert r.status == "pass" and r.details["levels"] == 6
    assert dims == [1] * 6
    assert solves == []


def _count_projections(monkeypatch) -> list[int]:
    """The image dimension of each projection.project call, through every
    supcalc module that binds it."""
    dims = []
    real = projection_module.project

    def counting(image):
        dims.append(image.dim)
        return real(image)

    for name, module in list(sys.modules.items()):
        if name.startswith("supcalc") and getattr(module, "project", None) is real:
            monkeypatch.setattr(module, "project", counting)
    return dims


@pytest.mark.parametrize("target", P34_WRONG_TARGETS)
def test_p34_failures_take_the_per_level_loop(fam_abs, monkeypatch, target):
    # a wrong target fails at its first level, which is the conjugate
    # hull's preimage, so nothing is projected
    dims = _count_covers(monkeypatch)
    projected = _count_projections(monkeypatch)
    _patch_target(monkeypatch, fam_abs, target)
    assert check_identity("P34", fam_abs, P34_AT_ZERO).status == "fail"
    assert projected == []
    assert dims == [1]


def test_t41(fam_abs, chain6):
    assert check_identity("T41", fam_abs).status == "hypotheses-not-met"
    r = check_identity("T41", chain6)
    assert r.status == "pass" and r.details["samples"] > 0


def test_c42(pair):
    assert check_identity("C42", pair).status == "pass"


def test_t44_stage_gap(chain6):
    r = check_identity("T44", chain6, {"x": [0], "eps": 0})
    assert r.status == "pass"
    assert r.details["strict_stage_gap"] is True
    assert sorted(r.details["stage_gap_vertices"]) == [(Q(-5, 6),), (Q(5, 6),)]


def test_t44_unnested_chain_misses_its_hypothesis():
    # f1 <= f2 on [-3, 1], so sup = f2 and the identity holds, yet the
    # subdifferentials at 0 are {-1} and {-2}: they do not nest, and the
    # tail unions cannot be collapsed onto the top member
    box = Polyhedron.box(qv(-3), qv(1))
    f1 = PF(1, [(qv(-1), Q(0)), (qv(0), Q(-1)), (qv(1), Q(-2))], box)
    f2 = PF(1, [(qv(-2), Q(3)), (qv(0), Q(1)), (qv(2), Q(-1))], box)
    fam = FunctionFamily.make([("f1", f1), ("f2", f2)],
                              order_edges=[("f1", "f2")], increasing=True)
    r = check_identity("T44", fam, {"x": [0], "eps": 0})
    assert r.status == "hypotheses-not-met"
    assert r.details["reason"] == (
        "the 0-subdifferential of member 'f1' is not contained in that of "
        "its successor 'f2'"
    )


def test_c46_boxes():
    boxes = [
        Polyhedron.box(qv(-1, -1), qv(1, 1)),
        Polyhedron.box(qv(0, 0), qv(2, 2)),
    ]
    r = check_identity("C46", boxes, {"eps": Q(1, 4)})
    assert r.status == "pass"


PINNED_C46 = "0240e77a386fa3b5373d3e88b07ea5d1ebb6baaa4238763eb881b956246626a0"

C46_BOXES = (
    Polyhedron.box(qv(-1, -1), qv(1, 1)),
    Polyhedron.box(qv(0, 0), qv(2, 2)),
)

# wrong normal sets of the intersection of C46_BOXES: {0} lies inside the
# split-budget sum and misses its vertices, the big box sticks out of it
C46_WRONG_NORMALS = (
    Polyhedron.single_point(qv(0, 0)),
    Polyhedron.box(qv(-10, -10), qv(10, 10)),
)


def _c46_corpus(monkeypatch) -> list[dict]:
    """C46 records over criterion-2 member domains, fuzz member domains
    and the injected wrong normal sets."""
    records = []
    for i in range(40):
        fam = generate(_c2_plan(i))
        sets = [f.domain for _, f in fam.members]
        records.append(report_to_json(check_identity("C46", sets, {"eps": Q(1, 4)})))
    for i in range(40):
        fam = generate(_fuzz_params(7200, i, 3))
        sets = [f.domain for _, f in fam.members]
        params = {"eps": (Q(0), Q(1, 2))[i % 2]}
        if i % 4 < 2 and not fam.sup.domain.is_empty:
            params["x"] = _dom_point(fam)
        records.append(report_to_json(check_identity("C46", sets, params)))
    for wrong in C46_WRONG_NORMALS:
        with monkeypatch.context() as m:
            m.setattr(identities, "eps_normal_set", lambda c_set, x, eps: wrong)
            records.append(report_to_json(
                check_identity("C46", list(C46_BOXES), {"eps": Q(1, 4)})))
    return records


def test_c46_reports_match_the_pinned_digest(monkeypatch):
    # every C46 answer and witness stays byte-identical
    records = _c46_corpus(monkeypatch)
    statuses = [r["status"] for r in records]
    assert statuses.count("pass") >= 60 and statuses[-2:] == ["fail"] * 2
    assert [r["details"]["reason"] for r in records[-2:]] == [
        "the split-budget sum is not contained in the normal set of the intersection",
        "the normal set of the intersection is not contained in the split-budget sum",
    ]
    assert json_digest(records) == PINNED_C46


def _count_normal_sums(monkeypatch) -> list[Q]:
    """The budget of each eps_normal_intersection call C46 makes."""
    calls = []
    real = identities.eps_normal_intersection

    def counting(sets, x, eps):
        calls.append(eps)
        return real(sets, x, eps)

    monkeypatch.setattr(identities, "eps_normal_intersection", counting)
    return calls


def test_c46_converts_once_and_projects_nothing(monkeypatch):
    # one conversion at budget 1 gives every level by scaling, and none
    # is projected
    calls = _count_normal_sums(monkeypatch)
    projected = _count_projections(monkeypatch)
    assert check_identity("C46", list(C46_BOXES), {"eps": Q(1, 4)}).status == "pass"
    assert calls == [1]
    assert projected == []


def test_c46_above_the_dd_cap_projects_nothing(monkeypatch):
    # the boxes live in dimension 2 and C46 converts only there, so under
    # a cap of 2 it takes the same one call and the report is unchanged
    params = {"eps": Q(1, 4)}
    want = report_to_json(check_identity("C46", list(C46_BOXES), params))
    calls = _count_normal_sums(monkeypatch)
    projected = _count_projections(monkeypatch)
    monkeypatch.setenv("SUPCALC_DD_CAP", "2")
    got = check_identity("C46", list(C46_BOXES), params)
    assert got.status == "pass" and report_to_json(got) == want
    assert calls == [1]
    assert projected == []


@pytest.mark.parametrize("ident", ["T52", "T53", "R54"])
def test_decomposition_identities_attach_witnesses(fam_abs, ident):
    r = check_identity(ident, fam_abs, {"x": [0], "eps": Q(1, 3)})
    assert r.status == "pass"
    assert r.witness is not None


def _full_grid_t52(family, params):
    """T52 with every grid gamma solved at every target point, then gamma = 0:
    the reference the checker's report must equal."""
    f = identities._proper_sup(family)
    x = identities._primal_point(family, params)
    if not f.domain.contains(x):
        raise HypothesesNotMet("x lies outside the domain of the supremum")
    eps = params.get("eps", Q(0))
    points = identities._decomposition_targets(f.eps_subdifferential(x, eps))
    first = None
    zero_gamma_hits = 0
    for point in points:
        for gamma in sorted(identities._grid(params), reverse=True):
            witness = identities.decompose(family, x, eps, point, "T52", gamma=gamma)
            if witness is None:
                raise IdentityFalsified(
                    "no relaxed decomposition reaches a subgradient",
                    certificate={"point": point, "gamma": gamma},
                )
            if first is None:
                first = witness
        if identities.decompose(family, x, eps, point, "T52", gamma=0) is not None:
            zero_gamma_hits += 1
    details = {"eps": eps, "targets": len(points), "zero_gamma_hits": zero_gamma_hits}
    return (CheckStatus.PASS, first, details)


def _t52_and_reference(family, params) -> tuple[dict, dict]:
    got = report_to_json(check_identity("T52", family, params))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(identities._CHECKERS, "T52", _full_grid_t52)
        want = report_to_json(check_identity("T52", family, params))
    return got, want


@st.composite
def _t52_instances(draw):
    dim = draw(st.integers(1, 3))
    family = generate(GeneratorParams(
        dim=dim,
        member_count=draw(st.integers(2, 3)),
        pieces_per_member=draw(st.integers(1, 2)),
        domain_kind=draw(st.sampled_from(DOMAIN_KINDS)),
        seed=draw(st.integers(0, 10_000)),
    ))
    params = {"eps": draw(st.sampled_from([Q(0), Q(1, 4), Q(1)]))}
    dom = family.sup.domain
    if not dom.is_empty and draw(st.booleans()):
        # a point of the least face of dom f, where the pooled normal can
        # be nonzero
        params["x"] = dom.vertices[0]
    if draw(st.booleans()):
        params["gamma_grid"] = draw(st.lists(
            st.sampled_from([Q(1, 16), Q(1, 3), Q(1, 2), Q(2)]),
            min_size=1, max_size=3,
        ))
    return family, params


def _infeasible_below(mp, point, below):
    """Decompositions of ``point`` at every gamma < ``below`` find no witness."""
    real = identities.decompose

    def infeasible_below(family, x, eps, xstar, mode, gamma=0):
        if tuple(xstar) == point and gamma < below:
            return None
        return real(family, x, eps, xstar, mode, gamma=gamma)

    mp.setattr(identities, "decompose", infeasible_below)


@given(_t52_instances(), st.sampled_from([None, Q(1, 20), Q(1, 3), Q(3)]),
       st.integers(0, 7))
def test_t52_reports_match_the_full_grid_loop(instance, below, at):
    # drawn families decompose at gamma = 0; a drawn target point made
    # infeasible below some gamma takes the grid path and its failures
    family, params = instance
    f = family.sup
    with pytest.MonkeyPatch.context() as mp:
        if below is not None and f.is_proper:
            x = params["x"] if "x" in params else identities._primal_point(family, {})
            points = identities._decomposition_targets(
                f.eps_subdifferential(x, params["eps"])
            )
            _infeasible_below(mp, points[at % len(points)], below)
        got, want = _t52_and_reference(family, params)
    assert got == want


@pytest.mark.parametrize("x, below, raised", [
    ([0], Q(3), Q(1)),          # every gamma fails: raised at the largest
    ([0], Q(1, 3), Q(1, 4)),    # the grid fails part-way down
    ([0], Q(1, 16), None),      # only gamma = 0 fails: no zero-gamma hit there
    ([1], Q(1, 5), Q(1, 8)),
])
@pytest.mark.parametrize("at", [0, -1])
def test_t52_falsifies_at_the_full_grid_loops_point_and_gamma(
    fam_abs, monkeypatch, x, below, raised, at
):
    target = fam_abs.sup.eps_subdifferential(qv(*x), Q(1, 3))
    failing = identities._decomposition_targets(target)[at]
    _infeasible_below(monkeypatch, failing, below)
    got, want = _t52_and_reference(fam_abs, {"x": x, "eps": Q(1, 3)})
    assert got == want
    if raised is None:
        assert got["status"] == "pass" and got["details"]["zero_gamma_hits"] == 1
    else:
        assert got["status"] == "fail"
        assert got["witness"] == {"gamma": str(raised),
                                  "point": [str(c) for c in failing]}


def test_t52_decides_the_grid_from_gamma_zero(fam_abs, monkeypatch):
    # gamma = 0 decomposes every target point, so each point solves one
    # decomposition LP, plus one at the largest gamma for the witness
    solved = []
    real = calculus_module._solve_decomposition

    def counting(family, x, eps, xstar, gamma, *args, **kwargs):
        solved.append(gamma)
        return real(family, x, eps, xstar, gamma, *args, **kwargs)

    monkeypatch.setattr(calculus_module, "_solve_decomposition", counting)
    r = check_identity("T52", fam_abs, {"x": [0], "eps": Q(1, 3)})
    assert r.status == "pass"
    points = r.details["targets"]
    assert r.details["zero_gamma_hits"] == points
    assert r.witness.gamma == max(identities.GAMMA_GRID_DEFAULT)
    assert sorted(solved) == [0] * points + [max(identities.GAMMA_GRID_DEFAULT)]


def _emptiness_lps(monkeypatch) -> list[tuple]:
    """The (ineqs, eqs) of each zero-objective LP a Polyhedron solves."""
    rows = []
    real = polyhedron_module.solve_min

    def recording(c, ineqs=(), eqs=(), **kw):
        if not any(c):
            rows.append((tuple(ineqs), tuple(eqs)))
        return real(c, ineqs, eqs, **kw)

    monkeypatch.setattr(polyhedron_module, "solve_min", recording)
    return rows


@pytest.mark.parametrize("ident", ["T52", "T53", "R54"])
def test_decomposition_targets_solve_no_emptiness_lp(fam_abs, monkeypatch, ident):
    # x lies in dom f, so its eps-subdifferential holds the subdifferential
    # there and is never empty; here it is [2/3, 1]
    target = fam_abs.sup.eps_subdifferential(qv(1), Q(1, 3))
    emptiness = _emptiness_lps(monkeypatch)
    assert check_identity(ident, fam_abs, {"x": [1], "eps": Q(1, 3)}).status == "pass"
    assert (target.ineqs, target.eqs) not in emptiness


def test_c46_settles_emptiness_with_its_point(monkeypatch):
    # with no x given, the max-slack LP that picks x decides is_empty too
    common = intersect(*C46_BOXES)
    emptiness = _emptiness_lps(monkeypatch)
    assert check_identity("C46", list(C46_BOXES), {"eps": Q(1, 4)}).status == "pass"
    assert (common.ineqs, common.eqs) not in emptiness


def test_rinf_settles_emptiness_with_its_point(monkeypatch):
    # with no x given, the max-slack LP that picks x decides is_empty too
    fam = FunctionFamily.make([("kink", kink_function()), ("id", PF(1, [(qv(1), Q(0))]))])
    box = Polyhedron.box(qv(-1), qv(1))
    feasible = intersect(box, fam.sup.domain)  # [0, 1]
    emptiness = _emptiness_lps(monkeypatch)
    assert check_identity("RINF", (fam, box), {"eps": 1}).status == "pass"
    assert (feasible.ineqs, feasible.eqs) not in emptiness


def test_t54a_variants(fam_abs):
    r = check_identity("T54A", fam_abs)
    assert r.status == "pass"
    assert r.details["primal_epigraph_variant_equal"] is False


def test_t54b(fam_abs):
    assert check_identity("T54B", fam_abs).status == "pass"


def test_t54b_zero_sum_condition_fails():
    # 0 on x >= 0 and 0 on x <= 0: the conjugate epigraphs recede along
    # (-1, 0) and (1, 0), which sum to zero
    fam = FunctionFamily.make(
        [("a", PF(1, [(qv(0), Q(0))], Polyhedron.from_hrep(1, [(qv(-1), Q(0))]))),
         ("b", PF(1, [(qv(0), Q(0))], Polyhedron.from_hrep(1, [(qv(1), Q(0))])))],
    )
    r = check_identity("T54B", fam)
    assert r.status == "hypotheses-not-met"
    assert r.details["reason"] == (
        "member conjugate recession directions admit a nonzero zero sum"
    )


def test_l57_descriptions(fam_abs):
    r = check_identity("L57", fam_abs, {"x": [0], "eps": Q(1, 4)})
    assert r.status == "pass" and r.details["descriptions"] == 6


def test_member_hull_is_built_once_per_family(fam_abs, monkeypatch):
    calls = []
    real = family_module.cco_union

    def counting(parts):
        calls.append(len(parts))
        return real(parts)

    monkeypatch.setattr(family_module, "cco_union", counting)
    for ident in ("L2A", "L2C", "T54A"):
        assert check_identity(ident, fam_abs).status == "pass"
    assert calls == [2]


# x <= 0 and x >= 1: an identically +oo member
EMPTY_LINE = Polyhedron.from_hrep(1, [(qv(1), Q(0)), (qv(-1), Q(-1))])

IMPROPER_FAMILIES = {
    # increasing chain whose top member has an empty domain
    "improper-top": lambda: FunctionFamily.make(
        [("lo", PF(1, [(qv(1), Q(0)), (qv(-1), Q(0))])),
         ("hi", PF(1, [(qv(0), Q(0))], EMPTY_LINE))],
        order_edges=[("lo", "hi")], increasing=True,
    ),
    # an order edge with both ends improper
    "improper-edge": lambda: FunctionFamily.make(
        [("a", PF(1, [(qv(1), Q(0))], EMPTY_LINE)),
         ("b", PF(1, [(qv(0), Q(0))], EMPTY_LINE))],
        order_edges=[("a", "b")],
    ),
    # proper members whose domains do not meet: x on x <= 0, -x on x >= 1
    "disjoint-domains": lambda: FunctionFamily.make(
        [("a", PF(1, [(qv(1), Q(0))], Polyhedron.from_hrep(1, [(qv(1), Q(0))]))),
         ("b", PF(1, [(qv(-1), Q(0))], Polyhedron.from_hrep(1, [(qv(-1), Q(-1))])))],
    ),
}


@pytest.mark.parametrize("name", sorted(IMPROPER_FAMILIES))
def test_family_identities_report_on_improper_members(name):
    fam = IMPROPER_FAMILIES[name]()
    for ident, entry in identities.CATALOG.items():
        if entry.kind != "family":
            continue
        r = check_identity(ident, fam)
        assert r.status in ("hypotheses-not-met", "trivial-pass"), (ident, r.status)


class TestRobustInfimum:
    def test_robust_at_eps_one(self, fam_abs):
        box = Polyhedron.box(qv(-1), qv(1))
        r = check_identity("RINF", (fam_abs, box), {"eps": 1})
        assert r.status == "pass" and r.details["robust"] is True

    def test_not_robust_at_eps_zero(self, fam_abs):
        box = Polyhedron.box(qv(-1), qv(1))
        r = check_identity("RINF", (fam_abs, box), {"eps": 0})
        assert r.details["robust"] is False

    def test_maxmin_on_increasing_chain(self, chain6):
        box = Polyhedron.box(qv(-1), qv(1))
        r = check_identity("RINF", (chain6, box), {"eps": 0})
        assert r.status == "pass" and r.details["maxmin_checked"] is True


class TestValidation:
    def test_unknown_identity(self, fam_abs):
        with pytest.raises(InvalidParameterError, match="L2A"):
            check_identity("XXX", fam_abs)

    def test_unknown_parameter(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            check_identity("L2A", fam_abs, {"bogus": 1})

    def test_dual_points_is_not_a_parameter(self, fam_abs):
        with pytest.raises(InvalidParameterError, match="dual_points"):
            check_identity("L2B", fam_abs, {"dual_points": [[0]]})

    def test_wrong_instance_kind(self):
        boxes = [Polyhedron.box(qv(0), qv(1))]
        with pytest.raises(InvalidParameterError):
            check_identity("L2A", boxes)

    def test_negative_eps(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            check_identity("P34", fam_abs, {"x": [0], "eps": Q(-1)})

    def test_gamma_grid_must_be_positive(self, fam_abs):
        with pytest.raises(InvalidParameterError):
            check_identity("P34", fam_abs, {"x": [0], "gamma_grid": [Q(0)]})


def test_falsification_becomes_fail_report(fam_abs, monkeypatch):
    # the wrapper turns a falsification into a fail record with the
    # certificate attached, never an exception
    def sabotage(instance, params):
        raise IdentityFalsified("forced", certificate={"reason": "forced"})

    entry = identities.CATALOG["L2A"]
    monkeypatch.setitem(identities._CHECKERS, "L2A", sabotage)
    r = check_identity("L2A", fam_abs)
    assert r.status == "fail"
    assert r.witness == {"reason": "forced"}
    assert identities.CATALOG["L2A"] is entry


def test_reports_carry_timing(fam_abs):
    r = check_identity("L2B", fam_abs)
    assert r.elapsed >= 0.0
    assert r.identity == "L2B"
