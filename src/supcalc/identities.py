"""Executable catalog of supremum-calculus statements.

Each catalog entry binds a stable identifier to a checker that decides
one statement exactly on one instance: a finite family of max-affine
functions (optionally carrying an order), a list of polyhedra, or a
pair of a family and a constraint set.  A check reports

    pass                the statement held, certified exactly,
    fail                an exact counterexample was found,
    hypotheses-not-met  the instance misses a stated precondition,
    trivial-pass        nothing substantive was exercised.

Set equalities are decided by generator containment, values by exact
rational arithmetic.  Failures carry the offending point, direction, or
value pair so they can be replayed independently.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from .calculus import (
    SUM_MEMBER_CAP,
    DecompositionWitness,
    co_hull_conjugates,
    cones_sum_to_zero_trivially,
    conjugate_on_interior,
    decompose,
    eps_normal_intersection,
    inf_convolution_value,
    rhs_basic_covers,
    rhs_basic_level,
    rhs_basic_strict_margin,
    rhs_basic_within,
    sum_functions,
)
from .errors import (
    CapacityError,
    HypothesesNotMet,
    IdentityFalsified,
    InvalidParameterError,
    LPInternalError,
)
from .family import FunctionFamily
from .functions import PolyhedralFunction, eps_normal_set
from .lp import solve_min
from .polyhedron import (
    Polyhedron,
    affine_preimage,
    cco_union,
    cone_is_trivial,
    included,
    interior_point,
    intersect,
    minkowski_sum,
    missing_generator,
    polyhedron_equal,
    recession_cone,
)
from .rationals import (
    ExtendedRational,
    Vec,
    format_extended,
    rational,
    vec,
    zeros,
)
from .reports import CheckReport, CheckStatus
from .serialize import json_digest

GAMMA_GRID_DEFAULT = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 8),
    Fraction(1, 16),
)

# at most this many sampled dual points per value-level check
SAMPLE_CAP = 12


@dataclass(frozen=True)
class IdentityEntry:
    """One catalog row: stable id, readable summary, instance kind."""

    ident: str
    summary: str
    kind: str  # "family" | "sets" | "family+set"


# ---------------------------------------------------------------------
# instance and parameter plumbing
# ---------------------------------------------------------------------

def _as_family(instance: object) -> FunctionFamily:
    if not isinstance(instance, FunctionFamily):
        raise InvalidParameterError("this identity takes a function family")
    return instance


def _as_sets(instance: object) -> tuple[Polyhedron, ...]:
    if isinstance(instance, Polyhedron):
        return (instance,)
    if isinstance(instance, Sequence) and instance and all(
        isinstance(c, Polyhedron) for c in instance
    ):
        return tuple(instance)
    raise InvalidParameterError("this identity takes a nonempty list of polyhedra")


def _as_family_and_set(instance: object) -> tuple[FunctionFamily, Polyhedron]:
    if (
        isinstance(instance, tuple)
        and len(instance) == 2
        and isinstance(instance[0], FunctionFamily)
        and isinstance(instance[1], Polyhedron)
    ):
        return instance
    raise InvalidParameterError("this identity takes a (family, set) pair")


_PARAM_KEYS = ("x", "eps", "gamma_grid")


def _canon_params(params: Mapping[str, Any] | None) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if not params:
        return out
    for key, value in params.items():
        if key not in _PARAM_KEYS:
            raise InvalidParameterError(f"unknown check parameter {key!r}")
        if key == "x":
            out["x"] = vec(value)
        elif key == "eps":
            eps = rational(value)
            if eps < 0:
                raise InvalidParameterError("eps must be nonnegative")
            out["eps"] = eps
        else:
            grid = tuple(sorted({rational(g) for g in value}, reverse=True))
            if not grid or grid[-1] <= 0:
                raise InvalidParameterError("gamma grid entries must be positive")
            out["gamma_grid"] = grid
    return out


def _grid(params: Mapping[str, Any]) -> tuple[Fraction, ...]:
    return params.get("gamma_grid", GAMMA_GRID_DEFAULT)


def _proper_sup(family: FunctionFamily) -> PolyhedralFunction:
    f = family.sup
    if not f.is_proper:
        raise HypothesesNotMet("the member domains have empty intersection")
    return f


def _point_of(p: Polyhedron) -> Vec:
    c = interior_point(p)
    if c is not None:
        return c
    return p.vertices[0]


def _primal_point(family: FunctionFamily, params: Mapping[str, Any]) -> Vec:
    if "x" in params:
        return params["x"]
    return _point_of(_proper_sup(family).domain)


def _inward(v: Vec, c: Vec, theta: Fraction) -> Vec:
    return tuple((1 - theta) * a + theta * b for a, b in zip(v, c))


def _dedup(points: Sequence[Vec]) -> tuple[Vec, ...]:
    seen: set[Vec] = set()
    out: list[Vec] = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
        if len(out) == SAMPLE_CAP:
            break
    return tuple(out)


def _dual_samples(family: FunctionFamily) -> tuple[Vec, ...]:
    """Sample dual points: conjugate-domain vertices plus inward blends."""
    dom = _proper_sup(family).conjugate().domain
    c = interior_point(dom)
    pts: list[Vec] = list(dom.vertices)
    if c is not None:
        pts.append(c)
        pts += [_inward(v, c, Fraction(1, 8)) for v in dom.vertices]
    origin = zeros(family.dim)
    if dom.contains(origin):
        pts.append(origin)
    return _dedup(pts)


def _interior_dual_samples(dom: Polyhedron) -> tuple[Vec, ...]:
    c = interior_point(dom)
    if c is None:
        raise HypothesesNotMet("the conjugate domain has empty interior")
    pts = [c]
    for theta in (Fraction(1, 8), Fraction(1, 2)):
        pts += [_inward(v, c, theta) for v in dom.vertices]
    return _dedup(pts)


def _greatest_label(family: FunctionFamily) -> str | None:
    closure = family.order_closure
    for u in family.labels:
        if all((t, u) in closure for t in family.labels):
            return u
    return None


# ---------------------------------------------------------------------
# set-equality certificates
# ---------------------------------------------------------------------

def _require_equal(lhs: Polyhedron, rhs: Polyhedron, lhs_name: str, rhs_name: str) -> None:
    _require_included(lhs, rhs, lhs_name, rhs_name)
    _require_included(rhs, lhs, rhs_name, lhs_name)


def _require_included(p: Polyhedron, q: Polyhedron, p_name: str, q_name: str) -> None:
    gap = missing_generator(p, q)
    if gap is not None:
        raise IdentityFalsified(
            f"{p_name} is not contained in {q_name}",
            certificate={"missing_from": q_name, **gap},
        )


# ---------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------

Outcome = tuple[CheckStatus, object, dict[str, Any]]


def _conjugate_epigraph_hull(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Conjugate epigraph of the sup = hull of member conjugate epigraphs."""
    f = _proper_sup(family)
    target = f.conjugate().epigraph
    hull = family.conjugate_hull
    _require_equal(target, hull, "the supremum conjugate epigraph", "the member hull")
    return (
        CheckStatus.PASS,
        None,
        {"hull_vertices": len(hull.vertices), "hull_rays": len(hull.rays)},
    )


def _hull_support_cap(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Hull program value is insensitive to the dimension support cap."""
    _proper_sup(family)
    cap = min(family.dim + 1, len(family.labels))
    finite = infinite = 0
    for xs in _dual_samples(family):
        if co_hull_conjugates(family, xs, support_cap=cap).value.is_finite:
            finite += 1
        else:
            infinite += 1
    if finite == 0:
        return (
            CheckStatus.TRIVIAL_PASS,
            None,
            {"finite_samples": 0, "infinite_samples": infinite},
        )
    return (
        CheckStatus.PASS,
        None,
        {"finite_samples": finite, "infinite_samples": infinite, "support_cap": cap},
    )


def _conjugate_hull_envelope(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Conjugate of the sup = closed convex envelope of member conjugates."""
    f = _proper_sup(family)
    fstar = f.conjugate()
    target = fstar.epigraph
    _require_equal(target, family.conjugate_hull, "the supremum conjugate epigraph",
                   "the envelope epigraph")
    audited = 0
    for xs in _dual_samples(family):
        direct = f.conjugate_eval(xs)
        envelope = co_hull_conjugates(family, xs).value
        if direct != envelope:
            raise IdentityFalsified(
                f"envelope value {format_extended(envelope)} differs from conjugate "
                f"value {format_extended(direct)}",
                certificate={"point": xs, "conjugate": format_extended(direct),
                             "envelope": format_extended(envelope)},
            )
        audited += 1
    return (CheckStatus.PASS, None, {"value_samples": audited})


def _increasing_union_convex(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """For an increasing family the union of conjugate epigraphs is convex."""
    if not family.verify_increasing():
        raise HypothesesNotMet("the family is not verifiably increasing")
    top = _greatest_label(family)
    if top is None:
        raise HypothesesNotMet("the order has no greatest member")
    _proper_sup(family)
    epis = {t: family.member(t).conjugate().epigraph for t in family.labels}
    for t in family.labels:
        _require_included(
            epis[t],
            epis[top],
            f"the conjugate epigraph of member {t!r}",
            f"that of the top member {top!r}",
        )
    _require_equal(
        family.conjugate_hull, epis[top],
        "the hull of conjugate epigraphs", "the top conjugate epigraph",
    )
    return (CheckStatus.PASS, None, {"top": top, "members": len(family.labels)})


def _epi_pointed_propagation(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """A dominated epi-pointed member forces epi-pointedness above it."""
    edges = sorted(
        (lo, hi) for lo, hi in family.order_closure if lo != hi
    )
    if not edges:
        return (CheckStatus.TRIVIAL_PASS, None, {"edges": 0})
    exercised = 0
    for lo, hi in edges:
        f_lo, f_hi = family.member(lo), family.member(hi)
        # the declared edge means f_lo <= f_hi pointwise
        if not included(f_hi.epigraph, f_lo.epigraph):
            raise HypothesesNotMet(f"order edge {lo!r} <= {hi!r} fails pointwise")
        if not f_hi.is_proper or f_lo.is_epi_pointed() is None:
            continue
        if f_hi.is_epi_pointed() is None:
            raise IdentityFalsified(
                f"member {hi!r} dominates the epi-pointed member {lo!r} "
                "but is not epi-pointed",
                certificate={"edge": (lo, hi)},
            )
        exercised += 1
    if exercised == 0:
        return (CheckStatus.TRIVIAL_PASS, None, {"edges": len(edges), "exercised": 0})
    return (CheckStatus.PASS, None, {"edges": len(edges), "exercised": exercised})


def _conjugate_interior_cover(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Interiors of member conjugate domains cover the conjugate interior."""
    f = _proper_sup(family)
    fstar = f.conjugate()
    dom_star = fstar.domain
    doms = {t: family.member(t).conjugate().domain for t in family.labels}
    for t in family.labels:
        _require_included(
            doms[t], dom_star,
            f"the conjugate domain of member {t!r}", "the supremum conjugate domain",
        )
    if not family.verify_increasing():
        raise HypothesesNotMet("the family is not verifiably increasing")
    for t in family.labels:
        if family.member(t).is_epi_pointed() is None:
            raise HypothesesNotMet(f"member {t!r} is not epi-pointed")
    top = _greatest_label(family)
    if top is None:
        raise HypothesesNotMet("the order has no greatest member")
    _require_equal(dom_star, doms[top], "the supremum conjugate domain",
                   f"the conjugate domain of the top member {top!r}")
    epis = {t: family.member(t).conjugate().epigraph for t in family.labels}
    _require_equal(fstar.epigraph, epis[top], "the supremum conjugate epigraph",
                   f"the conjugate epigraph of the top member {top!r}")
    c = interior_point(dom_star)
    if c is None:
        raise LPInternalError("epi-pointed members force a nonempty interior")
    samples = _dedup([c] + [_inward(v, c, Fraction(1, 8)) for v in dom_star.vertices])
    for s in samples:
        if not any(doms[t].contains_in_interior(s) for t in family.labels):
            raise IdentityFalsified(
                "an interior conjugate-domain point misses every member interior",
                certificate={"point": s},
            )
    # same coverage audit one level up, on the conjugate epigraphs
    lift = tuple(c) + (fstar.eval_finite(c) + 1,)
    epi_samples = _dedup(
        [lift] + [_inward(v, lift, Fraction(1, 8)) for v in fstar.epigraph.vertices]
    )
    for s in epi_samples:
        if not any(epis[t].contains_in_interior(s) for t in family.labels):
            raise IdentityFalsified(
                "an interior conjugate-epigraph point misses every member interior",
                certificate={"point": s},
            )
    return (
        CheckStatus.PASS,
        None,
        {"top": top, "domain_samples": len(samples), "epigraph_samples": len(epi_samples)},
    )


def _subdiff_grid_representation(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Scaled-subgradient set equals the subdifferential budget by budget.

    Each grid value's level of the lifted representation, at budget
    eps + gamma, is read off the family's conjugate hull with no LP
    (``rhs_basic_level``), and it is sandwiched against the
    (eps + gamma)-subdifferential from both sides, which finds the
    failing level and its witness.  The budgets are certified nested,
    and the gamma = 0 instance pins the represented set to the target
    exactly.  A positive strict margin per level certifies that the
    open form of the budget and activity rows is nonempty, so relaxing
    them to closed rows only adds the closure.  Every level's margin is
    min(1, budget), with no LP: the least feasible budget is 0, since an
    active member's subgradient meets both rows at budget 0
    (``rhs_basic_strict_margin``).
    """
    f = _proper_sup(family)
    x = _primal_point(family, params)
    if not f.domain.contains(x):
        raise HypothesesNotMet("x lies outside the domain of the supremum")
    eps = params.get("eps", Fraction(0))
    gammas = (Fraction(0),) + tuple(sorted(_grid(params)))
    targets = [f.eps_subdifferential(x, eps + gamma) for gamma in gammas]
    margins: dict[str, Fraction] = {}
    for gamma, target in zip(gammas, targets):
        budget = eps + gamma
        level = rhs_basic_level(family, x, budget)
        gap = rhs_basic_covers(level, target)
        if gap is not None:
            raise IdentityFalsified(
                "a subdifferential generator is unreachable at its own budget",
                certificate={"gamma": gamma, **gap},
            )
        if not rhs_basic_within(level, target):
            raise IdentityFalsified(
                "the represented set overshoots the subdifferential",
                certificate={"gamma": gamma, "budget": budget},
            )
        if budget > 0:
            margins[str(gamma)] = rhs_basic_strict_margin(family, x, budget)
    for small, large in zip(targets, targets[1:]):
        _require_included(small, large, "a smaller-budget subdifferential",
                          "the next budget level")
    degenerate = [g for g, m in margins.items() if m == 0]
    return (
        CheckStatus.PASS,
        None,
        {
            "eps": eps,
            "levels": len(gammas),
            "strict_margins": margins,
            "degenerate_strict_levels": degenerate,
        },
    )


def _increasing_conjugate_min(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Conjugate of an increasing epi-pointed sup is the member minimum."""
    f = _proper_sup(family)
    dom_star = f.conjugate().domain
    samples = _interior_dual_samples(dom_star)
    values = []
    for xs in samples:
        # self-verifying: raises on any mismatch with the direct conjugate
        values.append(format_extended(conjugate_on_interior(family, xs)))
    return (CheckStatus.PASS, None, {"samples": len(samples), "values": values})


def _sum_conjugate_convolution(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Conjugate of a finite sum equals the member-conjugate convolution."""
    members = [f for _, f in family.members]
    if len(members) > SUM_MEMBER_CAP:
        raise HypothesesNotMet(
            f"sums are materialized for at most {SUM_MEMBER_CAP} members"
        )
    for t, f_t in family.members:
        if not f_t.is_proper:
            raise HypothesesNotMet(f"member {t!r} is identically +oo")
        if f_t.is_epi_pointed() is None:
            raise HypothesesNotMet(f"member {t!r} is not epi-pointed")
    try:
        total = sum_functions(members)
    except CapacityError as exc:
        raise HypothesesNotMet(str(exc)) from exc
    if not total.is_proper:
        raise HypothesesNotMet("the member domains have empty intersection")
    if total.is_epi_pointed() is None:
        raise HypothesesNotMet("the sum is not epi-pointed")
    dom_star = total.conjugate().domain
    samples = _interior_dual_samples(dom_star)
    conjugates = [f.conjugate() for f in members]
    for xs in samples:
        direct = total.conjugate_eval(xs)
        folded = inf_convolution_value(conjugates, xs)
        if direct != folded:
            raise IdentityFalsified(
                f"convolution value {format_extended(folded)} differs from the sum "
                f"conjugate {format_extended(direct)}",
                certificate={"point": xs, "conjugate": format_extended(direct),
                             "convolution": format_extended(folded)},
            )
    return (CheckStatus.PASS, None, {"samples": len(samples), "members": len(members)})


def _chain_order(family: FunctionFamily) -> list[str]:
    closure = family.order_closure
    for a in family.labels:
        for b in family.labels:
            if (a, b) not in closure and (b, a) not in closure:
                raise HypothesesNotMet("the order is not a chain")
    return sorted(
        family.labels, key=lambda t: sum((u, t) in closure for u in family.labels)
    )


def _truncated_chain_subdiff(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Tail representation of the subdifferential along a finite chain.

    A finite increasing chain stands in for an increasing sequence cut
    at a horizon.  The tail unions collapse onto the last member when
    the member subdifferentials nest at every budget level; an
    increasing chain does not imply that, so it is a stated hypothesis.
    The subdifferential of the supremum must then agree with the top
    member at the exact budget.  The recorded stage gap lists supremum
    subgradients that no earlier member reaches, the finite trace of why
    the limit needs a closure.
    """
    if not family.verify_increasing():
        raise HypothesesNotMet("the family is not verifiably increasing")
    chain = _chain_order(family)
    f = _proper_sup(family)
    x = _primal_point(family, params)
    if not f.domain.contains(x):
        raise HypothesesNotMet("x lies outside the domain of the supremum")
    eps = params.get("eps", Fraction(0))
    top = chain[-1]
    target = f.eps_subdifferential(x, eps)
    gammas = (Fraction(0),) + tuple(sorted(_grid(params)))
    # levels[k][i]: the subdifferential of chain[i] at budget eps + gammas[k],
    # each level checked for nesting before the next is built
    levels = []
    for gamma in gammas:
        budget = eps + gamma
        sets = [family.member(t).eps_subdifferential(x, budget) for t in chain]
        levels.append(sets)
        for t, u, small, large in zip(chain, chain[1:], sets, sets[1:]):
            if not included(small, large):
                raise HypothesesNotMet(
                    f"the {budget}-subdifferential of member {t!r} is not "
                    f"contained in that of its successor {u!r}"
                )
    _require_equal(target, levels[0][-1], "the supremum subdifferential",
                   f"that of the top member {top!r}")
    # budget monotonicity on the top member across the grid
    top_sets = [sets[-1] for sets in levels]
    for small, large in zip(top_sets, top_sets[1:]):
        _require_included(small, large, "a smaller-budget subdifferential",
                          "the next budget level")
    prefix = levels[0][:-1]
    gap = [
        v for v in target.vertices if not any(p.contains(v) for p in prefix)
    ]
    return (
        CheckStatus.PASS,
        None,
        {
            "chain": chain,
            "eps": eps,
            "stage_gap_vertices": gap,
            "strict_stage_gap": bool(gap),
        },
    )


def _scaled_level(unit: Polyhedron, budget: Fraction) -> Polyhedron:
    """budget times a unit level that holds 0, so its equalities are homogeneous;
    at budget 0 that is its recession cone."""
    return Polyhedron.from_hrep(unit.dim, [(a, budget * b) for a, b in unit.ineqs], unit.eqs)


def _intersection_normal_split(
    sets: tuple[Polyhedron, ...], params: Mapping[str, Any]
) -> Outcome:
    """Approximate normals of an intersection split across the sets."""
    common = sets[0]
    for c in sets[1:]:
        common = intersect(common, c)
    x = params.get("x")
    if x is None:
        interior_point(common)  # its max-slack LP settles is_empty as well
    if common.is_empty:
        raise HypothesesNotMet("the sets have empty intersection")
    if x is None:
        x = _point_of(common)
    if not common.contains(x):
        raise HypothesesNotMet("x lies outside the intersection")
    eps = params.get("eps", Fraction(0))
    lhs = eps_normal_set(common, x, eps)
    # every level is the unit level scaled by its budget, so one conversion
    unit = eps_normal_intersection(sets, x, 1)
    _require_equal(lhs, _scaled_level(unit, eps), "the normal set of the intersection",
                   "the split-budget sum")
    previous = lhs
    for gamma in sorted(_grid(params)):
        relaxed = _scaled_level(unit, eps + gamma)
        _require_included(previous, relaxed, "a tighter-budget normal sum",
                          "the next budget level")
        previous = relaxed
    return (CheckStatus.PASS, None, {"sets": len(sets), "eps": eps})


def _decomposition_targets(target: Polyhedron) -> list[Vec]:
    points = list(target.vertices)
    base = points[0]
    points += [tuple(b + r for b, r in zip(base, ray)) for ray in target.rays]
    return points


def _relaxed_decomposition(
    family: FunctionFamily, x: Vec, eps: Fraction, point: Vec, gamma: Fraction
) -> DecompositionWitness:
    witness = decompose(family, x, eps, point, "T52", gamma=gamma)
    if witness is None:
        raise IdentityFalsified(
            "no relaxed decomposition reaches a subgradient",
            certificate={"point": point, "gamma": gamma},
        )
    return witness


def _decomposition_check(
    family: FunctionFamily, params: Mapping[str, Any], mode: str
) -> Outcome:
    """Decompose every target point: a vertex of the eps-subdifferential
    of the supremum, or its first vertex plus a ray.

    T52 must decompose each point at every grid gamma and counts the
    points that decompose at gamma = 0 as well.  With lambda_t >= 0,
    gamma enters only two rows of the decomposition LP and loosens both:
    u_t + lambda_t f_t(x) - <y_t, x> <= e_t + lambda_t gamma, and
    lambda_t (f(x) - f_t(x) - gamma) <= e_t.  So a decomposition at
    gamma = 0 is one at every gamma > 0, and a point that decomposes at
    gamma = 0 needs no grid value solved.  Only the first point solves
    the largest gamma first, because its witness is the report's; a
    point that fails at gamma = 0 runs the rest of the grid from the
    largest value down and fails at the first infeasible one.  The
    report is the one a full-grid loop gives: the witness, the zero-gamma
    count, and the point and gamma of any falsification.
    """
    f = _proper_sup(family)
    x = _primal_point(family, params)
    if not f.domain.contains(x):
        raise HypothesesNotMet("x lies outside the domain of the supremum")
    eps = params.get("eps", Fraction(0))
    # x lies in dom f, so the target holds the subdifferential there: never empty
    points = _decomposition_targets(f.eps_subdifferential(x, eps))
    first = None
    sizes: list[int] = []
    zero_gamma_hits = 0
    for point in points:
        if mode == "T52":
            grid = sorted(_grid(params), reverse=True)
            if first is None:
                first = _relaxed_decomposition(family, x, eps, point, grid.pop(0))
            if decompose(family, x, eps, point, mode, gamma=0) is not None:
                zero_gamma_hits += 1
                continue
            for gamma in grid:
                _relaxed_decomposition(family, x, eps, point, gamma)
            continue
        witness = decompose(family, x, eps, point, mode)
        if witness is None:
            raise IdentityFalsified(
                "no decomposition reaches a subgradient",
                certificate={"point": point},
            )
        if mode == "R54":
            weight_labels = set(witness.lam.support)
            normal_labels = {t for t, _ in witness.normal_parts}
            if weight_labels & normal_labels:
                raise IdentityFalsified(
                    "weight and normal supports overlap",
                    certificate={"point": point,
                                 "labels": sorted(weight_labels & normal_labels)},
                )
            size = len(weight_labels) + len(normal_labels)
            if size > family.dim + 1:
                raise IdentityFalsified(
                    "the decomposition support exceeds dim + 1",
                    certificate={"point": point, "size": size},
                )
            sizes.append(size)
        if first is None:
            first = witness
    details: dict[str, Any] = {"eps": eps, "targets": len(points)}
    if mode == "T52":
        details["zero_gamma_hits"] = zero_gamma_hits
    if mode == "R54" and sizes:
        details["max_support"] = max(sizes)
    return (CheckStatus.PASS, first, details)


def _conjugate_epi_recession_sum(
    family: FunctionFamily, params: Mapping[str, Any]
) -> Outcome:
    """Conjugate epigraph = member hull + its own recession cone."""
    f = _proper_sup(family)
    fstar = f.conjugate()
    if fstar.is_epi_pointed() is None:
        raise HypothesesNotMet("the conjugate of the supremum is not epi-pointed")
    target = fstar.epigraph
    assembled = minkowski_sum(family.conjugate_hull, recession_cone(target))
    _require_equal(target, assembled, "the supremum conjugate epigraph",
                   "the hull-plus-recession assembly")
    # the same assembly from the primal member epigraphs, recorded only
    primal_hull = cco_union([family.member(t).epigraph for t in family.labels])
    primal_variant = minkowski_sum(primal_hull, recession_cone(target))
    return (
        CheckStatus.PASS,
        None,
        {"primal_epigraph_variant_equal": polyhedron_equal(target, primal_variant)},
    )


def _conjugate_epi_cone_sum(family: FunctionFamily, params: Mapping[str, Any]) -> Outcome:
    """Conjugate epigraph = member hull + hull of member recession cones.

    Requires the zero-sum condition: picking one recession direction of
    each member conjugate epigraph, a zero total forces every pick to
    be zero.  Checked as triviality of a product cone.
    """
    f = _proper_sup(family)
    recs = [recession_cone(f_t.conjugate().epigraph) for _, f_t in family.members]
    if not cones_sum_to_zero_trivially(recs):
        raise HypothesesNotMet(
            "member conjugate recession directions admit a nonzero zero sum"
        )
    assembled = minkowski_sum(family.conjugate_hull, cco_union(recs))
    _require_equal(f.conjugate().epigraph, assembled,
                   "the supremum conjugate epigraph", "the two-hull assembly")
    return (CheckStatus.PASS, None, {"members": len(recs)})


def _graph_generators(fstar: PolyhedralFunction) -> tuple[list[Vec], list[Vec]]:
    """Generators of the hull of the graph of a conjugate function.

    Epigraph generator points are dropped to their function values and
    vertical rays are removed; what remains generates exactly the
    closed convex hull of the graph.
    """
    n = fstar.dim
    verts, rays = fstar.epigraph.generators
    pts = [tuple(v[:n]) + (fstar.eval_finite(v[:n]),) for v in verts]
    dirs = [r for r in rays if any(c != 0 for c in r[:n])]
    return pts, dirs


def _domain_normal_descriptions(
    family: FunctionFamily, params: Mapping[str, Any]
) -> Outcome:
    """Six equivalent descriptions of the domain's approximate normals.

    Each description realizes { x* : (x*, <x*,x> + eps) in S } for a
    different lifted set S: the epigraph of the domain support
    function, two recession cones, and three graph-based assemblies.
    All are pulled back through the same affine map and compared to the
    definitional normal set.
    """
    f = _proper_sup(family)
    x = _primal_point(family, params)
    if not f.domain.contains(x):
        raise HypothesesNotMet("x lies outside the domain of the supremum")
    eps = params.get("eps", Fraction(0))
    n = family.dim
    fstar = f.conjugate()
    conj = {t: family.member(t).conjugate() for t in family.labels}
    reference = eps_normal_set(f.domain, x, eps)

    verts, rays = f.domain.generators
    rows = [(tuple(v) + (Fraction(-1),), Fraction(0)) for v in verts]
    rows += [(tuple(r) + (Fraction(0),), Fraction(0)) for r in rays]
    support_epi = Polyhedron.from_hrep(n + 1, rows)

    conj_epis = [conj[t].epigraph for t in family.labels]
    graph_pts: list[Vec] = []
    graph_dirs: list[Vec] = []
    for t in family.labels:
        pts, dirs = _graph_generators(conj[t])
        graph_pts += pts
        graph_dirs += dirs
    origin = zeros(n + 1)
    segment = Polyhedron.from_generators(n + 1, [origin, zeros(n) + (eps,)])
    vertical = Polyhedron.from_generators(n + 1, [origin], [zeros(n) + (Fraction(1),)])

    lifted = [
        ("support-epigraph", support_epi),
        ("conjugate-recession", recession_cone(fstar.epigraph)),
        ("hull-recession", recession_cone(family.conjugate_hull)),
        ("graph-recession", minkowski_sum(
            recession_cone(Polyhedron.from_generators(n + 1, graph_pts, graph_dirs)),
            segment,
        )),
        ("hull-with-vertical", recession_cone(cco_union(conj_epis + [vertical]))),
        ("graph-with-origin", minkowski_sum(
            recession_cone(
                Polyhedron.from_generators(n + 1, graph_pts + [origin], graph_dirs)
            ),
            segment,
        )),
    ]
    matrix = [
        tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)
    ] + [x]
    offset = zeros(n) + (eps,)
    for name, s in lifted:
        pulled = affine_preimage(s, matrix, offset)
        gap = missing_generator(reference, pulled)
        if gap is not None:
            raise IdentityFalsified(
                f"the {name} description misses a normal vector",
                certificate={"description": name, **gap},
            )
        gap = missing_generator(pulled, reference)
        if gap is not None:
            raise IdentityFalsified(
                f"the {name} description adds a spurious normal vector",
                certificate={"description": name, **gap},
            )
    return (CheckStatus.PASS, None, {"descriptions": len(lifted), "eps": eps})


def _inf_over(g: PolyhedralFunction, b_set: Polyhedron) -> ExtendedRational:
    """Exact infimum of a max-affine function over a polyhedron."""
    n = g.dim
    ineqs = list(g.epigraph.ineqs)
    eqs = list(g.epigraph.eqs)
    ineqs += [(tuple(a) + (Fraction(0),), c) for a, c in b_set.ineqs]
    eqs += [(tuple(a) + (Fraction(0),), c) for a, c in b_set.eqs]
    obj = zeros(n) + (Fraction(1),)
    return solve_min(obj, ineqs, eqs).optimum


def _robust_infimum(
    pair: tuple[FunctionFamily, Polyhedron], params: Mapping[str, Any]
) -> Outcome:
    """Robust-infimum value, subgradient membership, and max-min equality.

    A point is an eps-robust infimum when the supremum value there is
    within eps of the best member infimum.  That forces a member whose
    shifted subdifferential contains zero; the converse is asserted on
    instances where every member attains the supremum value at x.  When
    the family is increasing and some member is inf-compact over the
    set, the max-min and min-max values must agree exactly.
    """
    family, b_set = pair
    if b_set.is_empty:
        raise HypothesesNotMet("the constraint set is empty")
    f = _proper_sup(family)
    feasible = intersect(b_set, f.domain)
    x = params.get("x")
    if x is None:
        interior_point(feasible)  # its max-slack LP settles is_empty as well
        if feasible.is_empty:
            raise HypothesesNotMet("the constraint set misses the domain")
        x = _point_of(feasible)
    if not b_set.contains(x):
        raise HypothesesNotMet("x lies outside the constraint set")
    fx = f.eval(x)
    if not fx.is_finite:
        raise HypothesesNotMet("the supremum is not finite at x")
    fx = fx.finite_value()
    eps = params.get("eps", Fraction(0))

    iotas = {t: _inf_over(family.member(t), b_set) for t in family.labels}
    sup_inf = max(iotas.values())
    inf_sup = _inf_over(f, b_set)
    if not (sup_inf <= inf_sup):
        raise IdentityFalsified(
            "a member infimum exceeds the supremum infimum",
            certificate={"sup_inf": format_extended(sup_inf),
                         "inf_sup": format_extended(inf_sup)},
        )

    robust = ExtendedRational.finite(fx) <= sup_inf + ExtendedRational.finite(eps)
    member_hits = [
        t
        for t in family.labels
        if iotas[t].is_finite
        and family.member(t).eval(x).is_finite
        and family.member(t).eval(x).finite_value() <= iotas[t].finite_value() + eps
    ]
    membership = bool(member_hits)
    if robust and not membership:
        raise IdentityFalsified(
            "a robust infimum admits no member subgradient certificate",
            certificate={"x": x, "eps": eps,
                         "iotas": {t: format_extended(v) for t, v in iotas.items()}},
        )
    values = {t: family.member(t).eval(x) for t in family.labels}
    equal_values = all(
        v.is_finite and v.finite_value() == fx for v in values.values()
    )
    if equal_values and membership and not robust:
        raise IdentityFalsified(
            "membership fails to force robustness on an equal-values instance",
            certificate={"x": x, "eps": eps, "sup_inf": format_extended(sup_inf)},
        )

    maxmin_checked = False
    if family.verify_increasing():
        witness_t = _inf_compact_member(family, b_set)
        if witness_t is not None:
            if sup_inf != inf_sup:
                raise IdentityFalsified(
                    "max-min and min-max values differ on a compact instance",
                    certificate={
                        "member": witness_t,
                        "sup_inf": format_extended(sup_inf),
                        "inf_sup": format_extended(inf_sup),
                    },
                )
            maxmin_checked = True

    exercised = robust or (equal_values and membership) or maxmin_checked
    details = {
        "eps": eps,
        "robust": robust,
        "member_hits": member_hits,
        "equal_values": equal_values,
        "maxmin_checked": maxmin_checked,
        "sup_inf": format_extended(sup_inf),
        "inf_sup": format_extended(inf_sup),
    }
    status = CheckStatus.PASS if exercised else CheckStatus.TRIVIAL_PASS
    return (status, None, details)


def _inf_compact_member(family: FunctionFamily, b_set: Polyhedron) -> str | None:
    """A member whose sublevel sets meet the set in bounded slices.

    Certified by triviality of the cone of recession directions of the
    set on which the member's recession function is nonpositive.
    """
    rec_b = recession_cone(b_set)
    for t in family.labels:
        h = family.member(t).recession_function()
        ineqs = [(a, Fraction(0)) for a, _ in h.pieces]
        ineqs += list(h.domain.ineqs) + list(rec_b.ineqs)
        eqs = list(h.domain.eqs) + list(rec_b.eqs)
        if cone_is_trivial(family.dim, ineqs, eqs):
            return t
    return None


# ---------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------

_ENTRIES: tuple[tuple[IdentityEntry, Callable[..., Outcome]], ...] = (
    (IdentityEntry(
        "L2A",
        "conjugate epigraph of the supremum equals the closed convex hull "
        "of the member conjugate epigraphs",
        "family",
    ), _conjugate_epigraph_hull),
    (IdentityEntry(
        "L2B",
        "hull program value is unchanged when the weight support is capped "
        "at min(dim + 1, members)",
        "family",
    ), _hull_support_cap),
    (IdentityEntry(
        "L2C",
        "conjugate of the supremum equals the closed convex envelope of "
        "the member conjugates, as sets and as values",
        "family",
    ), _conjugate_hull_envelope),
    (IdentityEntry(
        "L2D",
        "for an increasing family the union of member conjugate epigraphs "
        "is already closed and convex",
        "family",
    ), _increasing_union_convex),
    (IdentityEntry(
        "L2E",
        "epi-pointedness propagates upward along order edges",
        "family",
    ), _epi_pointed_propagation),
    (IdentityEntry(
        "L2F",
        "interiors of member conjugate domains cover the interior of the "
        "supremum conjugate domain",
        "family",
    ), _conjugate_interior_cover),
    (IdentityEntry(
        "P34",
        "scaled-subgradient representation of the eps-subdifferential, "
        "certified budget by budget over the gamma grid",
        "family",
    ), _subdiff_grid_representation),
    (IdentityEntry(
        "T41",
        "conjugate of an increasing epi-pointed supremum is the member "
        "minimum at interior dual points",
        "family",
    ), _increasing_conjugate_min),
    (IdentityEntry(
        "C42",
        "conjugate of a finite sum equals the inf-convolution of the "
        "member conjugates at interior dual points",
        "family",
    ), _sum_conjugate_convolution),
    (IdentityEntry(
        "T44",
        "tail representation of the eps-subdifferential along a truncated "
        "increasing chain, with the stage gap recorded",
        "family",
    ), _truncated_chain_subdiff),
    (IdentityEntry(
        "C46",
        "approximate normals of an intersection split into per-set "
        "normal budgets",
        "sets",
    ), _intersection_normal_split),
    (IdentityEntry(
        "T52",
        "eps-subgradients split into scaled member subgradients plus a "
        "pooled domain normal, relaxed over the gamma grid",
        "family",
    ), partial(_decomposition_check, mode="T52")),
    (IdentityEntry(
        "T53",
        "eps-subgradients split with exact activity and per-member "
        "domain normals",
        "family",
    ), partial(_decomposition_check, mode="T53")),
    (IdentityEntry(
        "R54",
        "decomposition with disjoint weight and normal supports of total "
        "size at most dim + 1",
        "family",
    ), partial(_decomposition_check, mode="R54")),
    (IdentityEntry(
        "T54A",
        "conjugate epigraph equals the member hull plus its own recession "
        "cone when the conjugate is epi-pointed",
        "family",
    ), _conjugate_epi_recession_sum),
    (IdentityEntry(
        "T54B",
        "conjugate epigraph equals the member hull plus the hull of member "
        "recession cones under the zero-sum condition",
        "family",
    ), _conjugate_epi_cone_sum),
    (IdentityEntry(
        "L57",
        "six equivalent descriptions of the approximate normal set of the "
        "supremum domain",
        "family",
    ), _domain_normal_descriptions),
    (IdentityEntry(
        "RINF",
        "robust-infimum value, member subgradient membership, and the "
        "max-min equality on compact instances",
        "family+set",
    ), _robust_infimum),
)

CATALOG: dict[str, IdentityEntry] = {e.ident: e for e, _ in _ENTRIES}
_CHECKERS: dict[str, Callable[..., Outcome]] = {e.ident: fn for e, fn in _ENTRIES}


def identity_ids() -> tuple[str, ...]:
    return tuple(CATALOG)


def check_identity(
    ident: str,
    instance: object,
    params: Mapping[str, Any] | None = None,
) -> CheckReport:
    """Run one catalog checker and wrap the outcome in a report.

    Hypothesis failures and exact falsifications raised by the checker
    become report statuses; anything else propagates as an engine error.
    """
    entry = CATALOG.get(ident)
    if entry is None:
        raise InvalidParameterError(
            f"unknown identity {ident!r}; valid ids: {', '.join(CATALOG)}"
        )
    canon = _canon_params(params)
    if entry.kind == "family":
        payload: object = _as_family(instance)
    elif entry.kind == "sets":
        payload = _as_sets(instance)
    else:
        payload = _as_family_and_set(instance)
    digest = json_digest([ident, payload, canon])
    start = time.perf_counter()
    try:
        status, witness, details = _CHECKERS[ident](payload, canon)
    except HypothesesNotMet as exc:
        return CheckReport(
            ident, digest, CheckStatus.HYPOTHESES_NOT_MET,
            details={"reason": str(exc)},
            elapsed=time.perf_counter() - start,
        )
    except IdentityFalsified as exc:
        return CheckReport(
            ident, digest, CheckStatus.FAIL,
            witness=exc.certificate,
            details={"reason": str(exc)},
            elapsed=time.perf_counter() - start,
        )
    return CheckReport(
        ident, digest, status, witness=witness, details=details,
        elapsed=time.perf_counter() - start,
    )
