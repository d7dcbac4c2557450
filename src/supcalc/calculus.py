"""Supremum calculus: conjugates, subdifferential decompositions, sums.

Everything here reduces to linear programs over one recurring gadget,
the perspective linearization.  The bilinear condition

    x*_t  belongs to  the (e_t / lambda_t)-subdifferential of f_t at x

becomes linear in the scaled variables y_t = lambda_t x*_t: writing
g = f*_t with epigraph rows  C (y, s) <= h, the perspective constraint
is  C (y_t, u_t) <= h * lambda_t  together with

    u_t + lambda_t f_t(x) - <y_t, x> <= e_t.

At lambda_t = 0 the homogenized rows describe the recession cone of
epi g, whose lower envelope is the support function of dom f_t; such a
residual is therefore an approximate normal vector to dom f_t at x and
is folded into the normal part of any witness.

Set-valued results (the basic-formula right-hand side, sums of
approximate normal sets) are built one budget at a time in the answer
space, with no LP: the first as a preimage of the family's conjugate
hull, the second from the sets' rows as one generator form.  Their
lifted systems live in the tests alone, where an LP projection of each
is the independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapacityError,
    DimensionMismatchError,
    HypothesesNotMet,
    IdentityFalsified,
    InvalidParameterError,
    LPInternalError,
)
from .family import FunctionFamily
from .functions import PolyhedralFunction, normal_cone
from .lp import LPStatus, Row, solve_min
from .polyhedron import (
    Polyhedron,
    affine_preimage,
    cone_is_trivial,
    included,
    intersect,
    interior_point,
    missing_generator,
    support_value,
)
from .rationals import (
    ExtendedRational,
    Vec,
    dot,
    rational,
    vec,
    zeros,
)

SUM_MEMBER_CAP = 3
SUM_PIECE_CAP = 200


# ============================================================
# Lifted LP rows
# ============================================================
# Each lifted LP fixes its variable layout first, as blocks at known
# offsets in a system of ``width`` variables, and writes dense rows once.

def _row(width: int, entries: Mapping[int, Fraction]) -> Vec:
    """The row of the given width with the given entries and 0 elsewhere."""
    row = [0] * width
    for j, c in entries.items():
        row[j] = c
    return tuple(row)


def _placed(rows: Sequence[Row], at: int, width: int, lam: int | None = None) -> list[Row]:
    """The rows on the variables from ``at`` on, homogenized by ``lam`` if given."""
    placed = []
    for coef, h in rows:
        row = [0] * width
        row[at:at + len(coef)] = coef
        if lam is not None:
            row[lam], h = -h, 0
        placed.append((tuple(row), h))
    return placed


def _sum_rows(blocks: Sequence[int], n: int, width: int) -> list[Vec]:
    """Rows of the map adding the n-vectors that start at the given offsets."""
    return [_row(width, {at + j: 1 for at in blocks}) for j in range(n)]


def _perspective_block(
    f_t: PolyhedralFunction, at: int, width: int
) -> tuple[list[Row], list[Row]]:
    """Rows putting (y_t, u_t, lambda_t), from ``at`` on, in the homogenized
    epigraph of f*_t with lambda_t >= 0: (inequalities, equalities)."""
    epi, lam = f_t.conjugate().epigraph, at + f_t.dim + 1
    ineqs = _placed(epi.ineqs, at, width, lam) + [(_row(width, {lam: -1}), 0)]
    return ineqs, _placed(epi.eqs, at, width, lam)


def _subgradient_row(x: Vec, ft_x: Fraction, at: int, e: int, width: int,
                     gamma: Fraction = Fraction(0)) -> Row:
    """u_t + lambda_t f_t(x) - <y_t, x> <= e_t + lambda_t gamma for the
    perspective block at ``at``, given ft_x = f_t(x)."""
    n = len(x)
    entries = dict(enumerate((-xj for xj in x), at))
    entries.update({at + n: 1, at + n + 1: ft_x - gamma, e: -1})
    return _row(width, entries), 0


def _scaled_split(
    sol: Vec, blocks: Mapping[str, int], n: int
) -> tuple[list[tuple[str, Vec]], list[tuple[str, Vec]]]:
    """Points y_t / lambda_t where lambda_t > 0, nonzero y_t where lambda_t = 0,
    for the perspective blocks (y_t, u_t, lambda_t) at the given offsets."""
    points, directions = [], []
    for t, at in blocks.items():
        y_t, lam = sol[at:at + n], sol[at + n + 1]
        if lam > 0:
            points.append((t, tuple(c / lam for c in y_t)))
        elif any(c != 0 for c in y_t):
            directions.append((t, y_t))
    return points, directions


def _normal_block(dom: Polyhedron, x: Vec, at: int, width: int) -> list[Row]:
    """Rows putting z, from ``at`` on, into the eta-approximate normal set
    of dom at x, with eta the variable after z: <z, v - x> <= eta over the
    vertices v of dom, <z, r> <= 0 over its rays, and eta >= 0."""
    eta = at + len(x)
    verts, rays = dom.generators
    rows = [(tuple(vj - xj for vj, xj in zip(v, x)), 1) for v in verts] + [(r, 0) for r in rays]
    return _placed(rows, at, width, eta) + [(_row(width, {eta: -1}), 0)]


# ============================================================
# Weights and witnesses
# ============================================================

@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative label weights with a prescribed total mass."""

    weights: tuple[tuple[str, Fraction], ...]
    mass: Fraction

    @staticmethod
    def make(weights: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]], mass) -> "SimplexWeights":
        if isinstance(weights, Mapping):
            weights = weights.items()
        items = tuple(sorted((str(t), rational(w)) for t, w in weights))
        mass = rational(mass)
        if any(w < 0 for _, w in items):
            raise InvalidParameterError("weights must be nonnegative")
        if sum(w for _, w in items) != mass:
            raise InvalidParameterError("weights must sum to the mass")
        return SimplexWeights(items, mass)

    def __getitem__(self, label: str) -> Fraction:
        for t, w in self.weights:
            if t == label:
                return w
        return Fraction(0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(t for t, w in self.weights if w > 0)


@dataclass(frozen=True)
class CoHullValue:
    """Optimal value of the convex-hull program with its witness."""

    value: ExtendedRational
    weights: SimplexWeights | None = None
    points: tuple[tuple[str, Vec], ...] = ()
    directions: tuple[tuple[str, Vec], ...] = ()


@dataclass(frozen=True)
class DecompositionWitness:
    """An explicit membership certificate for a sum decomposition.

    Reconstructs x* = sum of scaled_points + normal_part where each
    scaled point y*_t = lambda_t x*_t carries a perspective subgradient
    certificate with error budget eps_t, active members satisfy the
    level condition, and the normal part is an eps2-approximate normal
    to dom f at x.  When per-member normal data is present (T53/R54
    modes) the aggregate is their exact sum.
    """

    split: tuple[Fraction, Fraction]
    lam: SimplexWeights
    eps_t: SimplexWeights
    points: tuple[tuple[str, Vec], ...]
    normal_part: Vec
    scaled_points: tuple[tuple[str, Vec], ...]
    gamma: Fraction = Fraction(0)
    normal_parts: tuple[tuple[str, Vec], ...] = ()
    normal_budgets: tuple[tuple[str, Fraction], ...] = ()

    def verify(self, family: FunctionFamily, x: Sequence, eps, xstar: Sequence) -> bool:
        """Exact recheck of every certificate inequality."""
        x, xstar = vec(x), vec(xstar)
        eps = rational(eps)
        eps1, eps2 = self.split
        if eps1 < 0 or eps2 < 0 or eps1 + eps2 > eps:
            return False
        if self.lam.mass != 1 or self.eps_t.mass != eps1:
            return False
        f = family.sup
        fx = f.eval(x)
        if not fx.is_finite:
            return False
        fx = fx.finite_value()
        scaled = dict(self.scaled_points)
        total = list(self.normal_part)
        for _, y in self.scaled_points:
            for j in range(len(total)):
                total[j] += y[j]
        if tuple(total) != xstar:
            return False
        points = dict(self.points)
        for t, _ in family.members:
            lam_t = self.lam[t]
            e_t = self.eps_t[t]
            y_t = scaled.get(t, zeros(family.dim))
            f_t = family.member(t)
            ft_x = f_t.eval(x)
            if lam_t > 0:
                if not ft_x.is_finite:
                    return False
                xs_t = points.get(t)
                if xs_t is None or tuple(lam_t * c for c in xs_t) != tuple(y_t):
                    return False
                # lambda_t f*_t(x*_t) + lambda_t f_t(x) - <y_t, x> <= e_t + lambda_t gamma
                conj_val = f_t.conjugate_eval(xs_t)
                if not conj_val.is_finite:
                    return False
                lhs = lam_t * conj_val.finite_value() + lam_t * ft_x.finite_value() - dot(y_t, x)
                if lhs > e_t + lam_t * self.gamma:
                    return False
                # activity: f_t(x) + e_t/lambda_t + gamma >= f(x)
                if ft_x.finite_value() + e_t / lam_t + self.gamma < fx:
                    return False
            elif any(c != 0 for c in y_t):
                return False
        # aggregate normal certificate: sigma_dom(z*) <= <z*, x> + eps2
        sup_val = support_value(f.domain, self.normal_part)
        if not (sup_val <= ExtendedRational.finite(dot(self.normal_part, x) + eps2)):
            return False
        if self.normal_parts:
            budget = dict(self.normal_budgets)
            agg = [Fraction(0)] * family.dim
            used = Fraction(0)
            for t, z_t in self.normal_parts:
                eta_t = budget.get(t, Fraction(0))
                if eta_t < 0:
                    return False
                used += eta_t
                dom_t = family.member(t).domain
                bound = ExtendedRational.finite(dot(z_t, x) + eta_t)
                if not (support_value(dom_t, z_t) <= bound):
                    return False
                for j in range(family.dim):
                    agg[j] += z_t[j]
            if tuple(agg) != tuple(self.normal_part) or used > eps2:
                return False
        return True


# ============================================================
# Convex hull of the conjugates
# ============================================================

def _co_hull_lp(
    family: FunctionFamily, xstar: Vec, allowed: Sequence[str]
) -> CoHullValue:
    # one block (y_t, u_t, lambda_t) per member
    n = family.dim
    blocks = {t: (n + 2) * i for i, t in enumerate(allowed)}
    width = (n + 2) * len(blocks)
    ineqs, eqs = [], []
    for t, at in blocks.items():
        block_ineqs, block_eqs = _perspective_block(family.member(t), at, width)
        ineqs += block_ineqs
        eqs += block_eqs
    eqs.append((_row(width, {at + n + 1: 1 for at in blocks.values()}), 1))
    eqs += zip(_sum_rows(blocks.values(), n, width), xstar)
    res = solve_min(_row(width, {at + n: 1 for at in blocks.values()}), ineqs, eqs)
    if res.status is not LPStatus.OPTIMAL:
        return CoHullValue(res.optimum)
    sol = res.primal_point
    points, directions = _scaled_split(sol, blocks, n)
    weights = SimplexWeights.make({t: sol[at + n + 1] for t, at in blocks.items()}, 1)
    return CoHullValue(res.optimum, weights, tuple(points), tuple(directions))


def co_hull_conjugates(
    family: FunctionFamily, xstar: Sequence, support_cap: int | None = None
) -> CoHullValue:
    """Value of the convex hull of the member conjugates at x*.

    inf { sum lambda_t f*_t(x*_t) : lambda in the simplex,
          sum lambda_t x*_t = x* }, one LP over perspective variables,
    solved once per point and kept on the family.  -oo is reported
    exactly when the program is unbounded and +oo when no combination
    reaches x*.

    With ``support_cap`` the infimum is taken over label subsets of at
    most that size and certified to agree with the unrestricted value.
    Each subset program is a restriction of the full one, so none is
    lower.  A full optimum whose support (the labels with positive weight
    or a nonzero direction) fits the cap is returned as it is: off its
    support lambda_t = 0, y_t = 0 and u_t >= 0, so it is feasible for the
    program on its support at no higher value.  Only a wider optimum
    falls back to enumerating the subsets.
    """
    xstar = vec(xstar)
    if len(xstar) != family.dim:
        raise DimensionMismatchError("point arity mismatch")
    for _, f_t in family.members:
        if not f_t.is_proper:
            raise InvalidParameterError("the hull needs proper members")
    known = family.co_hull_values
    full = known.get(xstar)
    if full is None:
        full = known[xstar] = _co_hull_lp(family, xstar, family.labels)
    if support_cap is None:
        return full
    if support_cap < 1:
        raise InvalidParameterError("support cap must be positive")
    if not full.value.is_finite:
        # -oo: no common affine minorant, and the support bound carries no
        # equality claim in that regime; +oo: every restriction of an
        # infeasible program is infeasible
        return full
    support = set(full.weights.support).union(t for t, _ in full.directions)
    if len(support) <= support_cap:
        # a capped optimum itself, as with no more members than the cap
        return full
    best = None
    for size in range(1, support_cap + 1):
        for subset in combinations(family.labels, size):
            cand = _co_hull_lp(family, xstar, subset)
            if best is None or cand.value < best.value:
                best = cand
    if best.value != full.value:
        raise IdentityFalsified(
            f"support-restricted hull value {best.value} differs from {full.value}",
            certificate={"capped": best, "full": full},
        )
    return best


# ============================================================
# Conjugate of an increasing supremum on the interior
# ============================================================

def conjugate_on_interior(family: FunctionFamily, xstar: Sequence) -> ExtendedRational:
    """min_t f*_t(x*) for increasing epi-pointed families, x* interior.

    Verifies the hypotheses (audited increasing order, per-member
    epi-pointedness certificates, x* interior to dom f*), then checks
    the computed minimum against the conjugate of the supremum; a
    mismatch would falsify the identity and raises IdentityFalsified.
    """
    xstar = vec(xstar)
    if not family.verify_increasing():
        raise HypothesesNotMet("family is not verifiably increasing")
    for t, f_t in family.members:
        if f_t.is_epi_pointed() is None:
            raise HypothesesNotMet(f"member {t!r} is not epi-pointed")
    f = family.sup
    if not f.is_proper:
        raise HypothesesNotMet("the supremum is improper")
    dom_star = f.conjugate().domain
    if not dom_star.contains_in_interior(xstar):
        raise HypothesesNotMet("x* is not interior to dom f*")
    value = min(f_t.conjugate_eval(xstar) for _, f_t in family.members)
    direct = f.conjugate_eval(xstar)
    if value != direct:
        raise IdentityFalsified(
            f"member minimum {value} differs from conjugate value {direct}",
            certificate={"xstar": xstar, "min": value, "conjugate": direct},
        )
    return value


# ============================================================
# The basic formula's right-hand side
# ============================================================

def rhs_basic_level(family: FunctionFamily, x: Sequence, budget) -> Polyhedron:
    """The scaled-subgradient set at the given budget, read off the conjugate hull.

    The set is { sum_t y_t } over the lifted system: weights lambda_t in
    the simplex and perspective points (y_t, u_t, lambda_t) whose scaled
    errors g_t = u_t + lambda_t f_t(x) - <y_t, x>, nonnegative by
    Fenchel-Young, satisfy the budget row sum_t g_t <= budget and the
    activity row sum_t lambda_t f_t(x) >= f(x) + sum_t g_t - budget.
    Strict inequalities of the source formula are relaxed to non-strict,
    which matches the closure for this polyhedral class.

    No LP builds it: the activity row implies the budget row, as
    sum_t lambda_t f_t(x) <= f(x), and the perspective blocks project onto
    the conjugate hull H, an epigraph (Balas 1979).  So the set is
    {s : (s, budget + <s, x> - f(x)) in H}, a preimage whose rows may be
    redundant.  The tests project the lifted system by LP as its oracle.
    """
    x, budget = vec(x), rational(budget)
    fx = family.sup.eval_finite(x)
    n = family.dim
    lift = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [x]
    return affine_preimage(family.conjugate_hull, lift, zeros(n) + (budget - fx,))


def rhs_basic_strict_margin(family: FunctionFamily, x: Sequence, budget) -> Fraction:
    """Largest uniform tightening delta in [0, 1] of the budget and activity rows.

    The rows are those of the lifted system in ``rhs_basic_level``.
    Tightening both by delta is the system at budget - delta, which
    is feasible exactly from the least budget b_min up, so the margin is
    min(1, budget - b_min).  No budget below 0 is feasible, as each g_t
    is nonnegative, and 0 is: give an active member t (f_t(x) = f(x))
    weight 1, a subgradient y_t of f_t at x (a polyhedral f_t has one on
    its domain) and u_t = f*_t(y_t), so g_t = 0 by Fenchel-Young, and
    every other member 0.  So b_min = 0, with no LP.
    """
    x = vec(x)
    budget = rational(budget)
    if budget < 0:
        raise InvalidParameterError("budget must be nonnegative")
    if not family.sup.eval(x).is_finite:
        raise InvalidParameterError("the supremum must be finite at x")
    return min(Fraction(1), budget)


def rhs_basic_covers(level: Polyhedron, target: Polyhedron) -> dict[str, Vec] | None:
    """The first target generator outside the ``rhs_basic_level`` set, or None."""
    return missing_generator(target, level)


def rhs_basic_within(level: Polyhedron, target: Polyhedron) -> bool:
    """Is the ``rhs_basic_level`` set contained in the target?"""
    return included(level, target)


# ============================================================
# Sums of approximate normal sets
# ============================================================

def eps_normal_intersection(sets: Sequence[Polyhedron], x: Sequence, eps) -> Polyhedron:
    """{ sum_t z_t : z_t eta_t-normal to C_t at x, sum eta_t = eps }.

    Exact for polyhedral data: the support function of the intersection
    is an attained inf-convolution, so no closure is needed.  Returns
    the empty set when x misses some C_t.

    The set is the eps-sublevel set of the inf-convolution of
    the sigma_{C_t - x} (Rockafellar 1970, Thm 16.4).  By LP duality that
    inf-convolution at z is min { sum mu_a c_a : mu >= 0, sum mu_a a = z }
    over the rows (a, b_a) of every C_t, equalities both ways, with
    slacks c_a = b_a - <a, x> >= 0.  So at budget b the set is
    conv({0} and b a / c_a over c_a > 0) + cone{a : c_a = 0}, one
    ``from_generators`` with no LP.
    """
    eps = rational(eps)
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    sets = list(sets)
    if not sets:
        raise InvalidParameterError("at least one set is required")
    n = sets[0].dim
    x = vec(x)
    for c in sets:
        if c.dim != n:
            raise DimensionMismatchError("set dimension mismatch")
        if not c.contains(x):
            return Polyhedron.empty(n)
    points, rays = [zeros(n)], []
    for c in sets:
        for a, b in [*c.ineqs, *c.eqs, *((tuple(-t for t in a), -b) for a, b in c.eqs)]:
            slack = b - dot(a, x)
            if slack:
                points.append(tuple(eps * t / slack for t in a))
            else:
                rays.append(a)
    return Polyhedron.from_generators(n, points, rays)


# ============================================================
# Qualification conditions
# ============================================================

def check_qc1(family: FunctionFamily, x: Sequence) -> bool:
    """No line in the normal cone to dom f at x: its lineality space is
    (aff dom f - x)^perp, so this holds exactly when dom f has an interior.
    """
    x = vec(x)
    f = family.sup
    if not f.domain.contains(x):
        raise InvalidParameterError("x must lie in dom f")
    return interior_point(f.domain) is not None


def check_qc2(family: FunctionFamily, x: Sequence) -> bool:
    """Only the zero tuple of member-domain normals can sum to zero.

    The answer depends on the family and x alone, so it is kept on the
    family and solved once per point.
    """
    x = vec(x)
    for t, f_t in family.members:
        if not f_t.domain.contains(x):
            raise InvalidParameterError(f"x must lie in dom of member {t!r}")
    known = family.qc2_answers
    if x not in known:
        known[x] = cones_sum_to_zero_trivially(
            [normal_cone(f_t.domain, x) for _, f_t in family.members]
        )
    return known[x]


def cones_sum_to_zero_trivially(cones: Sequence[Polyhedron]) -> bool:
    """Only the zero pick, one point of each cone, sums to zero.

    The cones go on separate blocks of variables, the zero-sum rows are
    appended, and the product cone is tested for triviality.
    """
    n = cones[0].dim
    blocks = [n * i for i in range(len(cones))]
    width = n * len(cones)
    ineqs, eqs = [], []
    for cone, at in zip(cones, blocks):
        ineqs += _placed(cone.ineqs, at, width)
        eqs += _placed(cone.eqs, at, width)
    eqs += [(row, 0) for row in _sum_rows(blocks, n, width)]
    return cone_is_trivial(width, ineqs, eqs)


# ============================================================
# Subdifferential decomposition
# ============================================================

DECOMPOSE_MODES = ("T52", "T53", "R54")


def _solve_decomposition(
    family: FunctionFamily,
    x: Vec,
    eps: Fraction,
    xstar: Vec,
    gamma: Fraction,
    s_labels: Sequence[str],
    n_labels: Sequence[str],
    aggregate_normal: bool,
) -> DecompositionWitness | None:
    """Feasibility LP for one support pattern; None when infeasible.

    ``s_labels`` may carry weight and scaled subgradients;
    ``n_labels`` may carry normal vectors (per-member when
    ``aggregate_normal`` is false, one pooled vector otherwise).
    """
    n = family.dim
    f = family.sup
    fx = f.eval_finite(x)
    # a block (y_t, u_t, lambda_t, e_t) per weighted member, then a block
    # (z, eta) per normal vector: one pooled, or one per member
    normals = [(None, f.domain)] if aggregate_normal else [
        (t, family.member(t).domain) for t in n_labels
    ]
    s_blocks = {t: (n + 3) * i for i, t in enumerate(s_labels)}
    z_blocks = [(n + 3) * len(s_blocks) + (n + 1) * i for i in range(len(normals))]
    width = (n + 3) * len(s_blocks) + (n + 1) * len(normals)
    ineqs, eqs = [], []
    for t, at in s_blocks.items():
        f_t = family.member(t)
        ft_x = f_t.eval_finite(x)
        lam, e = at + n + 1, at + n + 2
        block_ineqs, block_eqs = _perspective_block(f_t, at, width)
        ineqs += block_ineqs
        eqs += block_eqs
        ineqs.append(_subgradient_row(x, ft_x, at, e, width, gamma))
        # activity: lambda_t f(x) <= lambda_t f_t(x) + e_t + lambda_t gamma
        ineqs.append((_row(width, {lam: fx - ft_x - gamma, e: -1}), 0))
        ineqs.append((_row(width, {e: -1}), 0))
    eqs.append((_row(width, {at + n + 1: 1 for at in s_blocks.values()}), 1))
    for (_, dom), at in zip(normals, z_blocks):
        ineqs += _normal_block(dom, x, at, width)

    # total budget: sum e_t + sum eta <= eps
    budget_row = _row(width, {
        **{at + n + 2: 1 for at in s_blocks.values()},
        **{at + n: 1 for at in z_blocks},
    })
    ineqs.append((budget_row, eps))
    eqs += zip(_sum_rows([*s_blocks.values(), *z_blocks], n, width), xstar)

    res = solve_min(budget_row, ineqs, eqs)
    if res.status is LPStatus.INFEASIBLE:
        return None
    if res.status is not LPStatus.OPTIMAL:
        raise LPInternalError("budget objective must be bounded below by 0")
    sol = res.primal_point

    lam = {t: sol[at + n + 1] for t, at in s_blocks.items()}
    errs = {t: sol[at + n + 2] for t, at in s_blocks.items()}
    points, directions = _scaled_split(sol, s_blocks, n)
    scaled = [(t, sol[s_blocks[t]:s_blocks[t] + n]) for t, _ in points]
    # at lambda_t = 0 the block pins (y_t, u_t) to the recession cone of
    # epi f*_t, so y_t is an errs[t]-approximate normal to dom f_t at x;
    # move the budget from eps1 to eps2
    fold = [(t, y_t, errs[t]) for t, y_t in directions]
    for t, _ in directions:
        errs[t] = Fraction(0)

    normal = [Fraction(0)] * n
    member_z: dict[str, list[Fraction]] = {}
    member_eta: dict[str, Fraction] = {}
    eta_total = Fraction(0)
    for (label, _), at in zip(normals, z_blocks):
        z_val = list(sol[at:at + n])
        eta_val = sol[at + n]
        eta_total += eta_val
        for j in range(n):
            normal[j] += z_val[j]
        if label is not None:
            member_z[label] = z_val
            member_eta[label] = eta_val
    for t, y_t, e_t in fold:
        eta_total += e_t
        for j in range(n):
            normal[j] += y_t[j]
        if not aggregate_normal:
            acc = member_z.setdefault(t, [Fraction(0)] * n)
            for j in range(n):
                acc[j] += y_t[j]
            member_eta[t] = member_eta.get(t, Fraction(0)) + e_t
    order = [t for t in family.labels if t in member_z]

    eps1 = sum(errs.values(), Fraction(0))
    witness = DecompositionWitness(
        split=(eps1, eta_total),
        lam=SimplexWeights.make(lam, 1),
        eps_t=SimplexWeights.make(errs, eps1),
        points=tuple(points),
        normal_part=tuple(normal),
        scaled_points=tuple(scaled),
        gamma=gamma,
        normal_parts=tuple((t, tuple(member_z[t])) for t in order),
        normal_budgets=tuple((t, member_eta[t]) for t in order),
    )
    if not witness.verify(family, x, eps, xstar):
        raise LPInternalError("decomposition witness failed exact recheck")
    return witness


def decompose(
    family: FunctionFamily,
    x: Sequence,
    eps,
    xstar: Sequence,
    mode: str,
    gamma=0,
) -> DecompositionWitness | None:
    """Split an eps-subgradient of the supremum into member certificates.

    T52: scaled member subgradients with gamma-relaxed activity plus one
    pooled normal vector to dom f.  T53: exact activity (gamma = 0) and
    per-member normal vectors to the dom f_t.  R54: T53 restricted to
    disjoint label sets T1 (weights) and T2 (normals) with
    #T1 + #T2 <= dim + 1, searched in deterministic order.

    Returns None only when every admissible pattern is LP-infeasible,
    which would falsify the corresponding statement on valid input.
    """
    if mode not in DECOMPOSE_MODES:
        raise InvalidParameterError(f"unknown decomposition mode {mode!r}")
    x, xstar = vec(x), vec(xstar)
    eps, gamma = rational(eps), rational(gamma)
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    if gamma < 0:
        raise InvalidParameterError("gamma must be nonnegative")
    if gamma > 0 and mode != "T52":
        raise InvalidParameterError("only the T52 form admits a gamma relaxation")
    f = family.sup
    fx = f.eval(x)
    if not fx.is_finite:
        raise InvalidParameterError("x must lie in dom f")
    gap = f.conjugate_eval(xstar) + fx - ExtendedRational.finite(dot(xstar, x))
    if not (gap <= ExtendedRational.finite(eps)):
        raise InvalidParameterError("x* is not an eps-subgradient at x")
    if mode == "T52":
        if not check_qc1(family, x):
            raise HypothesesNotMet("the normal cone to dom f at x contains a line")
    elif not check_qc2(family, x):
        raise HypothesesNotMet("member domain normals admit a nonzero zero sum")

    labels = family.labels
    if mode == "T52":
        return _solve_decomposition(
            family, x, eps, xstar, gamma, labels, (), aggregate_normal=True
        )
    if mode == "T53":
        return _solve_decomposition(
            family, x, eps, xstar, Fraction(0), labels, labels, aggregate_normal=False
        )
    cap = family.dim + 1
    for total in range(1, min(cap, len(labels)) + 1):
        for k1 in range(1, total + 1):
            k2 = total - k1
            for t1 in combinations(labels, k1):
                rest = [t for t in labels if t not in t1]
                for t2 in combinations(rest, k2):
                    witness = _solve_decomposition(
                        family, x, eps, xstar, Fraction(0), t1, t2,
                        aggregate_normal=False,
                    )
                    if witness is not None:
                        return witness
    return None


# ============================================================
# Finite sums
# ============================================================

def sum_functions(funcs: Sequence[PolyhedralFunction]) -> PolyhedralFunction:
    """Exact pointwise sum via the piece product construction.

    The sum of max-affine functions is max-affine with one candidate
    piece per tuple of member pieces; candidates never attaining the
    maximum are pruned by LP.  Guarded by member and piece caps since
    the product is combinatorial.
    """
    funcs = list(funcs)
    if not funcs:
        raise InvalidParameterError("at least one summand is required")
    if len(funcs) > SUM_MEMBER_CAP:
        raise CapacityError(f"sum limited to {SUM_MEMBER_CAP} members")
    n = funcs[0].dim
    domain = funcs[0].domain
    for g in funcs[1:]:
        if g.dim != n:
            raise DimensionMismatchError("summand dimension mismatch")
        domain = intersect(domain, g.domain)
    count = 1
    for g in funcs:
        count *= len(g.pieces)
    if count > SUM_PIECE_CAP:
        raise CapacityError(f"sum would need {count} candidate pieces")

    candidates: list[Row] = [(zeros(n), Fraction(0))]
    for g in funcs:
        candidates = [
            (tuple(ca + pa for ca, pa in zip(c, p)), cb + pb)
            for c, cb in candidates
            for p, pb in g.pieces
        ]
    candidates = sorted(set(candidates))
    if domain.is_empty or len(candidates) == 1:
        return PolyhedralFunction.make(n, candidates, domain)
    # variables (x, d)
    dom_ineqs, dom_eqs = _placed(domain.ineqs, 0, n + 1), _placed(domain.eqs, 0, n + 1)
    kept: list[Row] = []
    for i, (a_i, b_i) in enumerate(candidates):
        # piece i survives iff it attains the max somewhere on the domain:
        # maximize the margin d with (a_k - a_i) x + d <= b_i - b_k for all k
        rows = [
            (tuple(s - t for s, t in zip(a_k, a_i)) + (1,), b_i - b_k)
            for k, (a_k, b_k) in enumerate(candidates) if k != i
        ]
        res = solve_min(_row(n + 1, {n: -1}), dom_ineqs + rows, dom_eqs)
        if res.status is LPStatus.UNBOUNDED:
            kept.append((a_i, b_i))
            continue
        if res.status is not LPStatus.OPTIMAL:
            raise LPInternalError("piece pruning LP lost feasibility")
        if res.primal_point[n] >= 0:
            kept.append((a_i, b_i))
    return PolyhedralFunction.make(n, kept, domain)


def inf_convolution_value(
    funcs: Sequence[PolyhedralFunction], xstar: Sequence
) -> ExtendedRational:
    """inf { sum_k g_k(y_k) : sum y_k = x* } for the given functions."""
    funcs = list(funcs)
    if not funcs:
        raise InvalidParameterError("at least one function is required")
    n = funcs[0].dim
    xstar = vec(xstar)
    # one block (y_k, s_k) in epi g_k per function
    blocks = [(n + 1) * k for k in range(len(funcs))]
    width = (n + 1) * len(funcs)
    ineqs, eqs = [], []
    for g, at in zip(funcs, blocks):
        ineqs += _placed(g.epigraph.ineqs, at, width)
        eqs += _placed(g.epigraph.eqs, at, width)
    eqs += zip(_sum_rows(blocks, n, width), xstar)
    return solve_min(_row(width, {at + n: 1 for at in blocks}), ineqs, eqs).optimum
