"""Command-line interface: eval, verify, fuzz, and plot.

Exit codes: 0 success (no falsification), 1 at least one identity
falsified, 2 usage or schema error, 3 instance generation error, 4 an
engine error in at least one ``fuzz`` check (the run goes on).
Report streams are JSONL, one object per line, and are byte-identical
across reruns of the same invocation.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .errors import (
    CapacityError,
    EmptySetError,
    ExtendedArithmeticError,
    GenerationError,
    InvalidParameterError,
    LPInternalError,
    SchemaError,
    SupcalcError,
)
from .generator import DOMAIN_KINDS, GeneratorParams, generate
from .identities import CATALOG, check_identity, identity_ids
from .polyhedron import Polyhedron, interior_point
from .rationals import Vec, format_extended, parse_rational
from .reports import CheckReport, CheckStatus
from .serialize import Instance, canonical_json, loads_instance, report_to_json
from .plotting import plot_function, plot_subdiff

MAX_FUZZ_COUNT = 1000
ENGINE_ERRORS = (LPInternalError, CapacityError, ExtendedArithmeticError)
ENGINE_ERROR = "engine-error"


def _parse_point(text: str, dim: int) -> Vec:
    x = tuple(parse_rational(part.strip()) for part in text.split(","))
    if len(x) != dim:
        raise InvalidParameterError(
            f"point has {len(x)} coordinates, instance dimension is {dim}"
        )
    return x


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part.strip()) for part in text.split(","))


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}") from exc
    return loads_instance(text)


def _identity_list(spec: str) -> tuple[str, ...]:
    if spec.strip().upper() == "ALL":
        return identity_ids()
    ids = tuple(part.strip() for part in spec.split(",") if part.strip())
    for ident in ids:
        if ident not in CATALOG:
            raise InvalidParameterError(
                f"unknown identity {ident!r}; valid ids: {', '.join(identity_ids())}"
            )
    if not ids:
        raise InvalidParameterError("no identity given")
    return ids


def _payload(ident: str, instance: Instance) -> Any:
    """Instance data for one identity, with derived fallbacks."""
    kind = CATALOG[ident].kind
    family = instance.family
    if kind == "family":
        return family
    if kind == "sets":
        if instance.sets:
            return [p for _, p in instance.sets]
        return [f.domain for _, f in family.members]
    if instance.robust_b is not None:
        return (family, instance.robust_b)
    dom = family.sup.domain
    center = interior_point(dom)
    if center is None:
        if dom.is_empty:
            # no box to center; the checker reports the empty domain
            return (family, Polyhedron.full_space(family.dim))
        center = dom.vertices[0]
    box = Polyhedron.box(
        tuple(c - 1 for c in center), tuple(c + 1 for c in center)
    )
    return (family, box)


def _check_params(args: argparse.Namespace, dim: int | None = None) -> dict[str, Any]:
    """Check parameters from the options; a point needs the instance dimension."""
    params: dict[str, Any] = {}
    if getattr(args, "point", None):
        params["x"] = _parse_point(args.point, dim)
    if getattr(args, "eps", None):
        params["eps"] = parse_rational(args.eps)
    if getattr(args, "gamma_grid", None):
        params["gamma_grid"] = _parse_grid(args.gamma_grid)
    return params


@contextmanager
def _report_stream(out: str | None) -> Iterator[Callable[[str], None]]:
    """Print each report line and append it to ``out`` as it is produced,
    so an engine error part-way keeps the lines (and seeds) before it."""
    with open(out, "w", encoding="utf-8") if out else nullcontext() as fh:
        def emit(line: str) -> None:
            print(line)
            if fh is not None:
                fh.write(line + "\n")
                fh.flush()
        yield emit


def _report_line(report: CheckReport, extra: dict[str, Any] | None = None) -> str:
    record = report_to_json(report)
    if extra:
        record = {**extra, **record}
    return canonical_json(record)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    family = instance.family
    x = _parse_point(args.point, family.dim)
    eps = parse_rational(args.eps) if args.eps else Fraction(0)
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    f = family.sup
    fx = f.eval(x)
    print(f"f({args.point}) = {format_extended(fx)}")
    near = family.active_indices(x, eps) if fx.is_finite else set()
    active = [t for t in family.labels if t in near]
    print(f"active[eps={eps}] = {','.join(active) if active else '(none)'}")
    if not f.is_proper:
        return 0  # f is identically +inf, so f* is identically -inf
    fstar = f.conjugate()
    samples = list(fstar.domain.vertices[:4])
    c = interior_point(fstar.domain)
    if c is not None and c not in samples:
        samples.append(c)
    for p in samples:
        label = ",".join(str(v) for v in p)
        print(f"f*({label}) = {format_extended(f.conjugate_eval(p))}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    idents = _identity_list(args.identity)
    params = _check_params(args, instance.family.dim)
    failed = False
    with _report_stream(args.out) as emit:
        for ident in idents:
            report = check_identity(ident, _payload(ident, instance), params)
            failed = failed or report.status is CheckStatus.FAIL
            emit(_report_line(report))
    return 1 if failed else 0


def _fuzz_params(
    base_seed: int, index: int, dim_max: int, force_hypotheses: bool = False
) -> GeneratorParams:
    """The generator parameters of one fuzz instance.

    With ``force_hypotheses`` every family is drawn increasing and with
    epi-pointed members, so L2D, L2F, T41 and T44 meet their hypotheses
    and check their claims instead of answering hypotheses-not-met.
    """
    s = base_seed + index
    return GeneratorParams(
        dim=1 + s % dim_max,
        member_count=2 + s % 3,
        pieces_per_member=1 + (s // 3) % 3,
        domain_kind=DOMAIN_KINDS[s % len(DOMAIN_KINDS)],
        force_epi_pointed=force_hypotheses,
        force_increasing=force_hypotheses,
        seed=s,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Check seeded instances; an engine error is reported per check.

    A check that raises one of ``ENGINE_ERRORS`` gets its own line with
    the seed, the identity, status ``engine-error``, the error's class
    and its message, and the run goes on.  Such a check is counted
    apart, never as a pass or as hypotheses-not-met, and the exit code
    is then 4, ahead of 1 for a falsification.
    """
    if args.count > MAX_FUZZ_COUNT:
        raise InvalidParameterError(
            f"count {args.count} exceeds the cap {MAX_FUZZ_COUNT}"
        )
    dim_max = args.dim_max
    if not 1 <= dim_max <= 4:
        raise InvalidParameterError("dim-max must be between 1 and 4")
    idents = _identity_list(args.identity)
    params = _check_params(args)
    tally: dict[str, dict[str, int]] = {
        ident: dict.fromkeys((*(s.value for s in CheckStatus), ENGINE_ERROR), 0)
        for ident in idents
    }
    with _report_stream(args.out) as emit:
        for i in range(args.count):
            gen = _fuzz_params(args.seed, i, dim_max, args.force_hypotheses)
            family = generate(gen)
            instance = Instance(family)
            for ident in idents:
                try:
                    report = check_identity(ident, _payload(ident, instance), params)
                except ENGINE_ERRORS as exc:
                    tally[ident][ENGINE_ERROR] += 1
                    emit(canonical_json({
                        "seed": gen.seed, "identity": ident, "status": ENGINE_ERROR,
                        "error": type(exc).__name__, "message": str(exc),
                    }))
                    continue
                tally[ident][report.status.value] += 1
                emit(_report_line(report, {"seed": gen.seed}))
    head = f"{'identity':<10}{'pass':>6}{'fail':>6}{'hnm':>6}{'trivial':>8}{'engine':>8}"
    print(head, file=sys.stderr)
    for ident in idents:
        t = tally[ident]
        print(
            f"{ident:<10}{t['pass']:>6}{t['fail']:>6}"
            f"{t['hypotheses-not-met']:>6}{t['trivial-pass']:>8}{t[ENGINE_ERROR]:>8}",
            file=sys.stderr,
        )
    if any(t[ENGINE_ERROR] for t in tally.values()):
        return 4
    return 1 if any(t[CheckStatus.FAIL.value] for t in tally.values()) else 0


def cmd_plot(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    family = instance.family
    if family.dim > 2:
        raise InvalidParameterError("plots cover dimensions 1 and 2 only")
    f = family.sup
    if args.what == "function":
        svg = plot_function(f)
    elif args.what == "conjugate":
        if not f.is_proper:
            raise EmptySetError("f has an empty domain, so f* is identically -inf")
        svg = plot_function(f, conjugate=True)
    else:
        x = _parse_point(args.point, family.dim) if args.point else (Fraction(0),) * family.dim
        eps = parse_rational(args.eps) if args.eps else Fraction(0)
        svg = plot_subdiff(f, x, eps)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supcalc",
        description="Exact convex-analysis checks for polyhedral sup families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate f, active labels, and f*")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--point", required=True)
    p_eval.add_argument("--eps")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run identity checks on an instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--identity", required=True,
                          help="comma-separated ids or ALL")
    p_verify.add_argument("--point")
    p_verify.add_argument("--eps")
    p_verify.add_argument("--gamma-grid", dest="gamma_grid")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="generate seeded instances and check")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.add_argument("--identity", default="ALL")
    p_fuzz.add_argument("--dim-max", dest="dim_max", type=int, default=2)
    p_fuzz.add_argument("--eps")
    p_fuzz.add_argument("--gamma-grid", dest="gamma_grid")
    p_fuzz.add_argument("--out")
    p_fuzz.add_argument("--force-hypotheses", dest="force_hypotheses",
                        action="store_true",
                        help="draw increasing families with epi-pointed members")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_plot = sub.add_parser("plot", help="render an SVG of a 1-D or 2-D instance")
    p_plot.add_argument("what", choices=("function", "conjugate", "subdiff"))
    p_plot.add_argument("--instance", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--point")
    p_plot.add_argument("--eps")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenerationError as exc:
        print(json.dumps({"error": str(exc), "kind": "generation"}),
              file=sys.stderr)
        return 3
    except (SchemaError, InvalidParameterError, EmptySetError) as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return 2
    except SupcalcError as exc:
        print(json.dumps({"error": str(exc), "kind": "engine"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
