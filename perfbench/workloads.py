"""Benchmark corpora: what each workload builds, times and checks.

A workload turns a seed into a list of units, one per generated
instance, each a list of ops that are zero-argument callables.  Every op reaches the
library through a module attribute looked up at call time, so the
traced run sees the same calls through its wrappers.

Each workload runs a fixed corpus and the seed only rotates where a
pass starts.  Per-instance cost is heavy-tailed (0.15 s to 11 s per
criterion-2 instance), so a seed that drew fresh instances would move
throughput by a third between seeds; a fixed corpus keeps the measured
work identical and leaves only machine noise between runs.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import typing
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

DOMS = ("box", "halfspaces", "full-space")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad reference)."""


_work_dir: tempfile.TemporaryDirectory | None = None


def work_dir() -> Path:
    """This process's scratch directory in the checkout, removed at exit."""
    global _work_dir
    if _work_dir is None:
        _work_dir = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
    return Path(_work_dir.name)


def is_supcalc(module_name: str) -> bool:
    return module_name == "supcalc" or module_name.startswith("supcalc.")


def drop_supcalc() -> None:
    """Forget every loaded supcalc module.

    typing's caches key generic aliases such as ``Callable[[FunctionFamily], …]``
    by the classes in them; they are cleared too, or each dropped set of
    modules would stay alive for the rest of the process.
    """
    for name in [n for n in sys.modules if is_supcalc(n)]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()


def import_supcalc() -> SimpleNamespace:
    """Import the package from this checkout's src/, dropping any earlier import.

    Dropping the modules first makes every set-up pay the full import,
    and leaves exactly one set of module objects for tracing to patch.
    """
    if not (SRC / "supcalc" / "__init__.py").is_file():
        raise SetupError(f"no supcalc sources under {SRC}")
    drop_supcalc()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("supcalc")
    if Path(pkg.__file__).resolve().parent != (SRC / "supcalc").resolve():
        raise SetupError(f"supcalc imported from {pkg.__file__}, not {SRC}")
    mods = {
        name: importlib.import_module(f"supcalc.{name}")
        for name in ("cli", "errors", "generator", "identities", "polyhedron", "rationals")
    }
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------
# ops, units and answers
# ---------------------------------------------------------------------

@dataclass
class Op:
    """One timed call.  ``encode`` turns its raw result into answers."""

    seed: int  # generator seed of the instance the op belongs to
    name: str
    fn: Callable[[], Any]
    encode: Callable[[Any], dict[str, str]]


def load_reference(workload: str) -> dict[str, dict[str, str]]:
    try:
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc
    if workload not in data:
        raise SetupError(f"{REFERENCE} has no answers for {workload}")
    return data[workload]


def _ext(v) -> str:
    if v.is_finite:
        return str(v.finite_value())
    return "+inf" if v > type(v).finite(0) else "-inf"


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _gens_text(gens) -> tuple:
    verts, rays = gens
    return (sorted(tuple(str(c) for c in v) for v in verts),
            sorted(tuple(str(c) for c in r) for r in rays))


def _dom_point(S, fam):
    """The criterion-2 evaluation point: a domain vertex or interior point."""
    dom = fam.sup.domain
    if dom.vertices:
        return dom.vertices[0]
    c = S.polyhedron.interior_point(dom)
    return c if c is not None else S.rationals.zeros(fam.dim)


def _rotate(items: list, seed: int) -> list:
    k = seed % len(items)
    return items[k:] + items[:k]


# ---------------------------------------------------------------------
# audit-corpus: criterion-2 identity checks
# ---------------------------------------------------------------------

AUDIT_BASE = 500
AUDIT_COUNT = 10
AUDIT_IDENTS = ("L2A", "L2B", "L2C", "L2D", "L2E", "L2F",
                "P34", "C46", "T54A", "L57")
_C2_DIMS = (1, 2, 3, 1, 2)


def c2_plan(S, i: int):
    """Instance i of the criterion-2 acceptance corpus (seed 500 + i)."""
    dim = _C2_DIMS[i % 5]
    if dim == 3:
        members, pieces, epi = 2 + i % 2, 1 + i % 2, False
    else:
        members, pieces, epi = 2 + i % 4, 1 + i % 4, i % 4 == 0
    return S.generator.GeneratorParams(
        dim=dim,
        member_count=members,
        pieces_per_member=pieces,
        domain_kind=DOMS[i % 3],
        force_increasing=(i % 3 == 0),
        force_epi_pointed=epi,
        seed=AUDIT_BASE + i,
    )


def _status(report) -> dict[str, str]:
    return {"status": report.status.value}


def build_audit(S, seed: int) -> list[list[Op]]:
    units = []
    for i in _rotate(list(range(AUDIT_COUNT)), seed):
        params = c2_plan(S, i)
        fam = S.generator.generate(params)
        x = _dom_point(S, fam)
        unit = []
        for ident in AUDIT_IDENTS:
            if ident == "C46":
                payload = [f.domain for _, f in fam.members]
                check = {"eps": Fraction(1, 4)}
            else:
                payload = fam
                check = {"x": x, "eps": Fraction(1, 3)}
                if ident == "P34":
                    check["gamma_grid"] = (Fraction(1, 2), Fraction(1, 8))
            fn = (lambda ident=ident, payload=payload, check=check:
                  S.identities.check_identity(ident, payload, check))
            unit.append(Op(params.seed, ident, fn, _status))
        units.append(unit)
    return units


# ---------------------------------------------------------------------
# catalog-fuzz: the CLI fuzz command, one instance per call
# ---------------------------------------------------------------------

FUZZ_BASE = 2026
FUZZ_COUNT = 6


def _fuzz_call(S, seed: int) -> tuple[int, Path, str]:
    out = work_dir() / f"fuzz-{seed}.jsonl"
    argv = ["fuzz", "--seed", str(seed), "--count", "1", "--identity", "ALL",
            "--dim-max", "2", "--out", str(out)]
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        code = S.cli.main(argv)
    return code, out, sink_err.getvalue()


def _fuzz_answers(raw) -> dict[str, str]:
    code, out, err = raw
    answers = {"exit": str(code)}
    if code != 0:
        answers["stderr"] = err.strip()[:200]
    if out.is_file():
        for line in out.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            answers[record["identity"]] = record["status"]
        out.unlink()
    return answers


def build_fuzz(S, seed: int) -> list[list[Op]]:
    units = []
    for s in _rotate([FUZZ_BASE + k for k in range(FUZZ_COUNT)], seed):
        fn = lambda s=s: _fuzz_call(S, s)
        units.append([Op(s, "fuzz", fn, _fuzz_answers)])
    return units


# ---------------------------------------------------------------------
# query-dim4: exact library queries on dimension-4 families
# ---------------------------------------------------------------------

QUERY_BASE = 4000
QUERY_COUNT = 30
QUERY_EPS = (Fraction(0), Fraction(1, 3), Fraction(1))
SIGN_POINTS = tuple(tuple(Fraction(s) for s in signs)
                    for signs in product((1, -1), repeat=4))


def q4_plan(S, i: int):
    return S.generator.GeneratorParams(
        dim=4,
        member_count=2 + i % 5,
        pieces_per_member=3 + i % 3,
        domain_kind=DOMS[i % 3],
        seed=QUERY_BASE + i,
    )


def _sign_label(y) -> str:
    return "".join("+" if c > 0 else "-" for c in y)


def build_query(S, seed: int) -> list[list[Op]]:
    units = []
    for i in _rotate(list(range(QUERY_COUNT)), seed):
        params = q4_plan(S, i)
        fam = S.generator.generate(params)
        x = _dom_point(S, fam)
        s = params.seed
        unit = [Op(
            s, "conjugate", lambda fam=fam: fam.sup.conjugate(),
            lambda g: {"value": _digest((
                [(tuple(str(c) for c in a), str(b)) for a, b in g.pieces],
                _gens_text(g.domain.generators)))},
        )]
        for eps in QUERY_EPS:
            key = f"eps_subdifferential[{eps}]"
            unit.append(Op(
                s, key,
                lambda fam=fam, x=x, eps=eps: fam.sup.eps_subdifferential(x, eps).generators,
                lambda gens: {"value": _digest(_gens_text(gens))},
            ))
        unit.append(Op(
            s, "cco_union",
            lambda fam=fam: S.polyhedron.cco_union(
                [f.conjugate().epigraph for _, f in fam.members]).generators,
            lambda gens: {"value": _digest(_gens_text(gens))},
        ))
        for y in SIGN_POINTS:
            key = f"conjugate_eval[{_sign_label(y)}]"
            unit.append(Op(
                s, key, lambda fam=fam, y=y: fam.sup.conjugate_eval(y),
                lambda v: {"value": _ext(v)},
            ))
        units.append(unit)
    return units


WORKLOADS: dict[str, Callable[[Any, int], list[list[Op]]]] = {
    "audit-corpus": build_audit,
    "catalog-fuzz": build_fuzz,
    "query-dim4": build_query,
}
