"""Per-layer tracing by rebinding library functions to counting wrappers.

Each traced function is replaced by a wrapper in every module and class
of the loaded ``supcalc`` package that holds it, since callers import
these functions by name (``from .lp import solve_min``).  ``verify``
then scans the package for any binding to an original that is left;
one left behind would silently undercount its layer.

A wrapper records a span only at the outermost entry of its layer.
``busy_s`` is inclusive, ``self_s`` subtracts the time of traced layers
called inside it, and ``lp_solves`` counts the LP solves made inside.
Spans are recorded only while ``phase`` is set: ``"ops"`` inside the
timed ops, ``"setup"`` while instances are generated.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Any, Callable

# (module, attribute path, layer)
TARGETS = (
    ("supcalc.lp", "solve_min", "lp"),
    ("supcalc.polyhedron", "dd_cone", "dd"),
    ("supcalc.polyhedron", "Polyhedron.from_hrep", "polyhedron"),
    ("supcalc.projection", "project", "projection"),
    ("supcalc.functions", "PolyhedralFunction.conjugate_eval", "functions.conjugate_eval"),
    ("supcalc.functions", "PolyhedralFunction.eps_subdifferential",
     "functions.eps_subdifferential"),
    ("supcalc.calculus", "rhs_basic_covers", "calculus.rhs_basic"),
    ("supcalc.calculus", "rhs_basic_within", "calculus.rhs_basic"),
    ("supcalc.calculus", "rhs_basic_strict_margin", "calculus.rhs_basic"),
    ("supcalc.calculus", "co_hull_conjugates", "calculus.co_hull"),
    ("supcalc.calculus", "eps_normal_intersection", "calculus.eps_normal_intersection"),
    ("supcalc.calculus", "decompose", "calculus.decompose"),
    ("supcalc.identities", "check_identity", "identities"),
    ("supcalc.generator", "generate", "generator"),
    ("supcalc.serialize", "report_to_json", "serialize"),
)

IDENTITY_IDS = ("L2A", "L2B", "L2C", "L2D", "L2E", "L2F", "P34", "T41", "C42",
                "T44", "C46", "T52", "T53", "R54", "T54A", "T54B", "L57", "RINF")

# (metric, unit, better); the per-layer list of the benchmark
PER_LAYER = (
    [
        ("lp.solves", "count", "lower"),
        ("lp.busy_s", "s", "lower"),
        ("lp.self_s", "s", "lower"),
        ("lp.repeat_ratio", "ratio", "lower"),
        ("lp.shared_rows_ratio", "ratio", "lower"),
        ("lp.rows", "count", "lower"),
        ("dd.conversions", "count", "lower"),
        ("dd.busy_s", "s", "lower"),
        ("dd.input_rows", "count", "lower"),
        ("dd.output_generators", "count", "lower"),
        ("polyhedron.sets_built", "count", "lower"),
        ("polyhedron.repeat_ratio", "ratio", "lower"),
        ("projection.calls", "count", "lower"),
        ("projection.busy_s", "s", "lower"),
        ("projection.lp_solves", "count", "lower"),
        ("functions.conjugate_eval.calls", "count", "lower"),
        ("functions.conjugate_eval.busy_s", "s", "lower"),
        ("functions.eps_subdifferential.calls", "count", "lower"),
        ("functions.eps_subdifferential.busy_s", "s", "lower"),
    ]
    + [
        (f"calculus.{part}.{m}", unit, "lower")
        for part in ("rhs_basic", "co_hull", "eps_normal_intersection", "decompose")
        for m, unit in (("calls", "count"), ("busy_s", "s"), ("lp_solves", "count"))
    ]
    + [
        (f"identities.{ident}.{m}", unit, "lower")
        for ident in IDENTITY_IDS
        for m, unit in (("checks", "count"), ("busy_s", "s"), ("lp_solves", "count"))
    ]
    + [
        ("generator.busy_s", "s", "lower"),
        ("serialize.busy_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "higher"),
    ]
)


class TraceError(RuntimeError):
    """Tracing could not cover every binding of a traced function."""


def _package_modules() -> dict[str, ModuleType]:
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == "supcalc" or n.startswith("supcalc."))}


def _own_classes(mods: dict[str, ModuleType]) -> list[type]:
    seen: dict[int, type] = {}
    for m in mods.values():
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.startswith("supcalc"):
                seen[id(v)] = v
    return list(seen.values())


def _unwrap(v: Any) -> Any:
    if isinstance(v, (staticmethod, classmethod)):
        return v.__func__
    if isinstance(v, property):
        return v.fget
    if isinstance(v, functools.cached_property):
        return v.func
    return v


def _rows(seq) -> tuple:
    return tuple((tuple(a), b) for a, b in seq)


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "lp_solves", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.lp_solves = 0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.phase: str | None = None
        self.tables: dict[str, dict[str, _Layer]] = {"ops": {}, "setup": {}}
        self.lp_count = 0  # outermost LP solves while recording
        self._children: list[float] = []  # child time of each open span
        self._originals: dict[int, tuple[Callable, Callable]] = {}
        # repeat detection, reset at the start of every pass
        self.lp_keys: set[int] = set()
        self.lp_row_keys: set[int] = set()
        self.lp_repeats = 0
        self.lp_shared_rows = 0
        self.lp_rows = 0
        self.dd_input_rows = 0
        self.dd_output_generators = 0
        self.set_keys: set[int] = set()
        self.set_repeats = 0

    def new_pass(self) -> None:
        self.lp_keys.clear()
        self.lp_row_keys.clear()
        self.set_keys.clear()

    # -- wrappers -----------------------------------------------------

    def _layer(self, name: str) -> _Layer:
        table = self.tables[self.phase]
        layer = table.get(name)
        if layer is None:
            layer = table[name] = _Layer()
        return layer

    def _wrap(self, func: Callable, layer_name: str) -> Callable:
        tracer = self
        before = None
        if layer_name == "lp":
            before = functools.partial(self._before_lp, inspect.signature(func))
        after = getattr(self, "_after_" + layer_name.replace(".", "_"), None)
        per_identity = layer_name == "identities"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            name = f"identities.{args[0]}" if per_identity else layer_name
            layer = tracer._layer(name)
            if layer.depth:
                return func(*args, **kwargs)
            recording = tracer.phase == "ops"
            if recording and before is not None:
                args, kwargs = before(args, kwargs)
            layer.depth += 1
            lp0 = tracer.lp_count
            tracer._children.append(0.0)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dt
                layer.depth -= 1
                layer.calls += 1
                layer.busy += dt
                layer.self_time += dt - child
                layer.lp_solves += tracer.lp_count - lp0
            if recording and after is not None:
                after(args, result)
            return result

        return wrapper

    def _before_lp(self, signature, args, kwargs):
        """Count the solve and classify it as a repeat or a shared row set.

        The row sequences are copied into lists first, so that an
        iterator argument still reaches the solver whole.
        """
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        call = bound.arguments
        ineqs = call["ineqs"] = list(call["ineqs"])
        eqs = call["eqs"] = list(call["eqs"])
        self.lp_count += 1
        self.lp_rows += len(ineqs) + len(eqs)
        rows_key = hash((_rows(ineqs), _rows(eqs)))
        full_key = hash((tuple(call["c"]), rows_key))
        if full_key in self.lp_keys:
            self.lp_repeats += 1
        else:
            self.lp_keys.add(full_key)
            if rows_key in self.lp_row_keys:
                self.lp_shared_rows += 1
        self.lp_row_keys.add(rows_key)
        return bound.args, bound.kwargs

    def _after_dd(self, args, result) -> None:
        rays, lines = result
        self.dd_input_rows += len(args[0])
        self.dd_output_generators += len(rays) + len(lines)

    def _after_polyhedron(self, args, p) -> None:
        key = hash((p.dim, p.ineqs, p.eqs))
        if key in self.set_keys:
            self.set_repeats += 1
        else:
            self.set_keys.add(key)

    # -- installing and checking --------------------------------------

    def install(self) -> None:
        """Rebind every traced function across the loaded package."""
        mods = _package_modules()
        for modname, path, layer in TARGETS:
            owner: Any = mods.get(modname)
            if owner is None:
                raise TraceError(f"module {modname} is not loaded")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if raw is None:
                raise TraceError(f"{modname}.{path} does not exist")
            func = _unwrap(raw)
            if not isinstance(func, FunctionType):
                raise TraceError(f"{modname}.{path} is not a function")
            if id(func) not in self._originals:
                self._originals[id(func)] = (func, self._wrap(func, layer))
        for m in mods.values():
            for name, v in list(vars(m).items()):
                hit = self._originals.get(id(v))
                if hit is not None and hit[0] is v:
                    setattr(m, name, hit[1])
        for cls in _own_classes(mods):
            for name, v in list(vars(cls).items()):
                func = _unwrap(v)
                hit = self._originals.get(id(func))
                if hit is None or hit[0] is not func:
                    continue
                if isinstance(v, staticmethod):
                    setattr(cls, name, staticmethod(hit[1]))
                elif isinstance(v, FunctionType):
                    setattr(cls, name, hit[1])
                else:
                    raise TraceError(f"cannot rebind {cls.__name__}.{name}")
        self.verify()

    def verify(self) -> None:
        """Raise if any binding to an original traced function is left."""
        originals = {id(f): f for f, _ in self._originals.values()}
        wrappers = {id(w) for _, w in self._originals.values()}
        left: list[str] = []

        def check(where: str, v: Any, depth: int = 0) -> None:
            v = _unwrap(v)
            if id(v) in wrappers:
                return
            if id(v) in originals and originals[id(v)] is v:
                left.append(where)
                return
            if isinstance(v, FunctionType) and depth == 0:
                for i, d in enumerate(v.__defaults__ or ()):
                    check(f"{where} default {i}", d, 1)
                for k, d in (v.__kwdefaults__ or {}).items():
                    check(f"{where} default {k}", d, 1)
                for i, cell in enumerate(v.__closure__ or ()):
                    try:
                        check(f"{where} closure {i}", cell.cell_contents, 1)
                    except ValueError:
                        pass
            elif isinstance(v, dict) and depth < 2:
                for k, d in v.items():
                    check(f"{where}[{k!r}]", d, depth + 1)
            elif isinstance(v, (list, tuple)) and depth < 2:
                for i, d in enumerate(v):
                    check(f"{where}[{i}]", d, depth + 1)

        mods = _package_modules()
        for mname, m in mods.items():
            for name, v in vars(m).items():
                check(f"{mname}.{name}", v)
        for cls in _own_classes(mods):
            for name, v in vars(cls).items():
                check(f"{cls.__module__}.{cls.__name__}.{name}", v)
        if left:
            raise TraceError("untraced bindings left: " + ", ".join(sorted(left)))

    # -- metrics ------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer values per traced pass."""
        ops = self.tables["ops"]
        empty = _Layer()

        def get(name: str) -> _Layer:
            return ops.get(name, empty)

        def per(v: float) -> float:
            return v / passes

        lp = get("lp")
        out: dict[str, float] = {
            "lp.solves": per(lp.calls),
            "lp.busy_s": per(lp.busy),
            "lp.self_s": per(lp.self_time),
            "lp.repeat_ratio": self.lp_repeats / lp.calls if lp.calls else 0.0,
            "lp.shared_rows_ratio": self.lp_shared_rows / lp.calls if lp.calls else 0.0,
            "lp.rows": self.lp_rows / lp.calls if lp.calls else 0.0,
        }
        dd = get("dd")
        out["dd.conversions"] = per(dd.calls)
        out["dd.busy_s"] = per(dd.busy)
        out["dd.input_rows"] = per(self.dd_input_rows)
        out["dd.output_generators"] = per(self.dd_output_generators)
        poly = get("polyhedron")
        out["polyhedron.sets_built"] = per(poly.calls)
        out["polyhedron.repeat_ratio"] = self.set_repeats / poly.calls if poly.calls else 0.0
        proj = get("projection")
        out["projection.calls"] = per(proj.calls)
        out["projection.busy_s"] = per(proj.busy)
        out["projection.lp_solves"] = per(proj.lp_solves)
        for part in ("conjugate_eval", "eps_subdifferential"):
            layer = get(f"functions.{part}")
            out[f"functions.{part}.calls"] = per(layer.calls)
            out[f"functions.{part}.busy_s"] = per(layer.busy)
        for part in ("rhs_basic", "co_hull", "eps_normal_intersection", "decompose"):
            layer = get(f"calculus.{part}")
            out[f"calculus.{part}.calls"] = per(layer.calls)
            out[f"calculus.{part}.busy_s"] = per(layer.busy)
            out[f"calculus.{part}.lp_solves"] = per(layer.lp_solves)
        for ident in IDENTITY_IDS:
            layer = get(f"identities.{ident}")
            out[f"identities.{ident}.checks"] = per(layer.calls)
            out[f"identities.{ident}.busy_s"] = per(layer.busy)
            out[f"identities.{ident}.lp_solves"] = per(layer.lp_solves)
        gen_busy = get("generator").busy + self.tables["setup"].get("generator", empty).busy
        out["generator.busy_s"] = per(gen_busy)
        out["serialize.busy_s"] = per(get("serialize").busy)
        out["trace_overhead_ratio"] = overhead_ratio
        return out
