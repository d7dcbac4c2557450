"""Strict JSON instance files, canonical serialization, and digests.

Rationals travel as "p/q" strings so files round-trip exactly.  The
schema is closed: any unknown key, wrong type, or dimension mismatch
raises before a single computation runs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import InvalidParameterError, SchemaError
from .family import FunctionFamily
from .functions import PolyhedralFunction
from .polyhedron import Polyhedron
from .rationals import (
    ExtendedRational,
    Vec,
    format_extended,
    format_rational,
    parse_rational,
)
from .reports import CheckReport

FILE_VERSION = 1


@dataclass(frozen=True)
class Instance:
    """One loaded instance file: a family plus optional set data."""

    family: FunctionFamily
    sets: tuple[tuple[str, Polyhedron], ...] = ()
    robust_b: Polyhedron | None = None


# ---------------------------------------------------------------------
# canonical JSON and digests
# ---------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Recursively rewrite engine values into JSON-safe primitives."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, ExtendedRational):
        return format_extended(obj)
    if isinstance(obj, Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, Polyhedron):
        # its integer rows are written as "p/q" strings, like every rational
        return {"dim": obj.dim, **{
            name: [[[format_rational(t) for t in a], format_rational(b)] for a, b in rows]
            for name, rows in (("ineqs", obj.ineqs), ("eqs", obj.eqs))
        }}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, float):
        raise InvalidParameterError("floats never enter serialized output")
    return str(obj)


def canonical_json(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def json_digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def report_to_json(report: CheckReport) -> dict[str, Any]:
    """JSONL record for one check; elapsed stays out so reruns match."""
    record: dict[str, Any] = {
        "identity": report.identity,
        "instance": report.instance_digest,
        "status": report.status.value,
    }
    if report.witness is not None:
        record["witness"] = to_jsonable(report.witness)
    if report.details is not None:
        record["details"] = to_jsonable(report.details)
    return record


# ---------------------------------------------------------------------
# strict readers
# ---------------------------------------------------------------------

def _expect_mapping(obj: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _check_keys(obj: Mapping[str, Any], required: Sequence[str],
                optional: Sequence[str], where: str) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{where}: unknown key {key!r}")


def _read_rational(obj: Any, where: str) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise SchemaError(f"{where}: expected a rational as \"p/q\" or integer")
    try:
        return parse_rational(str(obj))
    except (SchemaError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad rational {obj!r}") from exc


def _read_vec(obj: Any, dim: int, where: str) -> Vec:
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise SchemaError(f"{where}: expected a list of rationals")
    if len(obj) != dim:
        raise SchemaError(f"{where}: expected {dim} coordinates, got {len(obj)}")
    return tuple(_read_rational(v, where) for v in obj)


def _read_rows(obj: Any, dim: int, where: str) -> list[tuple[Vec, Fraction]]:
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise SchemaError(f"{where}: expected a list of rows")
    rows = []
    for i, row in enumerate(obj):
        m = _expect_mapping(row, f"{where}[{i}]")
        _check_keys(m, ("a", "b"), (), f"{where}[{i}]")
        rows.append((_read_vec(m["a"], dim, f"{where}[{i}].a"),
                     _read_rational(m["b"], f"{where}[{i}].b")))
    return rows


def _read_polyhedron(obj: Any, dim: int, where: str) -> Polyhedron:
    m = _expect_mapping(obj, where)
    _check_keys(m, (), ("ineqs", "eqs"), where)
    return Polyhedron.from_hrep(
        dim,
        _read_rows(m.get("ineqs", []), dim, f"{where}.ineqs"),
        _read_rows(m.get("eqs", []), dim, f"{where}.eqs"),
    )


def _read_function(obj: Any, dim: int, where: str) -> tuple[str, PolyhedralFunction]:
    m = _expect_mapping(obj, where)
    _check_keys(m, ("label", "pieces"), ("domain",), where)
    label = m["label"]
    if not isinstance(label, str) or not label:
        raise SchemaError(f"{where}.label: expected a nonempty string")
    pieces = _read_rows(m["pieces"], dim, f"{where}.pieces")
    if not pieces:
        raise SchemaError(f"{where}.pieces: at least one piece is required")
    domain = None
    if "domain" in m:
        domain = _read_polyhedron(m["domain"], dim, f"{where}.domain")
    return label, PolyhedralFunction.make(dim, pieces, domain)


def load_instance(data: Any) -> Instance:
    """Parse and validate one instance document, rejecting unknowns."""
    top = _expect_mapping(data, "instance")
    _check_keys(top, ("version", "dim", "functions"),
                ("order", "sets", "robust_B"), "instance")
    if top["version"] != FILE_VERSION:
        raise SchemaError(f"instance.version: expected {FILE_VERSION}")
    dim = top["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("instance.dim: expected a positive integer")
    raw_fns = top["functions"]
    if not isinstance(raw_fns, Sequence) or isinstance(raw_fns, str) or not raw_fns:
        raise SchemaError("instance.functions: expected a nonempty list")
    members = [
        _read_function(fn, dim, f"instance.functions[{i}]")
        for i, fn in enumerate(raw_fns)
    ]
    labels = [t for t, _ in members]
    if len(set(labels)) != len(labels):
        raise SchemaError("instance.functions: duplicate labels")

    edges: list[tuple[str, str]] = []
    increasing = False
    if "order" in top:
        m = _expect_mapping(top["order"], "instance.order")
        _check_keys(m, (), ("edges", "increasing"), "instance.order")
        raw_edges = m.get("edges", [])
        if not isinstance(raw_edges, Sequence) or isinstance(raw_edges, str):
            raise SchemaError("instance.order.edges: expected a list")
        for i, e in enumerate(raw_edges):
            if (not isinstance(e, Sequence) or isinstance(e, str) or len(e) != 2
                    or not all(isinstance(v, str) for v in e)):
                raise SchemaError(
                    f"instance.order.edges[{i}]: expected a [lo, hi] label pair"
                )
            edges.append((e[0], e[1]))
        increasing = m.get("increasing", False)
        if not isinstance(increasing, bool):
            raise SchemaError("instance.order.increasing: expected a boolean")

    sets: list[tuple[str, Polyhedron]] = []
    if "sets" in top:
        raw_sets = top["sets"]
        if not isinstance(raw_sets, Sequence) or isinstance(raw_sets, str):
            raise SchemaError("instance.sets: expected a list")
        for i, s in enumerate(raw_sets):
            m = _expect_mapping(s, f"instance.sets[{i}]")
            _check_keys(m, ("label",), ("ineqs", "eqs"), f"instance.sets[{i}]")
            label = m["label"]
            if not isinstance(label, str) or not label:
                raise SchemaError(f"instance.sets[{i}].label: expected a string")
            body = {k: v for k, v in m.items() if k != "label"}
            sets.append((label, _read_polyhedron(body, dim, f"instance.sets[{i}]")))
        if len({t for t, _ in sets}) != len(sets):
            raise SchemaError("instance.sets: duplicate labels")

    robust_b = None
    if "robust_B" in top:
        robust_b = _read_polyhedron(top["robust_B"], dim, "instance.robust_B")

    try:
        family = FunctionFamily.make(members, order_edges=edges,
                                     increasing=increasing)
    except InvalidParameterError as exc:
        raise SchemaError(f"instance.order: {exc}") from exc
    return Instance(family, tuple(sets), robust_b)


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return load_instance(data)


# ---------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------

def _rows_json(rows: Sequence[tuple[Vec, Fraction]]) -> list[dict[str, Any]]:
    return [
        {"a": [format_rational(c) for c in a], "b": format_rational(b)}
        for a, b in rows
    ]


def _polyhedron_json(p: Polyhedron) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if p.ineqs:
        out["ineqs"] = _rows_json(p.ineqs)
    if p.eqs:
        out["eqs"] = _rows_json(p.eqs)
    return out


def dump_instance(instance: Instance) -> dict[str, Any]:
    family = instance.family
    doc: dict[str, Any] = {
        "version": FILE_VERSION,
        "dim": family.dim,
        "functions": [
            {"label": t, "pieces": _rows_json(f.pieces),
             **({"domain": _polyhedron_json(f.domain)}
                if (f.domain.ineqs or f.domain.eqs) else {})}
            for t, f in family.members
        ],
    }
    if family.order_edges or family.increasing:
        doc["order"] = {
            "edges": [list(e) for e in family.order_edges],
            "increasing": family.increasing,
        }
    if instance.sets:
        doc["sets"] = [
            {"label": t, **_polyhedron_json(p)} for t, p in instance.sets
        ]
    if instance.robust_b is not None:
        doc["robust_B"] = _polyhedron_json(instance.robust_b)
    return doc
