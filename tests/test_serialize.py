"""Instance files, canonical JSON, and strict schema rejection."""
import json
from fractions import Fraction as Q

import pytest

from supcalc.errors import InvalidParameterError, SchemaError
from supcalc.family import FunctionFamily
from supcalc.functions import PolyhedralFunction
from supcalc.generator import GeneratorParams, generate
from supcalc.identities import check_identity
from supcalc.oracles import brute_generators
from supcalc.polyhedron import Polyhedron, polyhedron_equal
from supcalc.rationals import qv
from supcalc.serialize import (
    Instance,
    canonical_json,
    dump_instance,
    json_digest,
    load_instance,
    loads_instance,
    report_to_json,
    to_jsonable,
)

BASIC = {
    "version": 1,
    "dim": 1,
    "functions": [
        {"label": "p", "pieces": [{"a": ["1"], "b": "0"}]},
        {"label": "m", "pieces": [{"a": ["-1"], "b": "0"}]},
    ],
}

FULL = {
    "version": 1,
    "dim": 2,
    "functions": [
        {
            "label": "a",
            "pieces": [{"a": ["1", "0"], "b": "0"}],
            "domain": {"ineqs": [{"a": ["1", "0"], "b": "3"}]},
        },
        {"label": "b", "pieces": [{"a": ["0", "1/2"], "b": "-1"}]},
    ],
    "order": {"edges": [["a", "b"]], "increasing": True},
    "sets": [{"label": "C", "ineqs": [{"a": ["1", "1"], "b": "2"}]}],
    "robust_B": {"ineqs": [{"a": ["-1", "0"], "b": "1"}]},
}


def test_load_basic_instance():
    inst = load_instance(BASIC)
    assert sorted(inst.family.labels) == ["m", "p"]
    assert inst.family.sup.eval([Q(-2)]).finite_value() == 2
    assert inst.sets == () and inst.robust_b is None


def test_round_trip_and_digest():
    inst = load_instance(BASIC)
    redumped = dump_instance(inst)
    assert load_instance(redumped).family == inst.family
    assert json_digest(redumped) == json_digest(dump_instance(inst))


def test_full_instance_round_trip():
    inst = load_instance(FULL)
    assert inst.family.order_edges == (("a", "b"),)
    assert inst.family.increasing
    assert inst.sets[0][0] == "C"
    assert inst.robust_b is not None
    rt = load_instance(dump_instance(inst))
    assert rt.family == inst.family
    assert polyhedron_equal(rt.sets[0][1], inst.sets[0][1])
    assert polyhedron_equal(rt.robust_b, inst.robust_b)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: {**d, "extra": 1},
        lambda d: {**d, "version": 2},
        lambda d: {**d, "dim": "1"},
        lambda d: {**d, "functions": []},
        lambda d: {**d, "functions": [
            {"label": "p", "pieces": [{"a": ["1"], "b": "0"}], "junk": 1}
        ]},
        lambda d: {**d, "functions": [
            {"label": "p", "pieces": [{"a": ["0.5"], "b": "0"}]}
        ]},
        lambda d: {**d, "functions": d["functions"] * 2},
        lambda d: {**d, "order": {"edges": [["p", "zz"]]}},
        lambda d: {**d, "functions": [
            {"label": "p", "pieces": [{"a": ["1", "2"], "b": "0"}]}
        ]},
    ],
    ids=[
        "unknown-top-key", "bad-version", "dim-type", "empty-functions",
        "unknown-function-key", "float-literal", "duplicate-labels",
        "unknown-edge-label", "piece-arity",
    ],
)
def test_schema_rejection(mutate):
    with pytest.raises(SchemaError):
        load_instance(mutate(BASIC))


def test_schema_errors_carry_location():
    bad = {**BASIC, "functions": [
        {"label": "p", "pieces": [{"a": ["0.5"], "b": "0"}]}
    ]}
    with pytest.raises(SchemaError) as exc:
        load_instance(bad)
    assert "functions" in str(exc.value)


def test_bad_json_text():
    with pytest.raises(SchemaError):
        loads_instance("{not json")
    inst = loads_instance(json.dumps(BASIC))
    assert sorted(inst.family.labels) == ["m", "p"]


def test_generated_instances_serialize_deterministically():
    p = GeneratorParams(dim=2, member_count=3, seed=4)
    d1 = canonical_json(dump_instance(Instance(generate(p))))
    d2 = canonical_json(dump_instance(Instance(generate(p))))
    assert d1 == d2


def test_report_json_is_stable_and_elapsed_free(fam_abs):
    rep = check_identity("P34", fam_abs, {"x": [0], "eps": Q(1, 2)})
    record = report_to_json(rep)
    assert "elapsed" not in record
    again = report_to_json(
        check_identity("P34", fam_abs, {"x": [0], "eps": Q(1, 2)})
    )
    assert json.dumps(record, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_to_jsonable_rejects_floats():
    with pytest.raises(InvalidParameterError):
        canonical_json({"x": 0.5})
    assert to_jsonable(Q(1, 3)) == "1/3"


def test_instance_digest_of_fractional_and_empty_sets_is_pinned():
    # rows are written as "p/q" strings; the stored (1/2)x <= 1/3 reads 3x <= 2
    dom = Polyhedron.from_hrep(2, [(qv("1/2", 0), Q(1, 3))], [(qv(1, -1), Q(0))])
    fam = FunctionFamily.make([("f", PolyhedralFunction.make(2, [(qv(1, 0), Q(0))], dom))])
    inst = Instance(fam, (("E", Polyhedron.empty(2)),))
    assert json_digest(inst) == (
        "83f5fb9988fb0a4d27831e58fbfa348957be5a450387e4ffbd64096502630681"
    )


def test_brute_generators_of_stored_rows_stay_fractions():
    # the vertex (2/3, -1/3) and the ray (-1, 2) are reached by division
    p = Polyhedron.from_hrep(2, [(qv(2, 1), Q(1)), (qv(0, -3), Q(1))])
    points, rays = brute_generators(p.dim, p.ineqs, p.eqs)
    assert points == [qv("2/3", "-1/3")] and sorted(rays) == [qv(-1, 0), qv(-1, 2)]
    assert all(type(t) is Q for g in points + rays for t in g)
