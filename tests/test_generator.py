"""Seeded instance generation: determinism, audited flags, failure modes."""
import pytest

from supcalc.calculus import check_qc2
from supcalc.errors import GenerationError, InvalidParameterError
from supcalc.generator import GeneratorParams, generate
from supcalc.identities import check_identity
from supcalc.polyhedron import interior_point
from supcalc.serialize import json_digest


def test_same_seed_same_instance():
    p = GeneratorParams(dim=1, member_count=2, seed=1)
    assert json_digest(generate(p)) == json_digest(generate(p))


def test_labels_are_sequential():
    fam = generate(GeneratorParams(dim=1, member_count=2, seed=1))
    assert fam.labels == ("f1", "f2")


def test_distinct_seeds_differ():
    a = generate(GeneratorParams(dim=2, member_count=2, seed=0))
    b = generate(GeneratorParams(dim=2, member_count=2, seed=1))
    assert json_digest(a) != json_digest(b)


def test_force_increasing():
    p = GeneratorParams(
        dim=2, member_count=3, pieces_per_member=3, force_increasing=True, seed=7
    )
    assert generate(p).verify_increasing()


def test_force_epi_pointed():
    p = GeneratorParams(
        dim=2, member_count=2, domain_kind="full-space",
        force_epi_pointed=True, seed=11,
    )
    fam = generate(p)
    assert all(f.is_epi_pointed() is not None for _, f in fam.members)


def test_break_qc2():
    fam = generate(GeneratorParams(dim=2, member_count=3, break_qc2=True, seed=9))
    x = fam.sup.domain.vertices[0]
    assert not check_qc2(fam, x)
    assert check_identity("T53", fam, {"x": x}).status == "hypotheses-not-met"


def test_force_qc_flags():
    p = GeneratorParams(dim=2, member_count=3, force_qc1=True, force_qc2=True, seed=3)
    fam = generate(p)
    assert interior_point(fam.sup.domain) is not None
    assert check_qc2(fam, fam.sup.domain.vertices[0])


def test_increasing_with_broken_qc2():
    p = GeneratorParams(
        dim=1, member_count=3, force_increasing=True, break_qc2=True, seed=5
    )
    fam = generate(p)
    assert fam.verify_increasing()
    assert not check_qc2(fam, fam.sup.domain.vertices[0])


def test_contradictory_flags():
    with pytest.raises(GenerationError, match="mutually exclusive"):
        generate(GeneratorParams(force_qc2=True, break_qc2=True))


def test_break_qc2_needs_two_members():
    with pytest.raises(GenerationError):
        generate(GeneratorParams(member_count=1, break_qc2=True))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 9},
        {"dim": 0},
        {"member_count": 0},
        {"pieces_per_member": 0},
        {"domain_kind": "moebius"},
    ],
)
def test_param_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        GeneratorParams(**kwargs)


def test_flags_property():
    p = GeneratorParams(force_increasing=True, force_qc1=True)
    assert set(p.flags) == {"force_increasing", "force_qc1"}


@pytest.mark.parametrize("kind", ["box", "halfspaces", "full-space"])
def test_domain_kinds_produce_proper_sup(kind):
    fam = generate(GeneratorParams(dim=2, member_count=2, domain_kind=kind, seed=2))
    assert fam.sup.is_proper


@pytest.mark.parametrize("seed", range(4))
def test_generated_instances_drive_the_catalog(seed):
    fam = generate(
        GeneratorParams(dim=2, member_count=3, pieces_per_member=2, seed=seed)
    )
    r = check_identity("L2A", fam)
    assert r.status in ("pass", "hypotheses-not-met")
