"""End-to-end command-line behavior through main(), including exit codes."""
import hashlib
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import supcalc.cli as cli
import supcalc.identities as identities
from supcalc.cli import main
from supcalc.errors import GenerationError, IdentityFalsified, LPInternalError
from supcalc.generator import GeneratorParams, generate
from supcalc.serialize import Instance, canonical_json, dump_instance

from conftest import slope_chain

BASIC = {
    "version": 1,
    "dim": 1,
    "functions": [
        {"label": "p", "pieces": [{"a": ["1"], "b": "0"}]},
        {"label": "m", "pieces": [{"a": ["-1"], "b": "0"}]},
    ],
}


@pytest.fixture
def abs_file(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(BASIC), encoding="utf-8")
    return str(path)


@pytest.fixture
def disjoint_file(tmp_path):
    # x on x <= 0 and -x on x >= 1: the supremum is identically +inf
    doc = {**BASIC, "functions": [
        {**BASIC["functions"][0], "domain": {"ineqs": [{"a": ["1"], "b": "0"}]}},
        {**BASIC["functions"][1], "domain": {"ineqs": [{"a": ["-1"], "b": "-1"}]}},
    ]}
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    doc = dump_instance(Instance(slope_chain(4)))
    path = tmp_path / "chain.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


class TestEval:
    def test_values_and_active_labels(self, abs_file, capsys):
        assert main(["eval", "--instance", abs_file, "--point", "-2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "f(-2) = 2"
        assert out[1] == "active[eps=0] = m"
        assert "f*(0) = 0" in out

    def test_eps_widens_active_set(self, abs_file, capsys):
        main(["eval", "--instance", abs_file, "--point", "0", "--eps", "1/2"])
        out = capsys.readouterr().out.splitlines()
        assert set(out[1].split(" = ")[1].split(",")) == {"p", "m"}

    def test_negative_eps_is_a_usage_error(self, abs_file, capsys):
        code = main(["eval", "--instance", abs_file, "--point", "0", "--eps=-1/2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "eps" in err["error"]

    def test_negative_eps_outside_the_domain_is_a_usage_error(self, tmp_path, capsys):
        bounded = {**BASIC, "functions": [
            {**BASIC["functions"][0], "domain": {"ineqs": [{"a": ["1"], "b": "1"}]}},
            BASIC["functions"][1],
        ]}
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps(bounded), encoding="utf-8")
        code = main(["eval", "--instance", str(path), "--point", "5", "--eps=-1/2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert "eps" in err["error"]

    def test_improper_supremum_prints_no_conjugate(self, disjoint_file, capsys):
        assert main(["eval", "--instance", disjoint_file, "--point", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "f(0) = +inf",
            "active[eps=0] = (none)",
        ]

    def test_point_arity_mismatch(self, abs_file, capsys):
        assert main(["eval", "--instance", abs_file, "--point", "1,2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["eval", "--instance", missing, "--point", "0"]) == 2

    def test_bad_schema_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BASIC, "junk": 1}), encoding="utf-8")
        assert main(["eval", "--instance", str(path), "--point", "0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"


@pytest.mark.parametrize("command", [
    ["verify", "--identity", "P34"],
    ["plot", "subdiff"],
], ids=["verify", "plot-subdiff"])
def test_point_arity_mismatch_is_a_usage_error(command, abs_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(command + ["--instance", abs_file, "--out", out, "--point", "1,2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "point has 2 coordinates, instance dimension is 1",
        "kind": "usage",
    }


class TestVerify:
    def test_catalog_pass_run(self, abs_file, capsys):
        code = main(
            ["verify", "--instance", abs_file, "--identity", "L2A,L2B,P34",
             "--point", "0", "--eps", "1/2"]
        )
        assert code == 0
        lines = [json.loads(t) for t in capsys.readouterr().out.splitlines()]
        assert [r["identity"] for r in lines] == ["L2A", "L2B", "P34"]
        assert all(r["status"] == "pass" for r in lines)
        assert all("elapsed" not in r for r in lines)

    def test_t44_closure_check_on_chain(self, chain_file, capsys):
        code = main(
            ["verify", "--instance", chain_file, "--identity", "T44",
             "--point", "0"]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["status"] == "pass"
        assert rec["details"]["strict_stage_gap"] is True

    def test_hypotheses_not_met_is_exit_zero(self, abs_file, capsys):
        assert main(["verify", "--instance", abs_file, "--identity", "L2D"]) == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["status"] == "hypotheses-not-met"

    def test_break_qc2_instance_reports_hnm(self, tmp_path, capsys):
        fam = generate(GeneratorParams(dim=2, member_count=3, break_qc2=True, seed=9))
        path = tmp_path / "broken.json"
        path.write_text(canonical_json(dump_instance(Instance(fam))), encoding="utf-8")
        x = fam.sup.domain.vertices[0]
        point = ",".join(str(c) for c in x)
        code = main(
            ["verify", "--instance", str(path), "--identity", "T53",
             "--point", point]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["status"] == "hypotheses-not-met"

    def test_falsified_identity_exits_one(self, abs_file, capsys, monkeypatch):
        def sabotage(payload, params):
            raise IdentityFalsified("forced", certificate={"why": "forced"})

        monkeypatch.setitem(identities._CHECKERS, "L2A", sabotage)
        assert main(["verify", "--instance", abs_file, "--identity", "L2A"]) == 1
        rec = json.loads(capsys.readouterr().out.splitlines()[0])
        assert rec["status"] == "fail" and rec["witness"] == {"why": "forced"}

    def test_disjoint_member_domains_report_every_identity(self, tmp_path, capsys):
        # x on x <= 0 and -x on x >= 1: proper members, improper supremum
        disjoint = {**BASIC, "functions": [
            {**BASIC["functions"][0], "domain": {"ineqs": [{"a": ["1"], "b": "0"}]}},
            {**BASIC["functions"][1], "domain": {"ineqs": [{"a": ["-1"], "b": "-1"}]}},
        ]}
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(disjoint), encoding="utf-8")
        assert main(["verify", "--instance", str(path), "--identity", "ALL"]) == 0
        lines = [json.loads(t) for t in capsys.readouterr().out.splitlines()]
        assert len(lines) == 18
        assert {r["status"] for r in lines} <= {"hypotheses-not-met", "trivial-pass"}

    def test_out_file_matches_stdout(self, abs_file, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        main(["verify", "--instance", abs_file, "--identity", "ALL",
              "--point", "0", "--eps", "1/3", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == stdout

    def test_engine_error_stops_verify_after_the_lines_before_it(
        self, abs_file, tmp_path, capsys, monkeypatch
    ):
        # unlike fuzz, verify stops at an engine error: one JSON object
        # on stderr, exit 2, and the lines before it kept in --out
        real = cli.check_identity

        def failing_second(ident, payload, params):
            if ident == "L2B":
                raise LPInternalError("injected")
            return real(ident, payload, params)

        monkeypatch.setattr(cli, "check_identity", failing_second)
        out = tmp_path / "reports.jsonl"
        assert main(["verify", "--instance", abs_file, "--identity", "L2A,L2B,L2C",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "injected", "kind": "engine"}
        assert [json.loads(t)["identity"] for t in captured.out.splitlines()] == ["L2A"]
        assert out.read_text(encoding="utf-8") == captured.out

    def test_unknown_identity(self, abs_file, capsys):
        assert main(["verify", "--instance", abs_file, "--identity", "NOPE"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "L2A" in err["error"]


class TestFuzz:
    def test_deterministic_corpus(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["fuzz", "--seed", "42", "--count", "4",
                "--identity", "L2A,L2B,P34", "--dim-max", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        summary = capsys.readouterr().err
        assert "identity" in summary and "L2A" in summary

    def test_wide_corpus_matches_the_pinned_digest(self, tmp_path, capsys):
        # every identity up to dim 3, the T52/T53/R54 witnesses included:
        # any change to an answer or a witness in the JSONL shows here
        out = tmp_path / "wide.jsonl"
        assert main(["fuzz", "--seed", "2029", "--count", "40", "--identity", "ALL",
                     "--dim-max", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        blob = out.read_bytes()
        assert len(blob) == 171446
        assert hashlib.sha256(blob).hexdigest() == (
            "1e5e24b996d8009fde789300f830613b24729b9e00fd00dca5ae2de40b6c3eab"
        )

    def test_forced_corpus_matches_the_pinned_digest(self, tmp_path, capsys):
        # increasing families with epi-pointed members: L2D, L2F, T41 and
        # T44 meet their hypotheses here and read member ε-subdifferentials
        out = tmp_path / "forced.jsonl"
        assert main(["fuzz", "--seed", "2029", "--count", "20", "--identity", "ALL",
                     "--dim-max", "2", "--force-hypotheses", "--out", str(out)]) == 0
        tally = capsys.readouterr().err
        for ident in ("L2D", "L2F", "T41"):
            assert f"{ident:<10}{20:>6}{0:>6}{0:>6}" in tally
        blob = out.read_bytes()
        assert len(blob) == 85123
        assert hashlib.sha256(blob).hexdigest() == (
            "4afc1cba2b830c8459c6acc6c6bd55ada205dd6391e00f5f7f55e8828972156e"
        )

    def test_reports_carry_seed(self, capsys):
        main(["fuzz", "--seed", "7", "--count", "2", "--identity", "L2A"])
        lines = [json.loads(t) for t in capsys.readouterr().out.splitlines()]
        assert [r["seed"] for r in lines] == [7, 8]

    def test_count_cap(self, capsys):
        assert main(["fuzz", "--count", "100000"]) == 2

    def test_dim_max_validation(self, capsys):
        assert main(["fuzz", "--count", "1", "--dim-max", "9"]) == 2

    def test_generation_failure_exits_three(self, capsys, monkeypatch):
        def refuse(params):
            raise GenerationError("cannot draw")

        monkeypatch.setattr(cli, "generate", refuse)
        assert main(["fuzz", "--count", "1", "--identity", "L2A"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "generation"

    def test_engine_error_keeps_the_lines_before_it(self, tmp_path, capsys, monkeypatch):
        # an engine error in the second instance must not lose the first
        # instance's lines or its seed, on stdout or in --out; each failing
        # check gets its own line and the run goes on to exit 4
        real = cli.check_identity
        per_instance = len(identities.identity_ids())
        calls = []

        def failing_second_instance(ident, payload, params):
            calls.append(ident)
            if len(calls) > per_instance:
                raise LPInternalError("injected")
            return real(ident, payload, params)

        monkeypatch.setattr(cli, "check_identity", failing_second_instance)
        out = tmp_path / "corpus.jsonl"
        assert main(["fuzz", "--seed", "2026", "--count", "2", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        lines = [json.loads(t) for t in captured.out.splitlines()]
        assert len(lines) == 2 * per_instance
        first, second = lines[:per_instance], lines[per_instance:]
        assert {r["seed"] for r in first} == {2026}
        assert all(r["status"] != "engine-error" for r in first)
        assert second == [
            {"seed": 2027, "identity": ident, "status": "engine-error",
             "error": "LPInternalError", "message": "injected"}
            for ident in identities.identity_ids()
        ]
        assert out.read_text(encoding="utf-8") == captured.out
        tally = {row.split()[0]: row.split()[1:] for row in captured.err.splitlines()}
        assert tally["identity"][-1] == "engine"
        assert all(tally[ident][-1] == "1" for ident in identities.identity_ids())

    def test_engine_errors_below_the_dd_cap_are_reported_per_check(
        self, tmp_path, capsys, monkeypatch
    ):
        # with the cap at the dimension every check that converts in
        # dim + 1 raises CapacityError; the others still answer
        monkeypatch.setenv("SUPCALC_DD_CAP", "1")
        out = tmp_path / "f.jsonl"
        assert main(["fuzz", "--seed", "0", "--count", "1", "--identity", "ALL",
                     "--dim-max", "1", "--out", str(out)]) == 4
        capsys.readouterr()
        lines = [json.loads(t) for t in out.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 18 and {r["seed"] for r in lines} == {0}
        errors = [r["identity"] for r in lines if r["status"] == "engine-error"]
        assert len(errors) == 13
        assert all(r["error"] == "CapacityError" and "exceeds cap 1" in r["message"]
                   for r in lines if r["status"] == "engine-error")
        others = {r["identity"]: r["status"] for r in lines if r["status"] != "engine-error"}
        assert others == {"L2D": "hypotheses-not-met", "T44": "hypotheses-not-met",
                          "L2E": "trivial-pass", "C46": "pass", "RINF": "pass"}


@pytest.mark.parametrize("command", [
    ["verify", "--identity", "NOPE"],
    ["fuzz", "--count", "1", "--dim-max", "9"],
], ids=["verify", "fuzz"])
def test_out_is_not_opened_on_a_usage_error(command, abs_file, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    extra = ["--instance", abs_file] if command[0] == "verify" else []
    assert main(command + extra + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"
    assert not out.exists()


class TestPlot:
    @pytest.mark.parametrize("what", ["function", "conjugate"])
    def test_writes_svg(self, abs_file, tmp_path, what):
        out = tmp_path / f"{what}.svg"
        assert main(["plot", what, "--instance", abs_file, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_subdiff_plot(self, abs_file, tmp_path):
        out = tmp_path / "sub.svg"
        code = main(
            ["plot", "subdiff", "--instance", abs_file, "--out", str(out),
             "--point", "0", "--eps", "1/2"]
        )
        assert code == 0
        assert "<svg" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("what", ["function", "conjugate", "subdiff"])
    def test_improper_supremum_is_a_usage_error(self, disjoint_file, tmp_path, capsys, what):
        out = tmp_path / f"{what}.svg"
        assert main(["plot", what, "--instance", disjoint_file, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "usage"
        assert not out.exists()

    def test_deterministic_bytes(self, abs_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", "function", "--instance", abs_file, "--out", str(a)])
        main(["plot", "function", "--instance", abs_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_guard(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "dim": 3,
            "functions": [
                {"label": "f", "pieces": [{"a": ["1", "0", "0"], "b": "0"}]}
            ],
        }
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "x.svg"
        code = main(["plot", "function", "--instance", str(path), "--out", str(out)])
        assert code == 2


class TestUsage:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--point", "0"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_readme_verify_example(self, abs_file, capsys):
        # README's verify example runs on the BASIC instance; its lines must
        # be what the command prints today.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        code = main(["verify", "--instance", abs_file, "--identity", "L2A,P34",
                     "--point", "0", "--eps", "1/2"])
        assert code == 0
        l2a, p34 = capsys.readouterr().out.splitlines()
        assert l2a in readme.splitlines()
        assert f'"instance":"{json.loads(p34)["instance"]}"' in readme

    def test_package_exports_resolve(self):
        import supcalc

        missing = [name for name in supcalc.__all__ if not hasattr(supcalc, name)]
        assert missing == []

    def test_console_entry_point_is_wired(self):
        # The declaration in pyproject.toml is checked in every checkout, so
        # the suite needs no install; installed metadata, where present, must
        # agree with it.
        import importlib.metadata as md

        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        declared = scripts.get("supcalc")
        assert declared == "supcalc.cli:main"
        # Resolve the target the way the generated console script does.
        ep = md.EntryPoint(name="supcalc", value=declared, group="console_scripts")
        assert ep.load() is main

        try:
            dist = md.distribution("supcalc")
        except md.PackageNotFoundError:
            pass
        else:
            installed = [
                e for e in dist.entry_points
                if e.group == "console_scripts" and e.name == "supcalc"
            ]
            assert installed and installed[0].value == declared
