import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

# Run the CLI module from the source tree, so no installed script is needed.
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

_SCHEMA = json.loads(resources.files("incgrade").joinpath(
    "schemas/run_report.schema.json").read_text())


def run_cli(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "incgrade.cli", *argv],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc


def run_json(*argv, expect=0):
    proc = run_cli(*argv, "--format", "json", expect=expect)
    report = json.loads(proc.stdout)
    jsonschema.validate(report, _SCHEMA)
    assert report["timing_ms"] is None
    return report


class TestPosetCommands:
    def test_validate_fixture(self):
        report = run_json("validate", "--poset", "diamond")
        assert report["results"]["valid"] is True
        assert report["results"]["elements"] == ["bot", "a", "b", "top"]
        assert report["results"]["components"] == 1

    def test_validate_file(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({
            "elements": ["u", "v"], "covers": [[0, 1]]}))
        report = run_json("validate", "--poset", str(path))
        assert report["results"]["valid"] is True
        assert report["results"]["covers"] == [[0, 1]]

    def test_chains(self):
        report = run_json("chains", "--poset", "example")
        assert report["results"]["chains"] == [
            ["p1", "p4"], ["p2", "p3"], ["p2", "p4"]]

    def test_components(self):
        report = run_json("components", "--poset", "c2_disjoint_c3")
        assert report["results"]["components"] == [
            ["a1", "a2"], ["b1", "b2", "b3"]]

    def test_bound(self):
        assert run_json("bound", "--poset", "c4")["results"]["bound"] == 4

    def test_aut(self):
        report = run_json("aut", "--poset", "diamond")
        assert report["results"]["order"] == 2
        assert report["results"]["automorphisms"] == [
            [0, 1, 2, 3], [0, 2, 1, 3]]

    def test_chain_transitive_positive(self):
        report = run_json("chain-transitive", "--poset", "diamond")
        assert report["results"]["transitive"] is True
        assert len(report["results"]["witnesses"]) == 4

    def test_chain_transitive_negative(self):
        report = run_json("chain-transitive", "--poset", "example")
        assert report["results"]["transitive"] is False
        assert len(report["results"]["unreachable"]) == 2

    def test_mobius(self):
        report = run_json("mobius", "--poset", "c2")
        assert report["results"]["entries"] == [
            [0, 0, "1"], [0, 1, "-1"], [1, 1, "1"]]


class TestAlgebraCommands:
    def test_decompose_conjugation(self, tmp_path):
        # Conjugation by delta + e01 on the 2-chain, written out by hand.
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps([
            {"pair": [0, 0], "image": [[0, 0, "1"], [0, 1, "-1"]]},
            {"pair": [0, 1], "image": [[0, 1, "1"]]},
            {"pair": [1, 1], "image": [[0, 1, "1"], [1, 1, "1"]]},
        ]))
        report = run_json("decompose", "--poset", "c2",
                          "--morphism", str(path))
        assert report["results"]["sigma"] == [0, 1]
        assert report["results"]["r"] == [
            [0, 0, "1"], [0, 1, "1"], [1, 1, "1"]]
        assert report["results"]["s"] == [
            [0, 0, "1"], [0, 1, "1"], [1, 1, "1"]]

    def test_decompose_rejects_broken_morphism(self, tmp_path):
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps([
            {"pair": [0, 0], "image": [[0, 0, "1"]]},
            {"pair": [0, 1], "image": [[0, 1, "0"]]},
            {"pair": [1, 1], "image": [[1, 1, "1"]]},
        ]))
        proc = run_cli("decompose", "--poset", "c2", "--morphism", str(path),
                       expect=2)
        assert proc.stderr.startswith("error:")


class TestGradingCommands:
    def test_grade(self):
        report = run_json("grade", "--poset", "example", "--group", "C3",
                          "--theta", "1,h,h^2,1")
        assert report["results"]["support"] == ["1", "h", "h^2"]
        assert report["results"]["components"]["h"] == [[1, 2]]
        assert report["results"]["components"]["h^2"] == [[1, 3]]

    def test_count_verified(self):
        report = run_json("count", "--poset", "c3", "--group", "C2",
                          "--verify")
        assert report["results"] == {"count": 4, "verified": True}

    def test_classify(self):
        report = run_json("classify", "--poset", "c2", "--group", "C2")
        assert report["results"]["classes"] == 2
        assert report["results"]["representatives"] == [["1", "1"], ["1", "h"]]

    def test_equiv_negative(self):
        report = run_json("equiv", "--poset", "example", "--group", "C3",
                          "--theta", "1,1,h,1", "--mu", "1,1,h^2,1")
        assert report["results"] == {"equivalent": False, "witness": None}

    def test_equiv_positive(self):
        report = run_json("equiv", "--poset", "c2", "--group", "C3",
                          "--theta", "1,h", "--mu", "h,h^2")
        assert report["results"]["equivalent"] is True
        assert report["results"]["witness"]["shifts"] == ["h"]
        assert report["results"]["witness"]["sigma"] == [0, 1]


class TestIdentityCommands:
    def test_slice_full_when_component_squares_to_zero(self):
        report = run_json("slice", "--poset", "c2", "--group", "C2",
                          "--theta", "1,h", "--multidegree", "h,h")
        assert report["results"]["dimension"] == 2
        assert report["results"]["basis"] == [["1", "0"], ["0", "1"]]

    def test_slice_empty_for_trivial_grading(self):
        report = run_json("slice", "--poset", "c2", "--group", "C1",
                          "--theta", "1,1", "--multidegree", "1,1")
        assert report["results"]["dimension"] == 0

    def test_compare_identities(self):
        report = run_json("compare-identities", "--poset", "c2",
                          "--group", "C2", "--theta", "1,1", "--mu", "1,h",
                          "--max-degree", "1")
        assert report["results"] == {
            "equal": False, "max_degree": 1, "first_difference": ["h"]}

    def test_monomials(self):
        report = run_json("monomials", "--poset", "c2", "--group", "C2",
                          "--theta", "1,h")
        assert report["results"]["identities"] == [
            ["h", "h"],
            ["1", "h", "h"], ["h", "1", "h"], ["h", "h", "1"],
            ["h", "h", "h"]]

    def test_verify_reduction_seeded_sweep(self):
        report = run_json("verify-reduction", "--poset", "diamond",
                          "--group", "C2", "--seed", "3")
        assert report["results"]["all_equal"] is True
        assert len(report["results"]["checks"]) >= 3
        assert report["inputs"]["seed"] == 3

    def test_verify_reduction_explicit(self):
        report = run_json("verify-reduction", "--poset", "example",
                          "--group", "C3", "--theta", "1,h,h^2,1",
                          "--multidegree", "1,1")
        check = report["results"]["checks"][0]
        assert check["whole_dimension"] == 0
        assert check["chain_dimensions"] == [0, 1, 1]
        assert check["intersection_dimension"] == 0
        assert check["equal"] is True

    def test_transitivity_check_separated(self):
        report = run_json("transitivity-check", "--poset", "c2",
                          "--group", "C2")
        assert report["results"]["separated"] is True
        assert report["results"]["unseparated"] == []

    def test_transitivity_check_findings_exit_one(self):
        report = run_json("transitivity-check", "--poset", "diamond",
                          "--group", "C2", expect=1)
        assert report["results"]["separated"] is False
        got = {(tuple(a), tuple(b))
               for a, b in report["results"]["unseparated"]}
        assert got == {
            (("1", "1", "1", "h"), ("1", "1", "h", "h")),
            (("1", "1", "1", "h"), ("1", "h", "h", "h")),
            (("1", "1", "h", "1"), ("1", "h", "h", "1")),
            (("1", "1", "h", "h"), ("1", "h", "h", "h")),
        }


class TestCliContract:
    def test_json_output_is_deterministic(self):
        first = run_cli("classify", "--poset", "diamond", "--group", "C2",
                        "--format", "json")
        second = run_cli("classify", "--poset", "diamond", "--group", "C2",
                         "--format", "json")
        assert first.stdout == second.stdout

    def test_seeded_commands_are_reproducible(self):
        argv = ("verify-reduction", "--poset", "c3", "--group", "C2",
                "--seed", "7", "--format", "json")
        assert run_cli(*argv).stdout == run_cli(*argv).stdout

    def test_version_and_command_echo(self):
        report = run_json("bound", "--poset", "c1")
        assert report["command"] == "bound"
        assert report["inputs"] == {"poset": "c1"}
        assert report["version"]

    def test_table_format_has_timing(self):
        proc = run_cli("count", "--poset", "c2", "--group", "C2")
        assert "command: count" in proc.stdout
        assert "elapsed:" in proc.stdout
        assert "count: 2" in proc.stdout

    def test_unknown_fixture_is_usage_error(self):
        proc = run_cli("bound", "--poset", "nope", expect=2)
        assert proc.stderr.startswith("error:")

    def test_missing_required_flag_is_usage_error(self):
        proc = run_cli("count", "--poset", "c2", expect=2)
        assert "requires --group" in proc.stderr

    def test_bad_group_element_is_usage_error(self):
        proc = run_cli("grade", "--poset", "c2", "--group", "C2",
                       "--theta", "1,z", expect=2)
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("spec", [
        '{"names": ["1", "h"]}',
        '{"names": ["1", "h"], "table": 5}',
        '{"names": ["1", "h"], "table": [[0, 1], [1, 0.5]]}',
    ], ids=["missing-key", "non-list-table", "non-integer-entry"])
    def test_malformed_group_json_is_usage_error(self, spec):
        proc = run_cli("classify", "--poset", "c2", "--group", spec, expect=2)
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_malformed_poset_file_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("validate", "--poset", str(path), expect=2)
        assert proc.stderr.startswith("error:")

    def test_unknown_command_is_usage_error(self):
        proc = run_cli("frobnicate", expect=2)
        assert "invalid choice" in proc.stderr
