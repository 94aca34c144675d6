import io
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from incgrade import algebra, grading, poset, zeta
from incgrade.cli import COMMANDS, FLAGS, UsageError, _plain, main, parse_args
from incgrade.corpus import corpus_posets

from test_readme import COMMANDS as README_COMMANDS
from util import argparse_reading, morphism_json

# Run the CLI module from the source tree, so no installed script is needed.
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

_SCHEMA = json.loads(resources.files("incgrade").joinpath(
    "schemas/run_report.schema.json").read_text())


def c2_morphism(entry):
    """The identity morphism on the 2-chain with entry added to the image
    of e(0,0)."""
    return [{"pair": [0, 0], "image": [[0, 0, "1"], entry]},
            {"pair": [0, 1], "image": [[0, 1, "1"]]},
            {"pair": [1, 1], "image": [[1, 1, "1"]]}]


def run_cli(*argv, expect=0, env=ENV):
    proc = subprocess.run([sys.executable, "-m", "incgrade.cli", *argv],
                          capture_output=True, text=True, env=env)
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

    def test_long_chain(self, tmp_path):
        # More elements than the default recursion limit of 1000 frames.
        labels = [f"x{i}" for i in range(1100)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "elements": labels, "covers": [[i, i + 1] for i in range(1099)]}))
        report = run_json("chains", "--poset", str(path))
        assert report["results"]["chains"] == [labels]

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
        # One line naming the decomposition step that fails, no traceback.
        delta = [[0, 0, "1"], [1, 1, "1"]]
        tables = {
            "residual map does not scale e(0,1)": [
                {"pair": [0, 0], "image": [[0, 0, "1"]]},
                {"pair": [0, 1], "image": [[0, 1, "0"]]},
                {"pair": [1, 1], "image": [[1, 1, "1"]]}],
            "image of e(0,0) has no unique unit diagonal entry": [
                {"pair": pair, "image": delta}
                for pair in ([0, 0], [0, 1], [1, 1])],
        }
        path = tmp_path / "morphism.json"
        for step, table in tables.items():
            path.write_text(json.dumps(table))
            proc = run_cli("decompose", "--poset", "c2",
                           "--morphism", str(path), expect=2)
            assert proc.stderr == f"error: {step}\n"
            assert "Traceback" not in proc.stderr

    def test_rational_past_a_lowered_digit_limit_is_refused(self, tmp_path):
        # The digit limit is the interpreter's, here lowered to 640.
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(c2_morphism([0, 1, "1" * 1000])))
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m",
             "incgrade.cli", "decompose", "--poset", "c2", "--morphism",
             str(path)], capture_output=True, text=True, env=ENV)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: rational part has more than 640 digits\n")


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

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Sets and dicts of strings iterate in an order set by
        # PYTHONHASHSEED; no command's output may follow it.
        diamond = corpus_posets()["diamond"]
        phi = algebra.induced_auto(diamond, (0, 2, 1, 3)).compose(
            algebra.inner_auto(zeta(diamond)))
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(morphism_json(phi)))
        commands = [
            ("classify", "--poset", "example", "--group", "C3"),
            ("aut", "--poset", "antichain4"),
            ("slice", "--poset", "diamond", "--group", "C2xC2",
             "--theta", "1|1,1|h,h|1,h|h", "--multidegree", "1|h,h|1,h|h"),
            ("verify-reduction", "--poset", "diamond", "--group", "S3",
             "--seed", "5", "--max-degree", "3"),
            ("decompose", "--poset", "diamond", "--morphism", str(path)),
        ]
        for argv in commands:
            runs = {(proc.returncode, proc.stdout) for proc in (
                run_cli(*argv, "--format", "json",
                        env={**ENV, "PYTHONHASHSEED": seed})
                for seed in ("0", "4242"))}
            assert len(runs) == 1, argv

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
        '{"names": [1, "h"], "table": [[0, 1], [1, 0]]}',
        '{"names": ' + "[" * 5000,
        '{"names": ["1"], "table": [[' + "1" * 5000 + "]]}",
    ], ids=["missing-key", "non-list-table", "non-integer-entry",
            "non-string-name", "nested-too-deep", "over-long-integer"])
    def test_malformed_group_json_is_usage_error(self, spec):
        proc = run_cli("classify", "--poset", "c2", "--group", spec, expect=2)
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "set_int_max_str_digits" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["equiv", "--poset", "c2", "--group", "C2", "--theta", "1,h",
          "--mu", "h"],
         "a grading needs one value per poset element: got 1 for 2 elements"),
        (["compare-identities", "--poset", "c2", "--group", "C2",
          "--theta", "1,h", "--mu", "1,h,h"],
         "a grading needs one value per poset element: got 3 for 2 elements"),
        (["classify", "--poset", "c2", "--group", "S0"],
         "symmetric group degree must be between 1 and 4"),
        (["classify", "--poset", "c2", "--group", "C1xS0"],
         "symmetric group degree must be between 1 and 4"),
        (["classify", "--poset", "c2", "--group", "S5"],
         "symmetric groups supported up to S4"),
        # An empty value is read like any other, not taken as absent.
        (["verify-reduction", "--poset", "c2", "--group", "C2", "--theta="],
         "unknown group element ''"),
        (["verify-reduction", "--poset", "c2", "--group", "C2",
          "--multidegree="],
         "unknown group element ''"),
    ], ids=["equiv-mu", "compare-identities-mu", "S0", "C1xS0", "S5",
            "verify-reduction-empty-theta",
            "verify-reduction-empty-multidegree"])
    def test_input_error_names_the_bad_input(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    # Two bad inputs, each named differently: the earlier one in the order
    # poset, group, theta, mu, multidegree, degree cap is reported.
    @pytest.mark.parametrize("argv", [
        ["compare-identities", "--poset", "c2", "--group", "C2",
         "--theta", "1,q", "--mu", "1,z", "--max-degree", "9"],
        ["slice", "--poset", "c2", "--group", "C2", "--theta", "1,q",
         "--multidegree", "h,h,h,h,h"],
        ["slice", "--poset", "c2", "--group", "C2", "--theta", "1,h",
         "--multidegree", "h,q,h,h,h"],
        ["verify-reduction", "--poset", "c2", "--group", "C2",
         "--multidegree", "q", "--max-degree", "9"],
    ], ids=["theta-before-mu-and-cap", "theta-before-cap",
            "multidegree-before-cap", "multidegree-before-max-degree"])
    def test_earliest_bad_input_is_named(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: unknown group element 'q'\n")

    def test_group_axiom_violation_is_usage_error(self, capsys):
        spec = json.dumps({"names": ["e", "a"], "table": [[0, 0], [1, 1]]})
        assert main(["classify", "--poset", "c2", "--group", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no identity element\n"

    @pytest.mark.parametrize("spec, order", [
        ("C257", 257),
        ("C16xC17", 272),
        (json.dumps({"names": [str(k) for k in range(257)], "table": []}), 257),
    ], ids=["cyclic", "product", "json"])
    def test_group_order_cap_is_checked_before_building(self, spec, order,
                                                         monkeypatch, capsys):
        def build(*args):
            raise AssertionError("built a group past the order cap")

        monkeypatch.setattr("incgrade.grading.FiniteGroup", build)
        assert main(["classify", "--poset", "c2", "--group", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: group order {order} exceeds the cap of 256 elements\n")

    @pytest.mark.parametrize("document, message", [
        ({"elements": ["a", "b"], "covers": [[0, 1]], "relation": []},
         "poset JSON must have one of 'covers' and 'relation', not both"),
        ({"elements": ["a", "b"]},
         "poset JSON needs a 'covers' or 'relation' key"),
    ], ids=["both", "neither"])
    def test_poset_json_names_one_relation(self, document, message, tmp_path,
                                           capsys):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(document))
        assert main(["validate", "--poset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_malformed_poset_file_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("validate", "--poset", str(path), expect=2)
        assert proc.stderr.startswith("error:")

    def test_unknown_command_is_usage_error(self):
        proc = run_cli("frobnicate", expect=2)
        assert "invalid choice" in proc.stderr

    @pytest.mark.parametrize("flag, content", [
        ("--poset", {"covers": [[0, 1]]}),
        ("--poset", {"elements": ["a", "b"], "covers": [["x", 1]]}),
        ("--poset", [1, 2]),
        ("--poset", {"elements": [[1], {"a": 2}], "covers": []}),
        ("--morphism", {"foo": 1}),
        ("--morphism", c2_morphism([0, 0, "1/0"])),
        ("--morphism", c2_morphism([2, 0, "1"])),
        ("--morphism", c2_morphism([-2, -2, "1"])),
        ("--morphism", c2_morphism([0, 0, "5"])),
        ("--morphism", c2_morphism([0, 1, "0"])
         + [{"pair": [0, 0], "image": [[0, 0, "1"]]}]),
        ("--morphism", c2_morphism([0, 1, "1e100000000"])),
        ("--morphism", c2_morphism([0, 1, "1.5"])),
        ("--morphism", c2_morphism([0, 1, "1" * 5000])),
        # Raw text: json.dumps cannot build documents nested this deep, and
        # json.loads cannot read back integers this long.
        ("--poset", "[" * 100000),
        ("--morphism", "[" * 100000),
        ("--poset", '{"elements": ["a", "b"], "covers": [[0, 1%s]]}'
         % ("0" * 5000)),
        ("--morphism", json.dumps(c2_morphism([0, 1, "1"])).replace(
            '[0, 1, "1"]]', '[0, 1%s, "1"]]' % ("0" * 5000), 1)),
    ], ids=["poset-missing-elements", "poset-non-integer-cover",
            "poset-top-level-list", "poset-non-string-element",
            "morphism-not-a-list",
            "morphism-zero-denominator", "morphism-index-too-large",
            "morphism-negative-index", "morphism-repeated-entry",
            "morphism-repeated-pair", "morphism-exponent-entry",
            "morphism-decimal-entry", "morphism-over-long-entry",
            "poset-nested-too-deep", "morphism-nested-too-deep",
            "poset-over-long-integer", "morphism-over-long-integer"])
    def test_malformed_input_json_is_usage_error(self, tmp_path, flag, content):
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        argv = (["validate"] if flag == "--poset"
                else ["decompose", "--poset", "c2"])
        proc = run_cli(*argv, flag, str(path), expect=2)
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "set_int_max_str_digits" not in proc.stderr

    @pytest.mark.parametrize("argv, redirect, code, err", [
        (["validate", "--poset", "c2"], ">&-", 2,
         "error: cannot write the report: the stream is closed\n"),
        (["validate", "--poset", "c2"], ">/dev/full", 2,
         "error: cannot write the report: [Errno 28] No space left on device\n"),
        (["validate", "--poset", "nonexist"], "2>&-", 2, None),
        (["validate", "--poset", "c2"], ">&- 2>&-", 2, None),
        # No redirect: stdout is a pipe whose reader is gone before the
        # first write.
        (["aut", "--poset", "antichain4", "--format", "json"], "", 0, ""),
    ], ids=["stdout-closed", "stdout-full", "stderr-closed-bad-input",
            "both-closed", "pipe-closed-early"])
    def test_stream_state_exit_code(self, argv, redirect, code, err):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                ["sh", "-c", f'exec "$@" {redirect}',
                 "sh", sys.executable, "-m", "incgrade.cli", *argv],
                stdout=write_end if not redirect else subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=ENV)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if err is not None:
            assert proc.stderr == err

    def test_report_the_stream_cannot_encode_exits_two(self, tmp_path,
                                                       monkeypatch, capsys):
        # The table echoes the path as given; json.dumps escapes the rest.
        path = tmp_path / "\xe9.json"
        path.write_text(json.dumps({"elements": ["a"], "covers": []}))
        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main(["validate", "--poset", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write the report: 'ascii' codec can't encode")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_over_long_result_is_refused_on_one_line(self, fmt, tmp_path):
        # 256**299, 721 digits, past the lowest limit the interpreter takes.
        path = tmp_path / "chain300.json"
        path.write_text(json.dumps({"elements": [str(i) for i in range(300)],
                                    "covers": [[i, i + 1] for i in range(299)]}))
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "incgrade.cli",
             "count", "--poset", str(path), "--group", "C256", "--format", fmt],
            capture_output=True, text=True, env=ENV)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: a result has an integer of more than "
                               "640 digits, too long to write\n")

    @pytest.mark.parametrize("argv", [
        ["validate", "--poset"],
        ["decompose", "--poset", "c2", "--morphism"],
    ], ids=["poset", "morphism"])
    def test_undecodable_json_names_its_file(self, argv, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text("[")
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: Expecting value: line 1 column 2 (char 1)\n")

    def test_path_with_a_nul_byte_is_usage_error(self, capsys):
        argv = ["decompose", "--poset", "c2", "--morphism", "a\0b"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 'a\\x00b': embedded null byte\n")

    def test_report_beyond_the_pipe_buffer_arrives_whole(self, tmp_path,
                                                         capsys):
        # 5,040 automorphisms: far more than a 64 KiB pipe buffer, all of
        # it flushed before the process ends without interpreter teardown.
        path = tmp_path / "antichain7.json"
        path.write_text(json.dumps({"elements": list("abcdefg"), "covers": []}))
        argv = ["aut", "--poset", str(path), "--format", "json"]
        proc = run_cli(*argv)
        assert len(proc.stdout) > 65536
        assert json.loads(proc.stdout)["results"]["order"] == 5040
        assert main(argv) == 0
        assert capsys.readouterr().out == proc.stdout

    @pytest.mark.parametrize("argv, code", [
        (["validate", "--poset", "c2"], 0),
        (["transitivity-check", "--poset", "diamond", "--group", "C2"], 1),
        (["bound", "--poset", "nope"], 2),
        (["count", "--poset", "c2"], 2),
    ], ids=["success", "counterexample", "bad-input", "usage"])
    def test_process_and_in_process_runs_agree(self, argv, code, capsys):
        proc = run_cli(*argv, "--format", "json", expect=code)
        assert main([*argv, "--format", "json"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (proc.stdout, proc.stderr)

    def test_negative_max_degree_is_usage_error(self):
        proc = run_cli("monomials", "--poset", "c2", "--group", "C2",
                       "--theta", "1,h", "--max-degree", "-1", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            "incgrade: error: argument --max-degree: must not be negative: -1")

    @pytest.mark.parametrize("argv, message", [
        (["count", "--poset", "c2"], "count requires --group"),
        (["monomials", "--poset", "c2", "--group", "C2", "--theta", "1,h",
          "--max-degree", "-1"], "argument --max-degree: must not be negative"),
        (["monomials", "--poset", "c2", "--group", "C2", "--theta", "1,h",
          "--max-degree", "two"], "argument --max-degree: invalid int value"),
        (["frobnicate"], "argument command: invalid choice"),
    ], ids=["missing-flag", "negative-max-degree", "bad-max-degree",
            "unknown-command"])
    def test_usage_error_is_one_line(self, argv, message):
        proc = run_cli(*argv, expect=2)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"incgrade: error: {message}")

    def test_zero_max_degree_is_accepted(self):
        report = run_json("compare-identities", "--poset", "c2", "--group",
                          "C2", "--theta", "1,h", "--mu", "1,1",
                          "--max-degree", "0")
        assert report["results"]["equal"] is True

    def test_verify_reduction_checks_cap_before_sweeping(self, monkeypatch,
                                                          capsys):
        # An explicit multidegree is checked by its own length only.
        assert main(["verify-reduction", "--poset", "diamond", "--group",
                     "C2", "--multidegree", "h,h", "--max-degree", "9",
                     "--format", "json"]) == 0
        capsys.readouterr()

        def sweep(*args, **kwargs):
            raise AssertionError("swept before checking the cap")

        monkeypatch.setattr("incgrade.identities.verify_chain_reduction", sweep)
        assert main(["verify-reduction", "--poset", "diamond", "--group",
                     "C2", "--max-degree", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: multidegree length 9 exceeds the cap 4\n"

    @pytest.mark.parametrize("argv", [
        ["slice", "--poset", "c2", "--group", "C2", "--theta", "1,h",
         "--multidegree", "h,1,h,1,h"],
        ["verify-reduction", "--poset", "diamond", "--group", "C2",
         "--multidegree", "1,1,1,1,1"],
        ["compare-identities", "--poset", "c2", "--group", "C2", "--theta",
         "1,h", "--mu", "1,1", "--max-degree", "5"],
        ["verify-reduction", "--poset", "diamond", "--group", "C2",
         "--max-degree", "5"],
        ["monomials", "--poset", "c2", "--group", "C2", "--theta", "1,h",
         "--max-degree", "5"],
    ], ids=["slice", "verify-reduction-multidegree", "compare-identities",
            "verify-reduction-sweep", "monomials"])
    def test_degree_cap_is_checked_in_the_cli(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: multidegree length 5 exceeds the cap 4\n"

    def test_transitivity_check_degree_is_not_capped(self, tmp_path, capsys):
        # The probe's degree is bound(P), 5 on a 5-chain, above the cap.
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({
            "elements": list("abcde"),
            "covers": [[i, i + 1] for i in range(4)]}))
        code = main(["transitivity-check", "--poset", str(path), "--group",
                     "C2", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert report["results"]["degree"] == 5

    @pytest.mark.parametrize("argv, message", [
        (["aut", "--poset", "antichain4"], "4 automorphisms"),
        (["classify", "--poset", "antichain4", "--group", "C1"],
         "4 automorphisms"),
        (["chains", "--poset", "antichain4"], "4 maximal chains"),
        (["chain-transitive", "--poset", "diamond"], "4 chain pairs"),
    ], ids=["aut", "classify", "chains", "chain-transitive"])
    def test_budget_refusal_is_one_line(self, argv, message, monkeypatch,
                                        capsys):
        monkeypatch.setattr(poset, "MAX_MAPS", 3)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {message} exceed the enumeration budget 3\n")

    @pytest.mark.parametrize("argv, message", [
        (["monomials", "--poset", "c1", "--group", "C32", "--theta", "1",
          "--max-degree", "4"], "1082400 words"),
        (["transitivity-check", "--poset", "c14.json", "--group", "C2"],
         "268419072 word sweeps"),
    ], ids=["monomials", "transitivity-check"])
    def test_degree_sweep_is_bounded(self, argv, message, tmp_path,
                                     monkeypatch, capsys):
        # C32 has 32 + 32^2 + 32^3 + 32^4 words up to degree 4; a 14-chain
        # has 2^13 classes over C2, each swept over 2^15 - 2 words.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c14.json").write_text(json.dumps({
            "elements": [f"c{i}" for i in range(14)],
            "covers": [[i, i + 1] for i in range(13)]}))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {message} exceed the enumeration budget 1000000\n")

    @pytest.mark.parametrize("argv, content", [
        (["validate", "--poset"], b'\xff\xfe{"elements": [], "covers": []}'),
        (["validate", "--poset"],
         '{"elements": ["\xe9"], "covers": []}'.encode("latin-1")),
        (["decompose", "--poset", "c1", "--morphism"],
         '[{"pair": [0, 0], "image": [[0, 0, "1"]]}] \xe9'.encode("latin-1")),
    ], ids=["poset-utf16-bom", "poset-latin1-label", "morphism-latin1"])
    def test_input_that_is_not_utf8_is_usage_error(self, argv, content,
                                                   tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8")
        assert len(captured.err.splitlines()) == 1

    def test_failed_self_check_exits_one(self, monkeypatch, capsys):
        # invert checks its result against the unit; compare with zeta.
        monkeypatch.setattr(algebra, "delta", zeta)
        assert main(["mobius", "--poset", "c2", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == {
            "error": "inverse failed verification against the unit"}

    def test_failed_equivalence_certificate_exits_one(self, monkeypatch,
                                                      capsys):
        # equivalent checks the witness it found before returning it.
        monkeypatch.setattr(grading.EquivalenceWitness, "check",
                            lambda self, theta, mu: False)
        assert main(["equiv", "--poset", "c2", "--group", "C2", "--theta",
                     "1,h", "--mu", "h,1", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == {
            "error": "equivalence witness fails its check"}


# One valid invocation per case, and the "inputs" it must echo, in order.
# The case named after a command is its base invocation.
_C2 = ["--poset", "c2", "--group", "C2"]
ECHO_CASES = {
    "validate": (["validate", "--poset", "c2"], {"poset": "c2"}),
    "chains": (["chains", "--poset", "c2"], {"poset": "c2"}),
    "components": (["components", "--poset", "c2"], {"poset": "c2"}),
    "bound": (["bound", "--poset", "c2"], {"poset": "c2"}),
    "aut": (["aut", "--poset", "c2"], {"poset": "c2"}),
    "chain-transitive": (["chain-transitive", "--poset", "c2"],
                         {"poset": "c2"}),
    "mobius": (["mobius", "--poset", "c2"], {"poset": "c2"}),
    "decompose": (["decompose", "--poset", "c2", "--morphism", "m.json"],
                  {"poset": "c2", "morphism": "m.json"}),
    "grade": (["grade", *_C2, "--theta", "1,h"],
              {"poset": "c2", "group": "C2", "theta": "1,h"}),
    "count": (["count", *_C2],
              {"poset": "c2", "group": "C2", "verify": False}),
    "count-verify": (["count", *_C2, "--verify"],
                     {"poset": "c2", "group": "C2", "verify": True}),
    "classify": (["classify", *_C2], {"poset": "c2", "group": "C2"}),
    "equiv": (["equiv", *_C2, "--theta", "1,h", "--mu", "h,1"],
              {"poset": "c2", "group": "C2", "theta": "1,h", "mu": "h,1"}),
    "slice": (["slice", *_C2, "--theta", "1,h", "--multidegree", "h,h"],
              {"poset": "c2", "group": "C2", "theta": "1,h",
               "multidegree": "h,h"}),
    "compare-identities": (
        ["compare-identities", *_C2, "--theta", "1,h", "--mu", "1,1",
         "--max-degree", "2"],
        {"poset": "c2", "group": "C2", "theta": "1,h", "mu": "1,1",
         "max_degree": 2}),
    "verify-reduction": (
        ["verify-reduction", *_C2, "--theta", "1,h", "--seed", "5",
         "--max-degree", "2"],
        {"poset": "c2", "group": "C2", "max_degree": 2, "theta": "1,h"}),
    "verify-reduction-theta-multidegree": (
        ["verify-reduction", *_C2, "--theta", "1,h", "--multidegree", "h,h"],
        {"poset": "c2", "group": "C2", "max_degree": 3, "theta": "1,h",
         "multidegree": "h,h"}),
    "verify-reduction-default-seed": (
        ["verify-reduction", *_C2, "--max-degree", "2"],
        {"poset": "c2", "group": "C2", "max_degree": 2, "seed": 0}),
    "verify-reduction-seed-multidegree": (
        ["verify-reduction", *_C2, "--seed", "5", "--multidegree", "h,h"],
        {"poset": "c2", "group": "C2", "max_degree": 3, "seed": 5,
         "multidegree": "h,h"}),
    "monomials": (["monomials", *_C2, "--theta", "1,h"],
                  {"poset": "c2", "group": "C2", "theta": "1,h",
                   "max_degree": 3}),
    "transitivity-check": (["transitivity-check", *_C2],
                           {"poset": "c2", "group": "C2"}),
}

# The identity automorphism of the 2-chain.
_IDENTITY_MORPHISM = [
    {"pair": [0, 0], "image": [[0, 0, "1"]]},
    {"pair": [0, 1], "image": [[0, 1, "1"]]},
    {"pair": [1, 1], "image": [[1, 1, "1"]]},
]


class TestCommandTable:
    def test_every_command_has_a_base_case(self):
        assert set(COMMANDS) <= set(ECHO_CASES)
        assert {argv[0] for argv, _ in ECHO_CASES.values()} == set(COMMANDS)

    @pytest.mark.parametrize("case", sorted(ECHO_CASES))
    def test_inputs_echo(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(json.dumps(_IDENTITY_MORPHISM))
        argv, expected = ECHO_CASES[case]
        assert main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, _SCHEMA)
        assert list(report["inputs"].items()) == list(expected.items())

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, required, _) in COMMANDS.items()
        for flag in required])
    def test_each_required_flag_is_enforced(self, command, flag, capsys):
        argv = ECHO_CASES[command][0]
        at = argv.index(f"--{flag.replace('_', '-')}")
        assert main(argv[:at] + argv[at + 2:]) == 2
        assert capsys.readouterr() == (
            "", f"incgrade: error: {command} requires "
            f"--{flag.replace('_', '-')}\n")


# Arguments the reading test draws from: every flag spelled out, cut to a
# prefix (ambiguous or not) and given with "="; values that look like
# flags, negative numbers, have spaces or are not a choice as written;
# "--", "-" and -h in its forms.
ARGV_TOKENS = [
    "validate", "count", "compare-identities", "frobnicate", "--poset",
    "--pos", "--p", "--poset=c2", "--pos=c2", "--poset=", "c2", "--group",
    "--g", "C2", "--theta", "--t", "1,h", "-1,h", "--mu", "--m", "--m=x",
    "--mo", "--multidegree", "--mul", "--morphism", "m.json", "--max-degree",
    "--ma", "--max-degree=-1", "-1", "-5", "3", "two", "-1.5", "-.5",
    "--verify", "--ver", "--verify=x", "--verify=", "--format", "--f",
    "json", "xml", "--format=json", "--seed", "--s", "--seed=7", "7", "--",
    "-", "-h", "--help", "--he", "--h", "-hh", "-hx", "-h=", "-h=x", "-hhx",
    "--help=x", "-x", "-x=5", "---x", "--=x", "--bogus", "a b", "-a b", "",
    "-5\n", "x", "9" * 40, " -3", "JSON"]


def reading(argv):
    """How parse_args reads argv, in argparse_reading's terms."""
    try:
        args = parse_args(argv)
    except UsageError as exc:
        return "error", f"incgrade: error: {exc}"
    return ("help",) if args is None else ("ok", vars(args))


# Command lines in the plain form, which parse_args reads without
# argparse, and near misses, which only argparse reads: a value that
# int() reads as negative, a choice in the wrong case, a missing value,
# "=", an abbreviation and a flag before the command.
PLAIN = [argv for argv, _ in ECHO_CASES.values()] + README_COMMANDS
NOT_PLAIN = [
    ["compare-identities", *_C2, "--theta", "1,h", "--mu", "1,1",
     "--max-degree", " -3"],
    ["validate", "--poset", "c2", "--format", "JSON"],
    ["validate", "--poset"],
    ["count", *_C2, "--verify=x"],
    ["validate", "--pos", "c2"],
    ["--poset", "c2", "validate"],
]


class TestArgv:
    @pytest.mark.parametrize("argv", [
        ["validate", "--poset=c2"],
        ["validate", "--pos", "c2"],
        ["validate", "--poset", "nope", "--poset", "c2"],
    ], ids=["equals", "prefix", "last-wins"])
    def test_flag_forms(self, argv, capsys):
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {"poset": "c2"}

    @pytest.mark.parametrize("argv, message", [
        (["count", "--poset", "c2", "--group", "C2", "--verify=x"],
         "argument --verify: ignored explicit argument 'x'"),
        (["validate", "--poset"], "argument --poset: expected one argument"),
        (["validate", "--m", "c2"], "ambiguous option: --m could match "
         "--mu, --multidegree, --morphism, --max-degree"),
        (["validate", "--poset", "c2", "extra"],
         "unrecognized arguments: extra"),
        (["--poset", "c2"], "the following arguments are required: command"),
    ], ids=["switch-value", "missing-value", "ambiguous", "extra", "no-command"])
    def test_usage_error_in_process(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"incgrade: error: {message}\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command_and_flag(self, flag, capsys):
        proc = run_cli(*(["validate"] if flag == "--help" else []), flag)
        assert proc.stderr == ""
        for command in COMMANDS:
            assert f"\n  {command} " in proc.stdout
        for name in FLAGS:
            assert f"--{name.replace('_', '-')}" in proc.stdout
        # A usage error before the flag is still reported.
        proc = run_cli("validate", "--seed", "x", flag, expect=2)
        assert proc.stdout == ""
        assert main([flag]) == 0
        assert capsys.readouterr().out.startswith("usage: incgrade")

    def test_reading_matches_argparse(self):
        # Seeded random command lines read as an argparse parser with the
        # same command and flags reads them: the values, the help, or the
        # one error line.
        rng = random.Random(90)
        outcomes = set()
        for _ in range(3000):
            argv = [rng.choice(ARGV_TOKENS) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:
                argv.insert(0, rng.choice(["validate", "count"]))
            try:
                args = parse_args(argv)
                mine = ("help",) if args is None else ("ok", vars(args))
            except UsageError as exc:
                mine = ("error", f"incgrade: error: {exc}")
            assert mine == argparse_reading(argv, COMMANDS), argv
            outcomes.add(mine[0])
        assert outcomes == {"ok", "help", "error"}

    @pytest.mark.parametrize("argv, plain",
                             [(argv, True) for argv in PLAIN]
                             + [(argv, False) for argv in NOT_PLAIN])
    def test_plain_form_is_read_as_argparse_reads_it(self, argv, plain):
        assert (_plain(argv) is not None) == plain
        assert reading(argv) == argparse_reading(argv, COMMANDS)
