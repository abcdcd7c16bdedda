import copy
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from latinplex.cli import build_parser, main
from latinplex.constructions import (
    CLAIMS,
    build_2plex_m2,
    build_2plex_q1,
    build_3ds_q1,
    build_domatic_partition_cyclic,
)
from latinplex.core import (
    MAX_INPUT_ORDER,
    Isotopy,
    apply_isotopy,
    format_ls,
    gen_cyclic,
    gen_qstep,
    gen_two_step_pow2,
    square_to_json_dict,
)

from conftest import cli_env


def run_cli(args, stdin_text=None, timeout=300):
    """Run the CLI in a subprocess for honest exit codes/streams."""
    proc = subprocess.run(
        [sys.executable, "-m", "latinplex.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


#: JSON the parser cannot take: arrays nested past the recursion limit, and
#: an integer past the 4,300 digits Python converts by default
DEEP_JSON = "[" * 200_000 + "]" * 200_000
LONG_INT = "1" + "0" * 5000
#: arrays nested 500 deep, which the parser still takes
DEEP_500 = "[" * 500 + "1" + "]" * 500


class TestGen:
    def test_gen_cyclic_5(self, tmp_path):
        code, out, err = run_cli(["gen", "cyclic", "5"])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "5"
        assert len(lines) == 6

    def test_gen_qstep_36(self):
        code, out, err = run_cli(["gen", "qstep", "--m", "4", "--q", "9"])
        assert code == 0
        assert out.split("\n")[0] == "36"

    def test_gen_twostep_8(self):
        code, out, err = run_cli(["gen", "twostep", "--k", "3", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 8

    def test_gen_missing_params(self):
        code, out, err = run_cli(["gen", "qstep"])
        assert code != 0

    @pytest.mark.parametrize("args", [["cyclic", "-3"], ["qstep", "--m", "0", "--q", "3"],
                                      ["twostep", "--k", "1"]])
    def test_out_of_range_is_usage_error(self, args, capsys):
        assert main(["gen", *args]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_out_file(self, tmp_path):
        path = tmp_path / "sq.ls"
        code, out, err = run_cli(["gen", "cyclic", "4", "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().split("\n")[0] == "4"


class TestSearch:
    def test_tau_on_twostep(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_two_step_pow2(2)))
        code, out, err = run_cli(["search", "tau", str(path), "--format", "json"])
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["tau"] == 4
        assert len(obj["witnesses"]) == 4

    def test_transversal_count_cyclic4_exits_3(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(4)))
        code, out, err = run_cli(
            ["search", "transversal", str(path), "--count", "--format", "json"]
        )
        assert code == 3
        assert json.loads(out)["count"] == 0

    def test_transversal_count_lattice_obstruction_exits_3(self, tmp_path):
        # an even cyclic square has no transversal; the order-16 join would
        # take some 20 s, so the lattice test must answer
        sq = apply_isotopy(gen_cyclic(16), Isotopy.random(16, random.Random(16)))
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(sq))
        code, out, err = run_cli(["search", "transversal", str(path), "--count"], timeout=20)
        assert code == 3 and err == ""
        assert out == "transversals of order-16 square: 0\n"

    def test_kplex_on_cyclic6(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(6)))
        code, out, err = run_cli(["search", "kplex", str(path), "--k", "2", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["found"] and len(obj["witness"]["cells"]) == 12

    def test_kplex_lattice_obstruction_exits_3(self, tmp_path):
        # an even cyclic square has no 3-plex (the parity sum argument); its
        # row tree is too large to exhaust, so the lattice test must answer
        sq = apply_isotopy(gen_cyclic(8), Isotopy.random(8, random.Random(8)))
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(sq))
        code, out, err = run_cli(["search", "kplex", str(path), "--k", "3", "--format", "json"],
                                 timeout=20)
        assert code == 3 and err == ""
        assert json.loads(out)["found"] is False

    def test_stdin_square(self):
        code, out, err = run_cli(
            ["search", "transversal", "--stdin", "--format", "json"],
            stdin_text=format_ls(gen_cyclic(5)),
        )
        assert code == 0
        assert json.loads(out)["count"] == 15

    def test_mate_not_found_exits_3(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(4)))
        code, out, err = run_cli(["search", "mate", str(path), "--format", "json"])
        assert code == 3

    def test_refusal_exits_2(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(9)))
        code, out, err = run_cli(["search", "tau", str(path)])
        assert code == 2
        assert "refused" in err

    def test_kplex_k_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(2)))
        assert main(["search", "kplex", str(path), "--k", "5"]) == 2
        assert "k must be in 1..2" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [[5], 5])
    def test_rows_not_a_grid_fail_cleanly(self, rows, tmp_path, capsys):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps({"rows": rows}))
        assert main(["search", "near", str(path)]) == 1
        assert "sequence of sequences" in capsys.readouterr().err

    def test_negative_cap_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(5)))
        assert main(["search", "transversal", str(path), "--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--cap" in captured.err

    def test_order_above_input_limit_refused(self, tmp_path, capsys):
        # all ones: refused for its size before any entry is checked
        n = MAX_INPUT_ORDER + 1
        path = tmp_path / "big.ls"
        path.write_text(f"{n}\n" + ("1 " * n + "\n") * n)
        assert main(["search", "near", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "input limit" in captured.err

    def test_directory_as_square_fails_cleanly(self, tmp_path, capsys):
        assert main(["search", "near", str(tmp_path)]) == 1  # IsADirectoryError is an OSError
        assert capsys.readouterr().err.startswith("error: ")

    def test_threads_flag_removed(self, tmp_path):
        path = tmp_path / "sq.ls"
        path.write_text(format_ls(gen_cyclic(7)))
        code, out, err = run_cli(["search", "transversal", str(path), "--threads", "4"])
        assert code == 2 and out == ""
        assert "--threads" in err


class TestVerify:
    def test_round_trip_accepted(self, tmp_path):
        code, cert_text, err = run_cli(["construct", "3ds-q1", "--n", "6"])
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(cert_text)
        code, out, err = run_cli(["verify", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["accepted"]

    def test_tampered_cell_rejected(self, tmp_path):
        code, cert_text, err = run_cli(["construct", "3ds-q1", "--n", "6"])
        obj = json.loads(cert_text)
        obj["witness"]["cells"][0] = [2, 1]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["verify", str(path), "--format", "json"])
        assert code == 1
        assert not json.loads(out)["accepted"]

    def test_verify_via_stdin(self):
        _, cert_text, _ = run_cli(["construct", "2plex-m2", "--q", "3"])
        code, out, err = run_cli(["verify", "--stdin"], stdin_text=cert_text)
        assert code == 0
        assert "accepted" in out

    def test_kind_cardinality_mismatch_exits_1(self, tmp_path):
        _, cert_text, _ = run_cli(["construct", "3ds-q1", "--n", "4"])
        obj = json.loads(cert_text)
        del obj["witness"]["cells"][0]  # quasi kind now has n cells
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["verify", str(path)])
        assert code == 1
        assert "error" in err or "REJECTED" in out

    def test_unknown_claim_rejected(self, tmp_path):
        _, cert_text, _ = run_cli(["construct", "3ds-q1", "--n", "4"])
        obj = json.loads(cert_text)
        obj["claim"] = "made-up-claim"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["verify", str(path), "--format", "json"])
        assert code == 1
        assert not json.loads(out)["accepted"]

    def test_non_string_claim_rejected(self, tmp_path, capsys):
        obj = build_3ds_q1(4).to_json_dict()
        obj["claim"] = ["3ds-q1"]  # unhashable: no claim-table lookup may raise
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", str(path), "--format", "json"]) == 1
        assert not json.loads(capsys.readouterr().out)["accepted"]

    @pytest.mark.parametrize("case", ["no-square", "string-param", "witness-without-kind",
                                      "square-not-an-object", "missing-param", "bool-param",
                                      "string-verdict", "float-k", "bool-k"])
    def test_malformed_certificate_fails_cleanly(self, case, tmp_path, capsys):
        cert = {
            "claim": "3ds-q1",
            "square": {"generator": "cyclic", "params": {"n": 4}},
            "provenance": "paper-formula",
            "witness": {"kind": "cell-set", "cells": [[1, 1]]},
            "verdict": True,
        }
        if case == "no-square":
            del cert["square"]
        elif case == "string-param":
            cert["square"]["params"]["n"] = "5"
        elif case == "witness-without-kind":
            del cert["witness"]["kind"]
        elif case == "square-not-an-object":
            cert["square"] = [[1, 2], [2, 1]]
        elif case == "missing-param":
            del cert["square"]["params"]["n"]
        elif case == "string-verdict":  # "false" is truthy: only a JSON boolean is a verdict
            cert = build_2plex_q1(4).to_json_dict()
            cert["verdict"] = "false"
        elif case in ("float-k", "bool-k"):  # k of the 2-plex witness
            cert = build_2plex_q1(4).to_json_dict()
            cert["witness"][-1]["k"] = 2.0 if case == "float-k" else True
        else:  # a bool is not an order, although bool is an int subclass
            cert["square"]["params"]["n"] = True
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert main(["verify", str(path)]) == 1
        assert "malformed certificate" in capsys.readouterr().err

    @pytest.mark.parametrize("coordinate", [2.0, True], ids=["float", "bool"])
    def test_non_integer_cell_coordinate_fails_cleanly(self, coordinate, tmp_path, capsys):
        cert = build_2plex_q1(4).to_json_dict()
        cert["witness"][-1]["cells"][-1][1] = coordinate  # the last cell of the last part
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err == ("error: malformed certificate: TypeError: "
                                           "cell coordinates must be JSON integers\n")

    def test_descriptor_order_below_range_is_invalid(self, tmp_path, capsys):
        # the value `gen cyclic -3` refuses as a usage error is, inside a
        # certificate, a validation failure
        cert = build_3ds_q1(4).to_json_dict()
        cert["square"] = {"generator": "cyclic", "params": {"n": -3}}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert main(["verify", str(path)]) == 1
        assert "usage error" not in capsys.readouterr().err

    @pytest.mark.parametrize("square", [
        {"generator": "cyclic", "params": {"n": MAX_INPUT_ORDER + 1}},
        {"generator": "qstep", "params": {"m": 2, "q": MAX_INPUT_ORDER}},
        {"generator": "twostep", "params": {"k": MAX_INPUT_ORDER.bit_length()}},
    ])
    def test_descriptor_order_above_input_limit_refused(self, square, tmp_path, capsys):
        cert = build_3ds_q1(4).to_json_dict()
        cert["square"] = square
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert main(["verify", str(path)]) == 2
        assert "exceeds the input limit" in capsys.readouterr().err


class TestBoundedEcho:
    """Messages that quote a square's or a certificate's content quote a
    bounded prefix of it: one short line, the exit code of the defect."""

    @pytest.mark.parametrize("entry", ["a" * 100_000, json.loads(DEEP_500)],
                             ids=["long-string", "deep-list"])
    def test_entry(self, entry):
        text = json.dumps({"rows": [[1, entry], [2, 1]]})
        code, out, err = run_cli(["search", "near", "--stdin"], stdin_text=text)
        assert (code, out) == (1, "")
        assert err.startswith("error: entry ") and err.endswith(" outside 1..2\n")
        assert err.count("\n") == 1 and len(err) < 300 and "Traceback" not in err

    def test_unknown_generator_params(self):
        cert = build_3ds_q1(4).to_json_dict()
        cert["square"] = {"generator": "nope", "params": {"n": [0] * 100_000}}
        code, out, err = run_cli(["verify", "--stdin"], stdin_text=json.dumps(cert))
        assert (code, out) == (1, "")
        assert err == ("error: unknown square descriptor "
                       "{'generator': 'nope', 'params': {'n': [0, 0, 0, 0, 0, 0, 0, 0, ...]}}\n")

    def test_unknown_claim(self):
        cert = build_3ds_q1(4).to_json_dict()
        cert["claim"] = "a" * 100_000
        code, out, err = run_cli(["verify", "--stdin", "--format", "json"],
                                 stdin_text=json.dumps(cert))
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["claim"] == cert["claim"]  # the payload's data, kept whole
        (issue,) = payload["issues"]
        assert issue.startswith("unknown claim 'aaa") and len(issue) < 300

    def test_unknown_claim_text_header(self):
        cert = build_3ds_q1(4).to_json_dict()
        cert["claim"] = "a" * 100_000
        code, out, err = run_cli(["verify", "--stdin"], stdin_text=json.dumps(cert))
        assert (code, err) == (1, "")
        header, issue = out.splitlines()
        assert header.startswith("'aaa") and header.endswith("a': REJECTED")
        assert "..." in header
        assert len(header) < 300 and issue.startswith("  - unknown claim 'aaa")

    def test_known_claim_text_header_unquoted(self):
        cert = json.dumps(build_3ds_q1(4).to_json_dict())
        assert run_cli(["verify", "--stdin"], stdin_text=cert) == (0, "3ds-q1: accepted\n", "")


class TestConstruct:
    def test_domatic_cyclic_10(self):
        code, out, err = run_cli(["construct", "domatic-cyclic", "--n", "10"])
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert len(obj["witness"]) == 9
        assert obj["verdict"]

    def test_2plex_gen_4_3(self):
        code, out, err = run_cli(["construct", "2plex-gen", "--m", "4", "--q", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["provenance"] == "paper-formula"
        assert obj["verdict"]

    def test_3ds_q1_6(self):
        code, out, err = run_cli(["construct", "3ds-q1", "--n", "6"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] and obj["provenance"] == "paper-formula"

    def test_twostep_decomp(self):
        code, out, err = run_cli(["construct", "twostep-decomp", "--k", "3"])
        assert code == 0
        assert len(json.loads(out)["witness"]) == 8

    def test_qt_nt_transforms(self):
        code, out, err = run_cli(["construct", "qt-nt-transforms", "--gen", "cyclic", "--n", "4"])
        assert code == 0
        assert len(json.loads(out)["witness"]) == 3

    @pytest.mark.parametrize("gen", [["--n", "13"], ["--n", "15"],
                                     ["--gen", "qstep", "--m", "4", "--q", "4"],
                                     ["--gen", "twostep", "--k", "4"]])
    def test_qt_nt_transforms_to_order_16(self, gen):
        code, out, err = run_cli(["construct", "qt-nt-transforms", *gen])
        assert code == 0 and err == ""
        code, verdict, err = run_cli(["verify", "--stdin"], stdin_text=out)
        assert code == 0 and err == "", verdict

    @pytest.mark.parametrize("n", ["1", "2", "17"])
    def test_qt_nt_transforms_order_refused(self, n):
        code, out, err = run_cli(["construct", "qt-nt-transforms", "--n", n])
        assert code == 2 and out == "", err

    @pytest.mark.parametrize("args", [
        ["twostep-decomp", "--k", "1"],
        ["twostep-decomp", "--k", "-3"],
        ["qt-nt-transforms", "--n", "0"],
        ["qt-nt-transforms", "--gen", "qstep", "--m", "0", "--q", "3"],
        ["qt-nt-transforms", "--gen", "twostep", "--k", "1"],
    ], ids=["twostep-k1", "twostep-k-3", "cyclic-n0", "qstep-m0", "gen-twostep-k1"])
    def test_option_below_generator_range_is_usage_error(self, args, capsys):
        # as under gen; the same value in a certificate descriptor exits 1
        assert main(["construct", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")

    def test_claim_parameters_are_construct_options(self):
        # cmd_construct reads each parameter a claim names from the parsed
        # arguments; "square" is assembled from --gen and its options
        for claim, (_, _, names) in CLAIMS.items():
            dests = vars(build_parser().parse_args(["construct", claim]))
            assert set(names) - {"square"} <= set(dests), claim

    def test_seed_is_not_a_construct_option(self):
        code, out, err = run_cli(["construct", "3ds-qgen", "--m", "2", "--q", "3", "--seed", "1"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_format_is_not_a_construct_option(self):
        # construct always writes the certificate's JSON
        code, out, err = run_cli(["construct", "3ds-q1", "--n", "4", "--format", "json"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --format json" in err

    def test_missing_param_errors(self):
        for args, message in [
            (["construct", "3ds-q1"], "claim '3ds-q1' needs --n"),
            (["gen", "qstep", "--m", "4"], "needs an integer parameter 'q', got None"),
            (["search", "near"], "provide a square path or --stdin"),
            (["verify"], "provide a certificate path or --stdin"),
        ]:
            code, out, err = run_cli(args)
            assert (code, out) == (2, ""), args
            assert err.startswith("usage error: ") and message in err, args

    def test_bad_param_value_is_usage_error(self):
        code, out, err = run_cli(["construct", "3ds-q1", "--n", "5"])
        assert code == 2
        assert "even n" in err

    @pytest.mark.parametrize("text,why", [
        ("{not json", "Expecting property name"),
        (DEEP_JSON, "maximum recursion depth"),
        (json.dumps(build_3ds_q1(4).to_json_dict()).replace('"n": 4', f'"n": {LONG_INT}'),
         "Exceeds the limit"),
    ], ids=["syntax", "deep", "long-int"])
    def test_malformed_certificate_json(self, text, why):
        code, out, err = run_cli(["verify", "--stdin"], stdin_text=text)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad certificate JSON: ") and why in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text,why", [
        ('{"rows": [[1,', "Expecting value"),
        (f'{{"rows": {DEEP_JSON}}}', "maximum recursion depth"),
        (f'{{"rows": [[{LONG_INT}]]}}', "Exceeds the limit"),
    ], ids=["syntax", "deep", "long-int"])
    def test_malformed_square_json(self, text, why):
        code, out, err = run_cli(["search", "near", "--stdin"], stdin_text=text)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad JSON: ") and why in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestSweep:
    def test_small_sweep(self):
        code, out, err = run_cli(
            ["sweep", "--min-order", "3", "--max-order", "5", "--format", "json"]
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["counterexample"] is None
        assert all(r["near"] and r["quasi"] and r["two_plex"] for r in obj["rows"])

    def test_qstep_generators_include_expected_rows(self):
        code, out, err = run_cli(
            ["sweep", "--generators", "qstep", "--min-order", "4", "--max-order", "8",
             "--format", "json"]
        )
        assert code == 0
        labels = [r["square"] for r in json.loads(out)["rows"]]
        assert "qstep(2,3)" in labels and "qstep(2,4)" in labels

    def test_empty_range(self):
        code, out, err = run_cli(["sweep", "--min-order", "5", "--max-order", "4",
                                  "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_empty_range_text(self, capsys):
        assert main(["sweep", "--min-order", "5", "--max-order", "4"]) == 0
        assert capsys.readouterr().out == "empty sweep\n"

    @pytest.mark.parametrize("args", [
        ["--generators", "foo"],
        ["--generators", "cyclic,bogus", "--max-order", "3"],
        ["--min-order", "0", "--max-order", "2"],
        ["--generators", "foo", "--min-order", "5", "--max-order", "4"],
        ["--generators", "isotopes"],
        ["--generators", "qstep", "--min-order", "5", "--max-order", "5"],
        ["--isotopes", "-1"],
        ["--min-order", "0", "--max-order", "-1"],
    ], ids=["unknown", "one-unknown", "min-order-0", "unknown-empty-range",
            "isotopes-zero", "qstep-prime-order", "isotopes-negative", "min-order-0-empty-range"])
    def test_bad_arguments_are_usage_errors(self, args, capsys):
        assert main(["sweep", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")

    def test_text_table(self):
        code, out, err = run_cli(["sweep", "--min-order", "2", "--max-order", "4"])
        assert code == 0
        assert "near" in out.split("\n")[0]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "cyclic", "6", "--format", "json"],
            ["construct", "domatic-cyclic", "--n", "6"],
            ["construct", "2plex-gen", "--m", "4", "--q", "3"],
            ["sweep", "--min-order", "3", "--max-order", "5", "--isotopes", "2",
             "--seed", "0", "--format", "json"],
        ],
    )
    def test_byte_identical_runs(self, args):
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_in_process_main_matches_subprocess(self, tmp_path, capsys):
        rc = main(["gen", "cyclic", "4", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0
        _, out, _ = run_cli(["gen", "cyclic", "4", "--format", "json"])
        assert captured.out == out


def main_on_stdin(args, text):
    """main(args) in-process with `text` on stdin: (exit code, stdout)."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(args)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _leaf_paths(v, path + (k,))] or [path]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _leaf_paths(v, path + (i,))] or [path]
    return [path]


#: valid certificates of order <= 6, whose descriptors stay small when one integer changes
FUZZ_CERTS = [build_3ds_q1(4).to_json_dict(), build_2plex_q1(4).to_json_dict(),
              build_2plex_m2(3).to_json_dict(), build_domatic_partition_cyclic(6).to_json_dict()]
FUZZ_SQUARES = [format_ls(gen_cyclic(4)), format_ls(gen_qstep(2, 3)),
                json.dumps(square_to_json_dict(gen_cyclic(5)))]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(allow_nan=True),
    st.text(max_size=4), st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "cells", "k", "n"]), st.integers(0, 6), max_size=2),
)


class TestFuzz:
    """Untrusted input through main(): every outcome is an exit code of the
    contract, never an escaping exception."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_certificate_with_one_leaf_replaced(self, data):
        cert = copy.deepcopy(data.draw(st.sampled_from(FUZZ_CERTS)))
        path = data.draw(st.one_of(st.just(("verdict",)), st.sampled_from(_leaf_paths(cert))))
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        code, out = main_on_stdin(["verify", "--stdin", "--format", "json"], json.dumps(cert))
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert json.loads(out)["accepted"] and cert["verdict"] is True

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FUZZ_SQUARES),
           st.lists(st.tuples(st.integers(0, 200), st.sampled_from(["delete", "insert", "replace"]),
                              st.sampled_from(list('0123456789 \n-.,[]{}":rowsx'))),
                    min_size=1, max_size=4),
           st.sampled_from([["search", "quasi"], ["search", "near"], ["search", "kplex"],
                            ["search", "transversal"], ["search", "tau"]]))
    def test_mutated_square_text(self, text, edits, command):
        for pos, op, ch in edits:
            pos %= len(text) + 1
            if op == "delete":
                text = text[:pos] + text[pos + 1:]
            elif op == "insert":
                text = text[:pos] + ch + text[pos:]
            else:
                text = text[:pos] + ch + text[pos + 1:]
        code, _ = main_on_stdin([*command, "--stdin"], text)
        assert code in (0, 1, 2, 3)
