import codecs
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import ValidationError, validate

import votebound
from votebound.cli import _WRITE_ROWS, _read_csv, _write_signs, main
from votebound.model import cover_floor
from votebound.schema import PIPELINE_REPORT_SCHEMA

from test_golden import VOTE_SETS

FIX1_CSV = "vote\n1.0\n0.8\n0.5\n0.2\n"
# Margins far below 1e-12: the threshold rule must hold relative to n*lam.
TINY_TWO = "vote\n4.08e-13\n3.33e-13\n"
TINY_THREE = "vote\n1.6644481460689967e-13\n1.9322455253755075e-12\n1.6567271708743744e-12\n"
TINY_THREE_ARGS = ["--lambda", "1.196324232083294e-12", "--alpha", "0.16241895838214684"]
# The float sum of these |votes| falls short of the cover floor at this lambda;
# the exact sum does not, so the solver accepts them.
EDGE_SIX = [
    0.003222713434299089, 0.1197001712117459, 0.0025156210395981806,
    0.014174951423983735, -0.011640950290500584, 0.005864828020407865,
]
EDGE_SIX_LAMBDA = 0.026186539236755915
LP_STEP = "vote\n-1.0\n2.2250738585072014e-308\n-1.0\n1e-13\n0.5\n"
# Nature must take both subnormal margins in full: the abstain value is 0, not alpha.
SUBNORMAL_PAIR = "vote\n-5e-324\n-5e-324\n"
SUBNORMAL_PAIR_ARGS = ["--lambda", "5e-324", "--alpha", "0.05"]
# Every train example right, so at delta 0.05 lambda_hat is 0.860; the test votes' mean
# |vote| is (10 + 5/3)/15 = 0.778, below it.
CERTAIN_TRAIN = ("h1,h2,h3\n" + "1,1,1\n" * 5000, "label\n" + "1\n" * 5000)
SPLIT_TEST = "h1,h2,h3\n" + "1,1,1\n" * 10 + "1,-1,1\n" * 5


def write_votes(tmp_path, text=FIX1_CSV, name="votes.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def gen_dataset(tmp_path, capsys, seed=7, m=2000, n=64, h=16, base_error=0.1, sub="data"):
    out = tmp_path / sub
    code, manifest = run(
        capsys,
        "gen",
        "--seed",
        str(seed),
        "--train-size",
        str(m),
        "--test-size",
        str(n),
        "--hypotheses",
        str(h),
        "--base-error",
        str(base_error),
        "--out",
        str(out),
        "--canonical",
    )
    assert code == 0
    return manifest["files"]


def run_pipeline(capsys, files, *extra):
    return run(
        capsys,
        "pipeline",
        "--train-pred",
        files["train_pred"],
        "--train-labels",
        files["train_labels"],
        "--test-pred",
        files["test_pred"],
        "--canonical",
        *extra,
    )


def assert_parse_error(code, report):
    assert code == 3
    assert report["error"] == "parse_error"


class TestSolveCommand:
    def test_fix1_report(self, tmp_path, capsys):
        code, report = run(
            capsys, "solve", "--votes", write_votes(tmp_path), "--lambda", "0.5", "--canonical"
        )
        assert code == 0
        assert report["v"] == 3
        assert report["value"] == 0.6
        assert report["lower_bound"] == 0.55
        assert report["g_star"] == [1.0, 1.0, 1.0, 0.4]
        assert report["z_star"] == [1.0, 1.0, 0.4, 0.0]

    def test_payoff_reproduces_value_to_12_digits(self, tmp_path, capsys):
        code, report = run(
            capsys, "solve", "--votes", write_votes(tmp_path), "--lambda", "0.37", "--canonical"
        )
        assert code == 0
        g = np.array(report["g_star"])
        z = np.array(report["z_star"])
        recomputed = float(f"{float(g @ z) / len(g):.12g}")
        assert recomputed == report["value"]

    def test_unanimous_certain_votes(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\n1\n-1\n1\n")
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "1.0", "--canonical")
        assert code == 0
        assert report["g_star"] == [1.0, -1.0, 1.0]

    def test_infeasible_lambda_exits_2(self, tmp_path, capsys):
        code, report = run(
            capsys, "solve", "--votes", write_votes(tmp_path), "--lambda", "0.9"
        )
        assert code == 2
        assert report["error"] == "infeasible_constraint"

    def test_degenerate_lambda_exits_2(self, tmp_path, capsys):
        code, report = run(
            capsys, "solve", "--votes", write_votes(tmp_path), "--lambda", "-0.1"
        )
        assert code == 2
        assert report["error"] == "degenerate_bound"

    def test_parse_failure_exits_3(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\nnot-a-number\n")
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "0.5")
        assert code == 3
        assert report["error"] == "parse_error"

    def test_votes_outside_box_exit_2(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\n1.5\n0.2\n")
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "0.2")
        assert code == 2
        assert report["error"] == "validation_error"

    def test_nan_vote_exits_2(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\nnan\n0.8\n")
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "0.2")
        assert code == 2
        assert report["error"] == "validation_error"

    def test_nan_lambda_exits_2(self, tmp_path, capsys):
        code, report = run(capsys, "solve", "--votes", write_votes(tmp_path), "--lambda", "nan")
        assert code == 2
        assert report["error"] == "validation_error"

    def test_all_zero_votes_at_tolerance_edge_exit_2(self, tmp_path, capsys):
        # n*lam falls below the validation slack, so the bound is "covered"
        # before any margin: the threshold pivot would be a zero vote.
        votes = write_votes(tmp_path, "vote\n0\n0\n")
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "1e-13")
        assert code == 2
        assert report["error"] == "infeasible_constraint"

    def test_quoted_header_and_cells_parse(self, tmp_path, capsys):
        votes = write_votes(tmp_path, '"vote"\n"1.0"\n"0.8"\n"0.5"\n"0.2"\n')
        code, report = run(capsys, "solve", "--votes", votes, "--lambda", "0.5", "--canonical")
        assert code == 0
        assert report["g_star"] == [1.0, 1.0, 1.0, 0.4]

    def test_vote_row_with_extra_cell_exits_3(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\n0.7,abc\n0.2\n")
        assert_parse_error(*run(capsys, "solve", "--votes", votes, "--lambda", "0.2"))

    def test_non_utf8_votes_exit_3(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_bytes(b"vote\n0.5\n\xff0.2\n")
        assert_parse_error(*run(capsys, "solve", "--votes", str(votes), "--lambda", "0.2"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["vote\n", "vote\n\n\n", ""])
    def test_no_data_rows_exit_3(self, tmp_path, capsys, text):
        votes = write_votes(tmp_path, text)
        assert_parse_error(*run(capsys, "solve", "--votes", votes, "--lambda", "0.2"))

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code, report = run(capsys, "solve", "--votes", str(tmp_path / "nope.csv"), "--lambda", "0.5")
        assert code == 4
        assert report["error"] == "io_error"

    @pytest.mark.parametrize("command", [["solve"], ["abstain", "--alpha", "0.25"]])
    def test_lambda_at_the_mean_margin_solves(self, tmp_path, capsys, command):
        votes = np.random.default_rng(0).uniform(-1.0, 1.0, 1700)
        text = "vote\n" + "".join(f"{x!r}\n" for x in votes.tolist())
        lam = repr(float(np.abs(votes).mean()))
        code, report = run(capsys, *command, "--votes", write_votes(tmp_path, text), "--lambda", lam)
        assert code == 0
        assert report["v"] == 1700

    @pytest.mark.parametrize("command", [["solve"], ["abstain", "--alpha", "0.25"]])
    def test_tiny_margins_give_no_wrong_report(self, tmp_path, capsys, command):
        # An absolute tie slack of 1e-12 would pick v = 1 here, where the exact v is 2.
        votes = write_votes(tmp_path, TINY_TWO)
        code, report = run(capsys, *command, "--votes", votes, "--lambda", "3.13e-13")
        assert code == 0
        assert report["v"] == 2
        assert report.get("game_value", report.get("value")) == 0.827327327327
        if "value_exact" in report:
            assert (report["w"], report["value_exact"]) == (2, 0.0863363363363)

    def test_tiny_margins_give_no_wrong_abstain_value(self, tmp_path, capsys):
        # v = 2 is exact here, but an absolute tie slack of 1e-12 would pick w = 1 where
        # the exact w is 2; clipping that w's raise would report 0.1083.
        votes = write_votes(tmp_path, TINY_THREE)
        code, report = run(capsys, "abstain", "--votes", votes, *TINY_THREE_ARGS)
        assert code == 0
        assert (report["v"], report["w"]) == (2, 2)
        assert report["value_exact"] == pytest.approx(0.06544479602557511, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "text, args",
        [
            (TINY_TWO, ["--lambda", "3.13e-13"]),
            (TINY_TWO, ["--lambda", "3.13e-13", "--alpha", "0.25"]),
            (TINY_THREE, TINY_THREE_ARGS),
            # The LP moves a subnormal vote: its cost ratio overflows to inf.
            ("vote\n0\n1e-310\n", ["--lambda", "5e-324", "--alpha", "0.3"]),
            # The LP's fractional step divides its remainder by the 1e-13 margin.
            (LP_STEP, ["--lambda", "0.50000000000002"]),
            (LP_STEP, ["--lambda", "0.50000000000002", "--alpha", "0.25"]),
            # The grid's gains at a subnormal margin: nature must take the whole margin.
            ("vote\n5e-324\n", ["--lambda", "5e-324", "--alpha", "0.25"]),
            # The abstain budget of subnormal margins, formed unshifted, underflows to 0.
            (SUBNORMAL_PAIR, SUBNORMAL_PAIR_ARGS),
        ],
    )
    def test_tiny_margins_verify(self, tmp_path, capsys, text, args):
        code, report = run(capsys, "verify", "--votes", write_votes(tmp_path, text), *args)
        assert code == 0
        assert report["ok"] is True

    def test_subnormal_budget_gives_the_exact_abstain_value(self, tmp_path, capsys):
        votes = write_votes(tmp_path, SUBNORMAL_PAIR)
        code, report = run(capsys, "abstain", "--votes", votes, *SUBNORMAL_PAIR_ARGS)
        assert code == 0
        assert report["value_exact"] == pytest.approx(0.0, rel=0, abs=1e-9)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _ = run(
            capsys,
            "solve",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--out",
            str(out),
            "--canonical",
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] == 0.6

    def test_tool_metadata_toggle(self, tmp_path, capsys):
        votes = write_votes(tmp_path)
        _, with_meta = run(capsys, "solve", "--votes", votes, "--lambda", "0.5")
        _, canonical = run(capsys, "solve", "--votes", votes, "--lambda", "0.5", "--canonical")
        assert with_meta["tool"]["name"] == "votebound"
        assert "tool" not in canonical

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("votebound.cli.cmd_solve", broken)
        code = main(["solve", "--votes", write_votes(tmp_path), "--lambda", "0.5"])
        out, err = capsys.readouterr()
        assert code == 5
        assert json.loads(out) == {"error": "internal_error", "message": "RuntimeError: boom"}
        assert err == ""

    @pytest.mark.parametrize("report", ["large", "error"])
    def test_closed_stdout_exits_4_without_a_traceback(self, tmp_path, report):
        votes = np.random.default_rng(1).uniform(-1.0, 1.0, 20_000)
        path = write_votes(tmp_path, "vote\n" + "".join(f"{x!r}\n" for x in votes.tolist()))
        lam = {"large": "0.3", "error": "nan"}[report]
        env = dict(os.environ, PYTHONPATH=str(Path(votebound.__file__).parents[1]))
        argv = [sys.executable, "-m", "votebound.cli", "solve", "--votes", path, "--lambda", lam]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        if report == "large":
            # The report is far larger than a pipe's buffer, so the child is still writing.
            assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        assert (child.wait(timeout=120), child.stderr.read()) == (4, b"")
        child.stderr.close()


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["solve", "--votes", "v.csv", "--lambda", "abc"],
                "votebound solve: argument --lambda: invalid float value: 'abc'",
                id="bad-float",
            ),
            pytest.param(
                ["solve", "--votes", "v.csv"],
                "votebound solve: the following arguments are required: --lambda",
                id="missing-option",
            ),
            pytest.param(
                ["frobnicate"], "votebound: argument command: invalid choice", id="unknown-command"
            ),
            pytest.param(
                [], "votebound: the following arguments are required: command", id="no-command"
            ),
        ],
    )
    def test_argument_error_is_one_json_line(self, capsys, argv, message):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert out.endswith("\n") and out.count("\n") == 1
        report = json.loads(out)
        assert report["error"] == "validation_error"
        assert report["message"].startswith(message)

    @pytest.mark.parametrize(
        "flag, text",
        [("--help", "usage: votebound"), ("--version", f"votebound {votebound.__version__}")],
    )
    def test_help_and_version_keep_their_text(self, capsys, flag, text):
        with pytest.raises(SystemExit) as caught:
            main([flag])
        out, err = capsys.readouterr()
        assert (caught.value.code, err) == (0, "")
        assert out.startswith(text)


class TestAbstainCommand:
    def test_fix1_moderate_cost(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "abstain",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--alpha",
            "0.25",
            "--canonical",
        )
        assert code == 0
        assert report["trivial"] is False
        assert report["w"] == 2
        assert report["value_exact"] == 0.1484375
        assert report["p_alg"] == [0.0, 0.0, 0.0, 0.6]
        # All three loss figures side by side, none blurred into another.
        assert report["loss_formula"] == 0.0875
        assert report["loss_vs_z_star"] == 0.1625
        assert report["oracle_worst_case_loss"] == 0.1925

    def test_fix1_trivial_cost(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "abstain",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--alpha",
            "0.05",
            "--canonical",
        )
        assert code == 0
        assert report["trivial"] is True
        assert report["value_exact"] == 0.05
        assert report["p_alg"] == [1.0, 1.0, 1.0, 1.0]

    def test_cost_of_one_half_within_the_trivial_slack_is_not_trivial(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\n1.0\n0.5\n")
        argv = ["abstain", "--votes", votes, "--lambda", "1e-13", "--alpha", "0.5", "--canonical"]
        code, report = run(capsys, *argv)
        assert code == 0
        assert report["trivial"] is False
        assert report["p_alg"] == [0.0, 0.0]

    def test_high_cost_never_abstains(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "abstain",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--alpha",
            "0.75",
            "--canonical",
        )
        assert code == 0
        assert report["p_alg"] == [0.0, 0.0, 0.0, 0.0]

    def test_nonpositive_cost_exits_2(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "abstain",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--alpha",
            "0",
        )
        assert code == 2
        assert report["error"] == "invalid_cost"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, error", [("inf", "invalid_cost"), ("1e308", "validation_error")]
    )
    def test_cost_with_non_finite_results_exits_2(self, tmp_path, capsys, alpha, error):
        votes = write_votes(tmp_path)
        code, report = run(capsys, "abstain", "--votes", votes, "--lambda", "0.2", "--alpha", alpha)
        assert code == 2
        assert report["error"] == error

    def test_worst_case_loss_past_the_enumeration_cap(self, tmp_path, capsys):
        # 64 votes on k/8, with lambda on an exact tie of the top-20 prefix sum.
        k = (np.arange(64) * 5) % 17 - 8
        lam = float(np.sort(np.abs(k))[::-1][:20].sum()) / 8.0 / 64.0
        votes = write_votes(tmp_path, "vote\n" + "".join(f"{x / 8.0!r}\n" for x in k.tolist()))
        argv = ["abstain", "--votes", votes, "--lambda", repr(lam), "--alpha", "0.25"]
        code, report = run(capsys, *argv)
        assert code == 0
        assert isinstance(report["oracle_worst_case_loss"], float)
        assert report["oracle_worst_case_loss"] >= report["value_exact"] - 1e-9
        assert "oracle_note" not in report and "z_worst" not in report

    def test_cost_is_checked_before_the_votes_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code, report = run(capsys, "abstain", "--votes", missing, "--lambda", "0.5", "--alpha", "nan")
        assert code == 2
        assert report["error"] == "invalid_cost"

    def test_non_finite_refusal_names_the_field(self, tmp_path, capsys):
        votes = write_votes(tmp_path)
        code, report = run(capsys, "abstain", "--votes", votes, "--lambda", "0.2", "--alpha", "1e308")
        assert code == 2
        assert report["error"] == "validation_error"
        assert report["message"].endswith("(inf) at budget")


class TestGenCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        files_a = gen_dataset(tmp_path, capsys, m=50, n=10, h=4, sub="a")
        files_b = gen_dataset(tmp_path, capsys, m=50, n=10, h=4, sub="b")
        for key in files_a:
            with open(files_a[key], "rb") as fa, open(files_b[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_base_error_half_rejected(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "gen",
            "--seed",
            "1",
            "--train-size",
            "10",
            "--test-size",
            "5",
            "--hypotheses",
            "2",
            "--base-error",
            "0.5",
            "--out",
            str(tmp_path / "x"),
        )
        assert code == 2
        assert report["error"] == "validation_error"

    def test_missing_out_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--seed", "1", "--train-size", "10", "--test-size", "5"]
        code = main([*argv, "--hypotheses", "2", "--base-error", "0.1"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": "validation_error",
            "message": "votebound gen: the following arguments are required: --out",
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--train-size", "0", "sizes must be positive"),
            ("--seed", "-1", "seed must be a nonnegative integer"),
        ],
        ids=["zero-size", "negative-seed"],
    )
    def test_refused_argument_exits_2(self, tmp_path, capsys, flag, value, message):
        given = {"--seed": "1", "--train-size": "10", "--test-size": "5", "--hypotheses": "2"}
        argv = [x for item in {**given, flag: value}.items() for x in item]
        code, report = run(capsys, "gen", *argv, "--base-error", "0.1", "--out", str(tmp_path / "x"))
        assert (code, report) == (2, {"error": "validation_error", "message": message})
        assert list(tmp_path.iterdir()) == []

    def test_gibbs_error_near_base_error(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, seed=3, m=2000, n=8, h=16, base_error=0.1)
        import csv

        with open(files["train_pred"], newline="") as handle:
            rows = list(csv.reader(handle))
        grid = np.array([[int(c) for c in row] for row in rows[1:]], dtype=float)
        with open(files["train_labels"], newline="") as handle:
            labels = np.array([int(r[0]) for r in list(csv.reader(handle))[1:]], dtype=float)
        gibbs = float(np.mean(grid * labels[:, None] < 0))
        assert 0.05 <= gibbs <= 0.15



@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.none() | st.integers(1, 20),  # None: the one-column labels file
    st.sampled_from([1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1]),
    st.integers(1, 3),  # the rows reach the writer in this many blocks
)
def test_gen_writer_gives_the_bytes_of_savetxt(seed, width, rows, blocks):
    positive = np.random.default_rng(seed).random((rows, width or 1)) < 0.5
    cells = np.where(positive, 1, -1)
    if width is None:
        cells, header = cells[:, 0], "label"
    else:
        header = ",".join(f"h{j + 1}" for j in range(width))
    with tempfile.TemporaryDirectory() as tmp:
        want, got = Path(tmp, "want.csv"), Path(tmp, "got.csv")
        np.savetxt(want, cells, fmt="%d", delimiter=",", header=header, comments="")
        _write_signs(got, np.array_split(positive, blocks), header)
        assert got.read_bytes() == want.read_bytes()


class TestPipelineCommand:
    def test_end_to_end_seed7(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys)
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            files["test_pred"],
            "--posterior",
            "uniform",
            "--delta",
            "0.05",
            "--canonical",
        )
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        bound = report["bound_report"]
        assert bound["degenerate"] is False
        assert 0.45 <= bound["lambda_hat"] <= 0.65
        assert report["fallback"] is False
        assert len(report["examples"]) == 64
        assert [e["index"] for e in report["examples"]] == list(range(64))

    def test_schema_requires_abstain_solution(self, tmp_path, capsys):
        # The report always holds the key: null without --alpha or on fallback data.
        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=8)
        code, report = run_pipeline(capsys, files)
        assert code == 0
        assert report["abstain_solution"] is None
        del report["abstain_solution"]
        with pytest.raises(ValidationError, match="'abstain_solution' is a required property"):
            validate(report, PIPELINE_REPORT_SCHEMA)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=8)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code, _ = run(
                capsys,
                "pipeline",
                "--train-pred",
                files["train_pred"],
                "--train-labels",
                files["train_labels"],
                "--test-pred",
                files["test_pred"],
                "--posterior",
                "exp:2.0",
                "--delta",
                "0.05",
                "--alpha",
                "0.2",
                "--canonical",
                "--out",
                str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_degenerate_fallback_at_m100(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=100)
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            files["test_pred"],
            "--posterior",
            "uniform",
            "--delta",
            "0.05",
            "--canonical",
        )
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        bound = report["bound_report"]
        assert bound["degenerate"] is True
        assert bound["lambda_hat"] <= 0
        assert report["fallback"] is True
        assert report["game_solution"] is None
        assert bound["error_bound_raw"] is None
        for example in report["examples"]:
            assert example["prediction"] == example["vote"]
            assert example["abstain_probability"] == 0.0

    def test_zero_temperature_matches_uniform(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=8)
        reports = []
        for posterior in ("uniform", "exp:0"):
            code, report = run(
                capsys,
                "pipeline",
                "--train-pred",
                files["train_pred"],
                "--train-labels",
                files["train_labels"],
                "--test-pred",
                files["test_pred"],
                "--posterior",
                posterior,
                "--delta",
                "0.05",
                "--canonical",
            )
            assert code == 0
            report["bound_report"]["posterior"] = "normalized"
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("alpha, trivial", [("0.25", True), ("0.4", False)])
    def test_abstain_outputs_present_with_alpha(self, tmp_path, capsys, alpha, trivial):
        # The abstain and mistake bounds hold for p_alg; a trivial game plays
        # the all-abstain strategy instead, so both bounds are null there.
        files = gen_dataset(tmp_path, capsys, m=400, n=16, h=8)
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            files["test_pred"],
            "--posterior",
            "uniform",
            "--delta",
            "0.05",
            "--alpha",
            alpha,
            "--canonical",
        )
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        assert report["abstain_solution"]["trivial"] is trivial
        bound = report["bound_report"]
        if trivial:
            assert bound["abstain_bound"] is None and bound["mistake_bound"] is None
            assert all(e["abstain_probability"] == 1.0 for e in report["examples"])
        else:
            assert bound["abstain_bound"] is not None and bound["mistake_bound"] is not None

    def test_kl_is_computed_once(self, tmp_path, capsys, monkeypatch):
        from votebound import pacbayes

        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=8)
        kl_discrete, calls = pacbayes.kl_discrete, []

        def counted(q, q0):
            calls.append(None)
            return kl_discrete(q, q0)

        for module in ("votebound.cli", "votebound.pacbayes"):
            monkeypatch.setattr(f"{module}.kl_discrete", counted)
        code, report = run_pipeline(capsys, files, "--alpha", "0.25")
        assert code == 0
        assert report["bound_report"]["kl_posterior_prior"] == 0.0
        assert len(calls) == 1

    def test_subnormal_delta_gives_a_finite_degenerate_report(self, tmp_path, capsys):
        # 2(m+1)/delta overflows at delta = 1e-320; epsilon, about 5.4, does not.
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        code, report = run_pipeline(capsys, files, "--delta", "1e-320")
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        bound = report["bound_report"]
        assert math.isfinite(bound["epsilon"]) and math.isfinite(bound["train_kl_budget"])
        assert bound["degenerate"] is True

    def test_lambda_hat_above_the_mean_margin_exits_2(self, tmp_path, capsys):
        texts = zip(("train_pred", "train_labels", "test_pred"), (*CERTAIN_TRAIN, SPLIT_TEST))
        files = {key: write_votes(tmp_path, text, f"{key}.csv") for key, text in texts}
        code, report = run_pipeline(capsys, files)
        assert code == 2
        assert report == {
            "error": "infeasible_constraint",
            "message": "mean |vote| 0.7777777777777778 is below the correlation bound "
            "0.8602500940935824",
        }

    def test_all_right_training_gives_a_zero_gibbs_error(self, tmp_path, capsys):
        # A BLAS row sum of 29 uniform weights passes 1; the reported error must still be 0.
        rows = "h" + ",h".join(map(str, range(1, 30))) + "\n" + ("1," * 28 + "1\n") * 200
        labels = "label\n" + "1\n" * 200
        texts = zip(("train_pred", "train_labels", "test_pred"), (rows, labels, rows))
        files = {key: write_votes(tmp_path, text, f"{key}.csv") for key, text in texts}
        code, report = run_pipeline(capsys, files)
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        assert report["bound_report"]["gibbs_train_error"] == 0.0

    @pytest.mark.parametrize("delta", ["2", "0", "nan"])
    def test_delta_outside_unit_interval_exits_2(self, tmp_path, capsys, delta):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        code, report = run_pipeline(capsys, files, "--delta", delta)
        assert code == 2
        assert report == {"error": "validation_error", "message": "delta must lie in (0, 1)"}

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=10, h=4)
        other = gen_dataset(tmp_path, capsys, m=50, n=10, h=6, sub="other")
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            other["test_pred"],
            "--posterior",
            "uniform",
        )
        assert code == 3
        assert report["error"] == "dimension_error"

    def test_explicit_weights_with_zero_prior_exits_2(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=10, h=4)
        weights = tmp_path / "weights.json"
        weights.write_text(
            json.dumps({"weights": [0.25, 0.25, 0.25, 0.25], "prior": [0.5, 0.5, 0.0, 0.0]})
        )
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            files["test_pred"],
            "--posterior",
            str(weights),
        )
        assert code == 2
        assert report["error"] == "infinite_divergence"

    def test_explicit_weights_file(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=4)
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [0.4, 0.3, 0.2, 0.1]}))
        code, report = run(
            capsys,
            "pipeline",
            "--train-pred",
            files["train_pred"],
            "--train-labels",
            files["train_labels"],
            "--test-pred",
            files["test_pred"],
            "--posterior",
            str(weights),
            "--canonical",
        )
        assert code == 0
        assert report["bound_report"]["kl_posterior_prior"] > 0

    def test_tiny_prior_weight_gives_a_finite_divergence(self, tmp_path, capsys):
        # 0.5 / 1e-320 overflows a double; the divergence itself is 367.72.
        files = gen_dataset(tmp_path, capsys, m=50, n=10, h=2)
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [0.5, 0.5], "prior": [1e-320, 1.0]}))
        argv = ["pipeline", "--train-pred", files["train_pred"], "--train-labels",
                files["train_labels"], "--test-pred", files["test_pred"],
                "--posterior", str(weights), "--canonical"]
        env = dict(os.environ, PYTHONPATH=str(Path(votebound.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "votebound.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        report = json.loads(done.stdout)
        validate(report, PIPELINE_REPORT_SCHEMA)
        assert report["bound_report"]["kl_posterior_prior"] == 367.720473265


class TestBoundsAgainstMeasuredRates:
    """Each pipeline bound against the rate it bounds on the test labels.

    ``gen`` does not write the test labels; its generator draws the train
    labels, then the test labels, so they are drawn again here.  The seed 7
    set is the committed golden data.  The bounds hold with probability
    1 - delta over the training draw, so a fixed seed is a regression pin,
    not a proof.
    """

    @pytest.mark.parametrize(
        "seed, base_error, alpha", [(7, 0.1, "0.25"), (1, 0.3, "0.4")], ids=["golden", "weak"]
    )
    def test_rates_stay_below_their_bounds(self, tmp_path, capsys, seed, base_error, alpha):
        m, n = 1000, 400
        files = gen_dataset(tmp_path, capsys, seed=seed, m=m, n=n, h=12, base_error=base_error)
        rng = np.random.default_rng(seed)
        train_labels = rng.integers(0, 2, m) * 2 - 1
        y = rng.integers(0, 2, n) * 2 - 1
        assert np.array_equal(np.loadtxt(files["train_labels"], skiprows=1), train_labels)

        code, report = run_pipeline(capsys, files, "--alpha", alpha)
        assert code == 0
        assert report["abstain_solution"]["trivial"] is False
        p = np.array([e["abstain_probability"] for e in report["examples"]])
        g = np.array([e["prediction"] for e in report["examples"]])
        bound = report["bound_report"]
        assert p.mean() <= bound["abstain_bound"]
        assert np.mean((1 - p) * (1 - g * y) / 2) <= bound["mistake_bound"]
        assert np.mean((1 - g * y) / 2) <= bound["error_bound_raw"]


class TestPipelineInputs:
    """Every malformed input file ends as a parse error, never as a report."""

    def test_headerless_predictions_exit_3(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        path = tmp_path / "data" / "test_predictions.csv"
        path.write_text(path.read_text().split("\n", 1)[1])
        assert_parse_error(*run_pipeline(capsys, files))

    def test_prediction_rows_wider_than_header_exit_3(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=3)
        path = tmp_path / "data" / "test_predictions.csv"
        path.write_text(path.read_text().replace("h1,h2,h3", "h1,h2"))
        assert_parse_error(*run_pipeline(capsys, files))

    def test_label_row_with_extra_cell_exits_3(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=3)
        path = tmp_path / "data" / "train_labels.csv"
        lines = path.read_text().split("\n")
        lines[3] += ",1"
        path.write_text("\n".join(lines))
        assert_parse_error(*run_pipeline(capsys, files))

    @pytest.mark.parametrize(
        "cell, code", [(" 1", 0), ("+1", 0), ('"1"', 0), ("1.0", 3), ("1.5", 3), ("", 3)]
    )
    def test_prediction_cells_are_integers(self, tmp_path, capsys, cell, code):
        files = gen_dataset(tmp_path, capsys, m=200, n=5, h=3)
        path = tmp_path / "data" / "test_predictions.csv"
        lines = path.read_text().split("\n")
        lines[1] = ",".join([cell] + lines[1].split(",")[1:])
        path.write_text("\n".join(lines))
        exit_code, report = run_pipeline(capsys, files)
        assert exit_code == code
        assert code == 0 or report["error"] == "parse_error"

    @pytest.mark.parametrize("cell", ["127", "2", "128", "300", "-129"])
    @pytest.mark.parametrize(
        "key, rule",
        [
            ("test_pred", "prediction entries must be exactly -1 or +1"),
            ("train_pred", "training predictions must be exactly -1 or +1"),
            ("train_labels", "training labels must be exactly -1 or +1"),
        ],
    )
    def test_int8_edge_cells(self, tmp_path, capsys, cell, key, rule):
        # Cells are read as int8: 127 and 2 parse and break the sign rule (exit 2);
        # 128, 300 and -129 do not parse (exit 3), and the message names the range.
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=3)
        path = Path(files[key])
        lines = path.read_text().split("\n")
        lines[2] = ",".join([cell] + lines[2].split(",")[1:])
        path.write_text("\n".join(lines))
        code, report = run_pipeline(capsys, files)
        if cell in ("127", "2"):
            assert (code, report) == (2, {"error": "validation_error", "message": rule})
        else:
            assert_parse_error(code, report)
            assert report["message"].startswith(
                f"{path}: rows must hold integer cells from -128 to 127 (could not convert string"
            )

    @pytest.mark.parametrize(
        "content",
        [
            b'{"weights": {"a": 1}}',
            b'{"weights": ["a", 1, 0, 0]}',
            b'{"weights": [1, 0, 0, \xff]}',
            b'{"weights": ["0.25", "0.25", "0.25", "0.25"]}',
            b'{"weights": [true, false, false, false]}',
            b'{"weights": [0.5, null, 0.25, 0.25]}',
            b'{"weights": [0.25, 0.25, 0.25, 0.25], "prior": ["0.25", 0.25, 0.25, 0.25]}',
            b'{"weights": [1' + b"0" * 400 + b', 0, 0, 0]}',
            b'{"weights": [[0.25, 0.25], [0.25, 0.25]]}',
            b'{"weights": ' + b"[" * 900 + b"1" + b"]" * 900 + b"}",
            b'{"weights": ' + b"[" * 100_000 + b"1" + b"]" * 100_000 + b"}",
        ],
        ids=[
            "object", "string", "not-utf8", "numeric-strings", "booleans", "null",
            "string-prior", "integer-past-float-range", "2-d", "nested-900", "nested-100000",
        ],
    )
    def test_bad_weights_file_exits_3(self, tmp_path, capsys, content):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        weights = tmp_path / "weights.json"
        weights.write_bytes(content)
        assert_parse_error(*run_pipeline(capsys, files, "--posterior", str(weights)))

    @pytest.mark.parametrize("key", ["votes", "train_pred", "train_labels", "test_pred", "weights"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, key):
        files = gen_dataset(tmp_path, capsys, m=200, n=16, h=4)
        files["votes"] = write_votes(tmp_path)
        files["weights"] = str(tmp_path / "weights.json")
        Path(files["weights"]).write_text(json.dumps({"weights": [0.4, 0.3, 0.2, 0.1]}))
        if key == "votes":
            argv = ["solve", "--votes", files["votes"], "--lambda", "0.5"]
        else:
            argv = ["pipeline", "--train-pred", files["train_pred"], "--train-labels",
                    files["train_labels"], "--test-pred", files["test_pred"],
                    "--posterior", files["weights"], "--alpha", "0.4"]

        def report():
            assert main([*argv, "--canonical"]) == 0
            return capsys.readouterr().out

        plain = report()
        path = Path(files[key])
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert report() == plain

    def test_training_label_outside_plus_minus_one_exits_2(self, tmp_path, capsys):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=3)
        path = Path(files["train_labels"])
        lines = path.read_text().split("\n")
        lines[1] = "2"
        path.write_text("\n".join(lines))
        code, report = run_pipeline(capsys, files)
        assert code == 2
        assert report == {
            "error": "validation_error",
            "message": "training labels must be exactly -1 or +1",
        }

    @pytest.mark.parametrize(
        "content", [b"[0.25, 0.25, 0.25, 0.25]", b'{"prior": [0.25, 0.25, 0.25, 0.25]}'],
        ids=["list", "no-weights"],
    )
    def test_weights_file_without_a_weights_array_exits_3(self, tmp_path, capsys, content):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        weights = tmp_path / "weights.json"
        weights.write_bytes(content)
        code, report = run_pipeline(capsys, files, "--posterior", str(weights))
        assert_parse_error(code, report)
        assert report["message"] == f'{weights}: expected an object with a "weights" array'

    def test_cost_is_checked_before_the_files_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        files = {"train_pred": missing, "train_labels": missing, "test_pred": missing}
        code, report = run_pipeline(capsys, files, "--alpha", "nan")
        assert (code, report["error"]) == (2, "invalid_cost")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_cost_on_fallback_data_exits_2(self, tmp_path, capsys, alpha):
        files = gen_dataset(tmp_path, capsys, seed=3, m=50, n=20, h=4, base_error=0.45)
        assert run_pipeline(capsys, files)[1]["fallback"] is True
        code, report = run_pipeline(capsys, files, "--alpha", alpha)
        assert code == 2
        assert report["error"] == "invalid_cost"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_non_finite_eta_exits_2(self, tmp_path, capsys, eta):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        code, report = run_pipeline(capsys, files, "--posterior", f"exp:{eta}")
        assert code == 2
        assert report["error"] == "validation_error"
        assert "eta" in report["message"]


class TestVerifyCommand:
    def test_batch_run_is_clean(self, capsys):
        code, report = run(
            capsys, "verify", "--count", "50", "--seed", "2", "--nmax", "6", "--canonical"
        )
        assert code == 0
        assert report["ok"] is True
        assert report["max_deviation"] < 1e-9

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--nmax", "0", "nmax must be at least 1"),
            ("--nmax", "-1", "nmax must be at least 1"),
            ("--count", "0", "count must be at least 1"),
            ("--seed", "-1", "seed must be a nonnegative integer"),
        ],
        ids=["zero-nmax", "negative-nmax", "zero-count", "negative-seed"],
    )
    def test_refused_argument_exits_2(self, capsys, flag, value, message):
        code, report = run(capsys, "verify", flag, value)
        assert (code, report) == (2, {"error": "validation_error", "message": message})

    def test_cost_is_checked_before_the_votes_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, report = run(capsys, "verify", "--votes", missing, "--lambda", "0.2", "--alpha", "nan")
        assert (code, report["error"]) == (2, "invalid_cost")

    def test_votes_without_lambda_exits_2(self, tmp_path, capsys):
        code, report = run(capsys, "verify", "--votes", write_votes(tmp_path))
        message = "--lambda is required with --votes"
        assert (code, report) == (2, {"error": "validation_error", "message": message})

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--alpha", "nan"], "invalid_cost"),
            (["--alpha", "0.25"], "validation_error"),
            (["--lambda", "0.3"], "validation_error"),
        ],
    )
    def test_batch_refuses_instance_flags(self, capsys, flags, error):
        # A batch draws its own lambda and alpha per instance.
        code, report = run(capsys, "verify", "--count", "3", *flags)
        assert (code, report["error"]) == (2, error)

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.25"]], ids=["game", "abstain"])
    @pytest.mark.parametrize("name", ["nine", "tied", "mid", "uniform_1e5"])
    def test_single_instance_above_oracle_caps_certifies(self, tmp_path, capsys, name, alpha):
        votes, lam = {
            "nine": (np.full(9, 0.5), 0.2),
            "tied": VOTE_SETS["tied"],
            "mid": VOTE_SETS["mid"],
            "uniform_1e5": (np.random.default_rng(5).uniform(-1.0, 1.0, 100_000), 0.3),
        }[name]
        text = "vote\n" + "".join(f"{x!r}\n" for x in map(float, votes))
        argv = ["verify", "--votes", write_votes(tmp_path, text), "--lambda", repr(lam), *alpha]
        code, report = run(capsys, *argv)
        assert (code, report["ok"]) == (0, True)
        # Above the caps the enumeration and the grid do not run; the LP saddle check does.
        assert report["oracle_value"] is None
        assert report.get("abstain_grid_value") is None
        assert report["max_deviation"] < 1e-12

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.25"]], ids=["game", "abstain"])
    def test_single_instance_keys_do_not_depend_on_n(self, tmp_path, capsys, alpha):
        keys = []
        for n in (4, 12):
            text = "vote\n" + "".join(f"{(k * 5 % 17 - 8) / 8}\n" for k in range(n))
            argv = ["verify", "--votes", write_votes(tmp_path, text), "--lambda", "0.2", *alpha]
            code, report = run(capsys, *argv)
            assert code == 0
            keys.append(list(report))
        assert keys[0] == keys[1]

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["abstain", "--alpha", "0.25"], ["verify"], ["verify", "--alpha", "0.25"]],
    )
    def test_float_sum_short_of_the_floor_is_feasible(self, tmp_path, capsys, command):
        assert float(np.abs(EDGE_SIX).sum()) < cover_floor(6 * EDGE_SIX_LAMBDA)
        text = "vote\n" + "".join(f"{x!r}\n" for x in EDGE_SIX)
        votes = write_votes(tmp_path, text)
        code, report = run(capsys, *command, "--votes", votes, "--lambda", repr(EDGE_SIX_LAMBDA))
        assert code == 0
        assert report.get("ok", True) is True
        assert report.get("value", report.get("closed_form_value", report.get("game_value"))) == 1.0

    def test_single_instance_echo(self, tmp_path, capsys):
        code, report = run(
            capsys,
            "verify",
            "--votes",
            write_votes(tmp_path),
            "--lambda",
            "0.5",
            "--alpha",
            "0.25",
            "--canonical",
        )
        assert code == 0
        assert report["closed_form_value"] == 0.6
        assert report["oracle_value"] == 0.6
        assert report["abstain_value_exact"] == 0.1484375
        assert report["ok"] is True

    @pytest.mark.parametrize(
        "vote, alpha",
        [("1.0000000000009", []), ("-1.0000000000009", ["--alpha", "0.25"])],
        ids=["above-one", "below-minus-one-abstain"],
    )
    def test_vote_clipped_by_the_profile_reaches_every_oracle_clipped(
        self, tmp_path, capsys, vote, alpha
    ):
        # Nature takes the full clipped vote and 0.0001 of the 0.0002 one: value 0.75.
        # An oracle that read the unclipped vote would take less and report about 0.75 - 2.25e-9.
        votes = write_votes(tmp_path, f"vote\n{vote}\n0.0002\n")
        code, report = run(capsys, "verify", "--votes", votes, "--lambda", "0.50005", *alpha)
        assert code == 0
        assert report["oracle_value"] == report["closed_form_value"] == 0.75
        assert report["ok"] is True

    def test_subnormal_vote_leaves_stderr_empty(self, tmp_path):
        # The enumeration oracle divides by the 1e-310 vote; the inf it makes
        # is dropped by the box test and must not print a numpy warning.
        votes = write_votes(tmp_path, "vote\n0.5\n1e-310\n")
        env = dict(os.environ, PYTHONPATH=str(Path(votebound.__file__).parents[1]))
        argv = ["verify", "--votes", votes, "--lambda", "0.2", "--alpha", "0.25"]
        done = subprocess.run(
            [sys.executable, "-m", "votebound.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["ok"] is True

    def test_batch_never_imports_numpy_random(self):
        # A batch draws from Python's random; importing numpy.random would cost every
        # verify process ~15 ms and ~6 MB, and only a fresh interpreter shows whether it ran.
        script = (
            "import contextlib, io, sys\n"
            "from votebound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--count', '30', '--seed', '1', '--nmax', '8'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(votebound.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 False\n")

    def test_single_instance_grid_disagreement_exits_1(self, tmp_path, capsys, monkeypatch):
        # FIX-1's exact abstain value is 0.1484375; the grid's tolerance at
        # n = 4 and the default step 0.02 is 0.04.
        monkeypatch.setattr("votebound.oracle.grid_abstain_value", lambda *a, **k: 0.25)
        code, report = run(
            capsys, "verify", "--votes", write_votes(tmp_path), "--lambda", "0.5",
            "--alpha", "0.25", "--canonical",
        )
        assert code == 1
        assert report["abstain_grid_value"] == 0.25
        assert report["max_deviation"] < 1e-9
        assert report["ok"] is False


# Special floats the vote files carry: non-finite, signed zeros, subnormals and 1 +- 1 ulp.
SPECIAL_VOTES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.0, -1.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
    1e-13, 0.5,
]


@st.composite
def edge_instances(draw):
    """A vote list of n <= 40 (special, all tied or mixed-scale) and a lambda near its mean."""
    n = draw(st.integers(1, 40))
    vote = st.sampled_from(SPECIAL_VOTES) | st.floats(-1.0, 1.0)
    mixed = st.builds(lambda x, e: x * 10.0**e, st.floats(-1.0, 1.0), st.floats(-300.0, 0.0))
    kind = draw(st.sampled_from(["special", "tied", "mixed"]))
    if kind == "tied":
        votes = [draw(vote)] * n
    else:
        votes = draw(st.lists(vote if kind == "special" else mixed, min_size=n, max_size=n))
    mean = math.fsum(abs(x) for x in votes if math.isfinite(x)) / n
    lam = draw(
        st.builds(lambda f: mean * f, st.sampled_from([1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52]))
        | st.builds(lambda f: mean * f, st.floats(0.0, 1.0))
        | st.sampled_from([math.nan, 0.0, 5e-324, 0.5, 1.0, math.nextafter(1.0, 2.0)])
    )
    return votes, lam


def _one_report(argv) -> tuple[int, dict]:
    """Run the CLI in process; its stdout must hold exactly one JSON object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())  # exactly one JSON value, nothing after it
    assert isinstance(report, dict)
    return code, report


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite, node.values()))
    if isinstance(node, list):
        return all(map(_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


@settings(max_examples=150, deadline=None)
@given(edge_instances(), st.sampled_from([0.05, 0.25, 0.45, 0.7]))
def test_edge_votes_give_one_json_object_and_a_documented_exit(instance, alpha):
    # Exit 1 stays possible for verify: the oracles can lose precision the solver keeps.
    votes, lam = instance
    commands = [
        (["solve"], {0, 2, 3}),
        (["abstain", "--alpha", repr(alpha)], {0, 2, 3}),
        (["verify"], {0, 1, 2, 3}),
        (["verify", "--alpha", repr(alpha)], {0, 1, 2, 3}),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_votes(Path(tmp), "vote\n" + "".join(f"{x!r}\n" for x in votes))
        for command, codes in commands:
            argv = [*command, "--votes", path, "--lambda", repr(lam), "--canonical"]
            code, report = _one_report(argv)
            assert code in codes, (command, code, report)
            assert code != 0 or _finite(report), (command, report)


# Integer cells as the reader takes them: plain, spaced, quoted and signed.
CELL_FORMATS = ["{:d}", " {:d}", '"{:d}"', "{:+d}"]


@st.composite
def pipeline_files(draw):
    """Train predictions, train labels and test predictions as CSV texts, H <= 4.

    Each file repeats up to three drawn rows, m up to 200 times each and n up to 5, so m
    reaches the hundreds of examples that certify a positive lambda_hat; m, n and H start
    at 1.  A train row disagrees with its label on at most one untied column, a tied column
    holds one value in every row of both files, and each cell takes one of CELL_FORMATS.
    """
    h = draw(st.integers(1, 4))
    sign = st.sampled_from([-1, 1])
    tied = draw(st.lists(st.sampled_from([None, -1, 1]), min_size=h, max_size=h))

    def line(cells):
        return ",".join(draw(st.sampled_from(CELL_FORMATS)).format(x) for x in cells) + "\n"

    header = ",".join(f"h{j + 1}" for j in range(h)) + "\n"
    train_pred, train_labels, test_pred = header, "label\n", header
    for _ in range(draw(st.integers(1, 3))):
        label, count = draw(sign), draw(st.integers(1, 3) | st.integers(100, 200))
        wrong = draw(st.sets(st.integers(0, h - 1), max_size=1))
        row = [(-label if j in wrong else label) if t is None else t for j, t in enumerate(tied)]
        train_pred += line(row) * count
        train_labels += line([label]) * count
    for _ in range(draw(st.integers(1, 3))):
        test_pred += line([draw(sign) if t is None else t for t in tied]) * draw(st.integers(1, 5))
    return train_pred, train_labels, test_pred


# Weights-file entries: zero, subnormal, tiny and plain, so a prior weight can be far
# below its posterior weight.
WEIGHT_ENTRIES = st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 0.5, 1.0])


@st.composite
def weights_files(draw):
    """A weights file's "weights" and optional "prior" as 4-entry lists, and whether to scale.

    The test keeps the first H entries of each and, when asked, scales each to sum 1.
    """
    laws = st.lists(WEIGHT_ENTRIES, min_size=4, max_size=4)
    return draw(laws), draw(st.none() | laws), draw(st.booleans())


def _weights_file(directory: Path, h: int, weights, prior, scale: bool) -> str:
    def law(values):
        values = values[:h]
        return [x / sum(values) for x in values] if scale and sum(values) > 0 else values

    payload = {"weights": law(weights)} | ({} if prior is None else {"prior": law(prior)})
    return write_votes(directory, json.dumps(payload), "weights.json")


@settings(max_examples=150, deadline=None, derandomize=True)
@example(files=(*CERTAIN_TRAIN, SPLIT_TEST), delta=0.05, alpha=None, posterior="uniform")
@example(
    files=(*CERTAIN_TRAIN, SPLIT_TEST), delta=0.05, alpha=None,
    posterior=([0.5, 0.5, 0.0, 0.0], [1e-320, 1.0, 0.0, 0.0], False),
)
@given(
    pipeline_files(),
    st.sampled_from([1e-320, 0.5, 1.0 - 1e-9]),
    st.sampled_from([None, 1e-300, 0.25, 0.5, 0.5 - 1e-12]),
    st.sampled_from(["uniform", "exp:0", "exp:1e300"]) | weights_files(),
)
def test_pipeline_gives_one_json_object_and_a_documented_exit(files, delta, alpha, posterior):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_votes(Path(tmp), text, f"{k}.csv") for k, text in enumerate(files)]
        if not isinstance(posterior, str):
            h = files[0].split("\n", 1)[0].count(",") + 1
            posterior = _weights_file(Path(tmp), h, *posterior)
        argv = ["pipeline", "--train-pred", paths[0], "--train-labels", paths[1]]
        argv += ["--test-pred", paths[2], "--delta", repr(delta), "--posterior", posterior]
        code, report = _one_report(argv + ([] if alpha is None else ["--alpha", repr(alpha)]))
    assert code in {0, 2, 3}, (code, report)
    if code == 0:
        assert _finite(report), report
        validate(report, PIPELINE_REPORT_SCHEMA)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 20), min_size=3, max_size=3),
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
    | st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**32),
)
def test_gen_gives_one_json_object_and_readable_files(sizes, base_error, seed):
    m, n, h = sizes
    with tempfile.TemporaryDirectory() as tmp:
        code, manifest = _one_report([
            "gen", "--seed", str(seed), "--train-size", str(m), "--test-size", str(n),
            "--hypotheses", str(h), f"--base-error={base_error!r}", "--out", tmp, "--canonical",
        ])
        assert code in {0, 2}, (code, manifest)
        if code == 0:
            assert [manifest[key] for key in ("train_size", "test_size", "hypotheses")] == sizes
            files = manifest["files"]
            for key, header, shape in (
                ("train_pred", None, (m, h)),
                ("train_labels", ["label"], (m, 1)),
                ("test_pred", None, (n, h)),
            ):
                cells = _read_csv(files[key], header, int)
                assert cells.shape == shape and np.all(np.abs(cells) == 1)
