import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import votebound
from votebound.cli import main
from votebound.schema import PIPELINE_REPORT_SCHEMA

FIX1_CSV = "vote\n1.0\n0.8\n0.5\n0.2\n"


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

    def test_abstain_outputs_present_with_alpha(self, tmp_path, capsys):
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
            "0.25",
            "--canonical",
        )
        assert code == 0
        validate(report, PIPELINE_REPORT_SCHEMA)
        assert report["abstain_solution"] is not None
        assert report["bound_report"]["abstain_bound"] is not None
        assert report["bound_report"]["mistake_bound"] is not None

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

    @pytest.mark.parametrize(
        "content",
        [b'{"weights": {"a": 1}}', b'{"weights": ["a", 1, 0, 0]}', b'{"weights": [1, 0, 0, \xff]}'],
        ids=["object", "string", "not-utf8"],
    )
    def test_bad_weights_file_exits_3(self, tmp_path, capsys, content):
        files = gen_dataset(tmp_path, capsys, m=50, n=5, h=4)
        weights = tmp_path / "weights.json"
        weights.write_bytes(content)
        assert_parse_error(*run_pipeline(capsys, files, "--posterior", str(weights)))

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

    def test_nmax_guard_exits_2(self, capsys):
        for nmax in ("9", "0", "-1"):
            code, report = run(capsys, "verify", "--nmax", nmax)
            assert code == 2
            assert report["error"] == "validation_error"
            assert "nmax" in report["message"]

    def test_single_instance_above_oracle_cap_exits_2(self, tmp_path, capsys):
        votes = write_votes(tmp_path, "vote\n" + "0.5\n" * 9)
        code, report = run(capsys, "verify", "--votes", votes, "--lambda", "0.2")
        assert code == 2
        assert report["error"] == "validation_error"

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
