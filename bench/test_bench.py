"""Tests of the benchmark harness.  Run from the repository root:

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import spans

VB = run._load_votebound()


def _ready(workload, tmp_path):
    assert run.spawn(workload.setup_argv(), tmp_path, 120).code == 0
    workload.prepare()
    return workload


@pytest.mark.parametrize(
    "make",
    [
        lambda path: run.Pipeline(7, path, train=300, test=400, hypotheses=8),
        lambda path: run.Verify(7, path, count=30, nmax=6),
    ],
    ids=["pipeline", "verify"],
)
def test_traced_and_untraced_cli_ops_write_identical_bytes(make, tmp_path):
    workload = _ready(make(tmp_path), tmp_path)
    _, _, (code, untraced), _ = workload.run_subprocess(120)
    tracer = spans.Tracer("votebound", run.LAYERS)
    _, (traced_code, traced) = workload.run_inprocess(VB, tracer)
    assert code == traced_code == 0
    assert traced == untraced
    assert workload.check((code, untraced)) == []
    assert spans.calls(tracer.spans, "model.sort_profile") >= 1


def test_pipeline_check_rejects_a_broken_saddle(tmp_path):
    workload = _ready(run.Pipeline(3, tmp_path, train=300, test=400, hypotheses=8), tmp_path)
    _, _, (code, report), _ = workload.run_subprocess(120)
    broken = json.loads(report)
    broken["game_solution"]["value"] += 1e-6
    assert workload.check((code, json.dumps(broken).encode()))
    broken["game_solution"] = None
    assert workload.check((code, json.dumps(broken).encode()))


def test_solve_check_rejects_a_wrong_threshold(tmp_path):
    workload = run.Solve(5, tmp_path, n=2000)
    workload.prepare()
    _, (game, abstain) = workload.run_inprocess(VB)
    assert workload.check((game, abstain)) == []
    assert workload.check((dataclasses.replace(game, v=game.v + 1), abstain))


def test_tracer_reports_zero_for_deleted_functions(monkeypatch):
    monkeypatch.delattr(VB.model, "compensated_cumsum")
    monkeypatch.delattr(VB.game, "find_threshold")
    tracer = spans.Tracer("votebound", run.LAYERS)
    with tracer.installed():
        VB.payoff([0.5, -0.5], [1.0, -1.0])
    metrics = spans.op_metrics(tracer.spans)
    assert metrics["game.find_threshold.calls"] == 0
    assert metrics["model.compensated_cumsum.elements"] == 0
    assert spans.calls(tracer.spans, "model.payoff") == 1


def test_tracer_wraps_and_restores_every_import_site():
    before = (VB.cli.solve_game, VB.abstain.find_threshold, VB.sort_profile)
    with spans.Tracer("votebound", run.LAYERS).installed():
        assert VB.cli.solve_game is not before[0]
        assert VB.abstain.find_threshold is not before[1]
        assert VB.sort_profile is not before[2]
    assert (VB.cli.solve_game, VB.abstain.find_threshold, VB.sort_profile) == before


def test_layer_times_count_nesting_once():
    recorded = [
        spans.Span(1, "game.find_threshold", 1.0, 3.0, 0, 0, None),
        spans.Span(2, "model.as_array", 4.0, 6.0, 0, 0, 8),
        spans.Span(0, "game.solve_game", 0.0, 10.0, None, 0, None),
    ]
    assert spans.inclusive_s(recorded, "game.") == 10.0
    assert spans.self_s(recorded, "game.") == (10.0 - 4.0) + 2.0
    assert spans.elements(recorded, "model.as_array") == 8
