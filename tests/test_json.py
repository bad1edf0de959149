"""The report encoder against the route it replaced.

The CLI used to round every real with a recursive walk and then call
``json.dumps(..., indent=2)``.  That route is kept here as the reference:
the encoder must write the same bytes for any payload the CLI can build,
including float arrays with signed zeros, subnormals and heavy repeats, and
the column table that holds ``pipeline``'s per-example records.  The
encoder returns the report as text parts; the tests join them.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from votebound import cli
from votebound.cli import _WRITE_ROWS, _json, main

EXAMPLE_FIELDS = ("index", "vote", "prediction", "abstain_probability", "label")


def round_floats(obj):
    """Round reals to 12 significant digits (the former recursive walk)."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [round_floats(value) for value in obj]
    return obj


def as_records(obj):
    """Structured arrays as the list of per-row dicts the CLI used to build."""
    if isinstance(obj, np.ndarray) and obj.dtype.names:
        return [{name: row[name] for name in obj.dtype.names} for row in obj]
    if isinstance(obj, dict):
        return {key: as_records(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_records(value) for value in obj]
    return obj


def reference(payload) -> str:
    return json.dumps(round_floats(as_records(payload)), indent=2)


def encode(payload) -> str:
    return "".join(_json(payload))


SPECIAL_REALS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16, 1e-5,
    0.1 + 0.2, 1 / 3, 1e15 + 0.3, 123456789012.5, 0.5, -1.0, 1.0, 1e300,
]
# Few distinct specials, so arrays drawn from them repeat values heavily.
reals = st.sampled_from(SPECIAL_REALS) | st.floats(allow_nan=False, allow_infinity=False)
sizes = st.sampled_from([0, 1, 2, 7, 60])
float_arrays = arrays(np.float64, sizes, elements=reals) | arrays(
    np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=reals
)
int_arrays = arrays(np.int64, sizes) | arrays(np.int32, sizes)
bool_arrays = arrays(np.bool_, sizes)
scalars = (
    reals
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | reals.map(np.float64)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.none()
    | st.text()
)


@st.composite
def example_tables(draw):
    """The per-example columns of a pipeline report, as one structured array."""
    n = draw(st.sampled_from([0, 1, 60]))
    vote, prediction, probs = (draw(arrays(np.float64, n, elements=reals)) for _ in range(3))
    columns = [np.arange(n), vote, prediction, probs, np.sign(prediction).astype(int)]
    return np.rec.fromarrays(columns, names=",".join(EXAMPLE_FIELDS))


payloads = st.recursive(
    scalars | float_arrays | int_arrays | bool_arrays | example_tables(),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_bytes_equal_the_former_route(payload):
    assert encode(payload) == reference(payload)


@settings(max_examples=100, deadline=None)
@given(example_tables())
def test_example_table_equals_per_row_dicts(table):
    payload = {"examples": table, "fallback": False}
    assert encode(payload) == reference(payload)


def tied_and_distinct_payload(n):
    """A per-example table of n rows and its g_star column: values tied, distinct and -0.0."""
    k = np.arange(n)
    vote = ((k * 37) % 41 - 20) / 20.0
    prediction = np.clip(vote / 0.35, -1.0, 1.0)
    prediction[::7] = -0.0
    probs = 1.0 - np.abs(prediction)
    probs[::3] = k[::3] / 7.0
    table = np.rec.fromarrays(
        [k, vote, prediction, probs, np.sign(prediction).astype(int)],
        names=",".join(EXAMPLE_FIELDS),
    )
    return {"game_solution": {"g_star": prediction, "v": 3}, "examples": table}


def test_many_rows_of_tied_and_distinct_values():
    payload = tied_and_distinct_payload(5000)
    assert encode(payload) == reference(payload)


@pytest.mark.parametrize("n", [_WRITE_ROWS, 2 * _WRITE_ROWS + 1])
def test_rows_across_text_part_edges(n):
    # Each array of n rows is joined _WRITE_ROWS rows to a part; the last part may hold one row.
    payload = tied_and_distinct_payload(n)
    parts = _json(payload)
    assert "".join(parts) == reference(payload)
    assert max(part.count('"index"') for part in parts) == _WRITE_ROWS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_reals_are_refused(bad):
    # The refusal names the real by its path of keys.
    for payload, path in (
        ({"budget": bad}, "budget"),
        ({"x": [1.0, np.float64(bad)]}, "x"),
        ({"g_star": np.array([0.5, bad, 0.5])}, "g_star"),
        ({"bound_report": {"epsilon": 0.1, "error_bound_raw": bad}}, "bound_report.error_bound_raw"),
        (np.rec.fromarrays([np.arange(2), np.array([0.0, bad])], names="index,vote"), "vote"),
        ({"examples": np.rec.fromarrays([np.array([0.0, bad])], names="vote")}, "examples.vote"),
    ):
        with pytest.raises(ValueError, match=rf"non-finite real \(.+\) at {path}$"):
            encode(payload)


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_non_finite_real_in_the_last_part_writes_no_report(tmp_path, capsys, monkeypatch, out):
    data = tmp_path / "data"
    gen = ["gen", "--seed", "3", "--train-size", "200", "--test-size", str(2 * _WRITE_ROWS + 1)]
    assert main([*gen, "--hypotheses", "4", "--base-error", "0.1", "--out", str(data)]) == 0
    report = tmp_path / "report.json"
    argv = ["pipeline", "--canonical", "--alpha", "0.25"]
    argv += ["--train-pred", str(data / "train_predictions.csv")]
    argv += ["--train-labels", str(data / "train_labels.csv")]
    argv += ["--test-pred", str(data / "test_predictions.csv")]
    argv += ["--out", str(report)] if out else []
    emit = cli._emit

    def emit_with_nan_last(payload, args, path):
        payload["examples"]["vote"][-1] = math.nan  # in the last part of 2 * _WRITE_ROWS + 1 rows
        emit(payload, args, path)

    monkeypatch.setattr(cli, "_emit", emit_with_nan_last)
    capsys.readouterr()
    assert main(argv) == 2
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 1  # the error line alone
    assert json.loads(stdout) == {
        "error": "validation_error",
        "message": "non-finite real (nan) at examples.vote",
    }
    assert not report.exists()
