"""Traced peak allocation of each solver stage and vector constructor at n = 2e5.

Units are one float64 vector, 8n bytes (8nH for a matrix).  A caller's array
is copied once, while a solver freezes the buffers it builds in place, so
each bound allows the stage's fresh outputs plus little more than boolean
or integer scratch.  ``sort_profile`` keeps the votes and the sorted margins
(2 x 8n); ``threshold_index`` walks the margins in blocks of ``_BLOCK`` with one
int64 scratch per call and a float cumsum over one block, so an n-sized
cumsum or scratch would break its 2.25 bound.
The ``gen`` bounds are in MB, at 100k x 32 cells, and so is ``pipeline``'s, at
4k train x 20k test x 32 hypotheses: the int8 cells are converted to float one
block of rows at a time, and the report is held as parts, never as one string.
"""

import tracemalloc

import numpy as np
import pytest

from votebound import solve_abstain, solve_game, sort_profile
from votebound.cli import _write_signs, main
from votebound.model import EnsembleMatrix, PredictionVector, WeightVector, compute_votes

N = 200_000
VOTES = np.random.default_rng(1).uniform(-1.0, 1.0, N)
SIGNS = np.random.default_rng(5).integers(-1, 2, N)  # int64 votes in {-1, 0, 1}
TIED = np.random.default_rng(4).integers(-20, 21, N) / 20.0  # ties at every margin
LAM, ALPHA = 0.3, 0.25


def traced_peak(stage, units=8 * N) -> float:
    """Peak bytes that ``stage()`` allocates beyond what was live before it, over ``units``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stage()
        return (tracemalloc.get_traced_memory()[1] - before) / units
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage, bound, votes",
    [
        pytest.param(lambda profile: sort_profile(VOTES, LAM), 2.25, VOTES, id="sort_profile"),
        pytest.param(
            lambda profile: sort_profile(SIGNS, LAM), 2.25, VOTES, id="sort_profile-int64"
        ),
        pytest.param(lambda profile: sort_profile(TIED, LAM), 2.25, VOTES, id="sort_profile-tied"),
        pytest.param(solve_game, 2.1, VOTES, id="solve_game"),
        pytest.param(solve_game, 2.1, TIED, id="solve_game-tied"),
        pytest.param(lambda profile: solve_abstain(profile, ALPHA), 1.1, VOTES, id="solve_abstain"),
    ],
)
def test_traced_peak(stage, bound, votes):
    profile = sort_profile(votes, LAM)
    assert traced_peak(lambda: stage(profile)) <= bound


def test_integer_input_is_converted_and_copied_in_one_allocation():
    ints = np.random.default_rng(2).integers(-1, 2, N)
    assert traced_peak(lambda: PredictionVector(ints)) <= 1.1


def test_votes_are_clipped_in_their_own_buffer():
    signs = np.where(np.random.default_rng(6).random((N, 8)) < 0.5, -1.0, 1.0)
    matrix, q = EnsembleMatrix(signs), WeightVector(np.full(8, 1 / 8))
    assert traced_peak(lambda: compute_votes(matrix, q)) <= 1.1


def test_sign_check_makes_no_float_temporary():
    signs = np.where(np.random.default_rng(3).random((20_000, 32)) < 0.5, -1, 1)
    assert traced_peak(lambda: EnsembleMatrix(signs), 8 * signs.size) <= 1.3


def test_gen_writer_holds_one_block_of_text(tmp_path):
    # In MB: rows are written in blocks of 1.6 MB traced; one whole-file join traces 18 MB.
    positive = np.random.default_rng(7).random((100_000, 32)) < 0.5
    header = ",".join(f"h{j + 1}" for j in range(32))
    assert traced_peak(lambda: _write_signs(tmp_path / "p.csv", [positive], header), 2**20) <= 3


def test_gen_draws_each_flip_matrix_in_blocks(tmp_path, capsys):
    # In MB: a whole 100k x 32 float draw alone traces 25.6 MB; block draws keep gen near 3 MB.
    argv = ["gen", "--seed", "1", "--train-size", "20000", "--test-size", "100000"]
    argv += ["--hypotheses", "32", "--base-error", "0.1", "--out", str(tmp_path)]
    assert traced_peak(lambda: main(argv), 2**20) <= 6
    capsys.readouterr()


def test_pipeline_reads_and_reports_without_float_copies(tmp_path, capsys):
    # In MB, at 4k train x 20k test x 32 hypotheses: the int8 test matrix is 0.64 MB, its
    # float64 copy 5.1 MB, and the report 3.4 MB, written in parts of 8192 rows.
    data, report = tmp_path / "data", tmp_path / "report.json"
    gen = ["gen", "--seed", "1", "--train-size", "4000", "--test-size", "20000"]
    assert main([*gen, "--hypotheses", "32", "--base-error", "0.1", "--out", str(data)]) == 0
    argv = ["pipeline", "--train-pred", str(data / "train_predictions.csv")]
    argv += ["--train-labels", str(data / "train_labels.csv")]
    argv += ["--test-pred", str(data / "test_predictions.csv")]
    argv += ["--alpha", "0.25", "--canonical", "--out", str(report)]
    assert traced_peak(lambda: main(argv), 2**20) <= 10
    capsys.readouterr()


# 0.1 is trivial (abstain everywhere), 0.25 plays p_alg below the pivot, 0.75 never abstains.
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.75])
def test_solver_outputs_are_read_only_and_share_no_memory(alpha):
    votes = np.random.default_rng(4).integers(-20, 21, 100_000) / 20.0
    profile = sort_profile(votes, LAM)
    assert np.count_nonzero(np.abs(votes) == profile.pivot) > 1  # ties at the pivot
    game = solve_game(profile)
    arrays = [
        game.g_star.values,
        game.z_star.values,
        solve_abstain(profile, alpha).p_alg.probs,
        profile.votes,
        profile.abs_sorted,
    ]
    assert not any(a.flags.writeable for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
