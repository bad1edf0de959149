"""Traced peak allocation of each solver stage at n = 2e5.

Units are one float64 vector, 8n bytes.  Every stage returns a few fresh
vectors, so these bounds allow about one scratch vector beyond its output.
"""

import tracemalloc

import numpy as np
import pytest

from votebound import solve_abstain, solve_game, sort_profile

N = 200_000
VOTES = np.random.default_rng(1).uniform(-1.0, 1.0, N)
LAM, ALPHA = 0.3, 0.25


def traced_peak(stage) -> float:
    """Peak bytes that ``stage()`` allocates beyond what was live before it, over 8N."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stage()
        return (tracemalloc.get_traced_memory()[1] - before) / (8 * N)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage, bound",
    [
        pytest.param(lambda profile: sort_profile(VOTES, LAM), 3.25, id="sort_profile"),
        pytest.param(solve_game, 3.5, id="solve_game"),
        pytest.param(lambda profile: solve_abstain(profile, ALPHA), 2.5, id="solve_abstain"),
    ],
)
def test_traced_peak(stage, bound):
    profile = sort_profile(VOTES, LAM)
    assert traced_peak(lambda: stage(profile)) <= bound
