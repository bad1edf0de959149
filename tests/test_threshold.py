"""The threshold rule behind v and w, checked against exact rational sums.

Every threshold is the smallest count k whose leading margins sum to at least
``target - VALIDATION_TOL``, with the target computed in floats exactly as the
solvers compute it.  Here the sums are evaluated with ``fractions.Fraction``,
so a fast prefix sum that rounds the wrong way at a near-tie would show.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from votebound import sort_profile
from votebound.abstain import find_w, trivial_check
from votebound.errors import InfeasibleConstraint
from votebound.model import VALIDATION_TOL, threshold_index


def exact_rule(magnitudes, target: float, scale: float = 1.0) -> tuple[int, Fraction]:
    """(k, exact head sum) by the rule, over Fraction prefix sums."""
    need = Fraction((target - VALIDATION_TOL) / scale)
    prefix = list(accumulate(map(Fraction, magnitudes)))
    k = bisect_left(prefix, need) + 1
    return k, prefix[k - 2] if k > 1 else Fraction(0)


@st.composite
def vote_sets(draw):
    """Votes with zeros, repeated magnitudes and (often) exact prefix hits."""
    n = draw(st.integers(min_value=1, max_value=10_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "generic", "repeated"]))
    if shape == "grid":
        # A few levels k/denominator: heavy ties and zeros.
        levels = draw(st.integers(min_value=1, max_value=40))
        denominator = draw(st.sampled_from([levels, 8, 20, 3 * levels]))
        votes = rng.integers(-levels, levels + 1, n) / max(denominator, levels)
    else:
        votes = rng.uniform(-1.0, 1.0, n)
        if shape == "repeated":
            votes[rng.integers(0, n, n // 2)] = votes[0]
            votes[rng.integers(0, n, n // 4)] = 0.0
    magnitudes = np.sort(np.abs(votes))[::-1]
    if magnitudes[0] == 0.0:
        votes[0] = magnitudes[0] = 0.5
    # Exact hit: lam puts n*lam on a prefix sum, up to the rounding of the
    # division and product; otherwise anywhere in the feasible range.
    j = draw(st.integers(min_value=1, max_value=n))
    hit = float(sum(map(Fraction, magnitudes[:j])))
    mean = float(np.abs(votes).mean())
    lam = draw(st.sampled_from([hit / n, mean * draw(st.floats(0.01, 1.0))]))
    return votes, max(min(lam, mean), 1e-12), hit


def feasible_profile(votes, lam):
    try:
        return sort_profile(votes, lam)
    except InfeasibleConstraint:
        return None


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(data=vote_sets())
@SETTINGS
def test_v_matches_exact_rule(data):
    votes, lam, _ = data
    v, head = exact_rule(np.sort(np.abs(votes))[::-1], votes.size * lam)
    if v > votes.size:
        # lam at the float mean |vote| can sit above the exact one.
        with pytest.raises(InfeasibleConstraint):
            sort_profile(votes, lam)
        return
    profile = sort_profile(votes, lam)
    assert profile.v == v
    assert profile.head == float(head)
    assert profile.total == float(sum(map(Fraction, profile.abs_sorted)))


@given(data=vote_sets(), alpha=st.floats(min_value=0.01, max_value=0.49))
@SETTINGS
def test_w_matches_exact_rule(data, alpha):
    votes, lam, _ = data
    profile = feasible_profile(votes, lam)
    if profile is None or trivial_check(profile, alpha):
        return
    budget = profile.lam - (1.0 - 2.0 * alpha) * profile.total / profile.n
    w, _ = exact_rule(profile.abs_sorted, profile.n * budget, 2.0 * alpha)
    # The rule's search stops at v, where w always lies in exact arithmetic.
    assert find_w(profile, alpha) == min(w, profile.v)


@given(data=vote_sets(), step=st.integers(min_value=-2, max_value=2))
@SETTINGS
def test_helper_decides_targets_one_ulp_around_a_prefix_sum(data, step):
    votes, _, hit = data
    magnitudes = np.sort(np.abs(votes))[::-1]
    need = hit
    for _ in range(abs(step)):
        need = np.nextafter(need, np.inf if step > 0 else -np.inf)
    target = float(need) + VALIDATION_TOL
    k, head = threshold_index(magnitudes, target)
    expected_k, expected_head = exact_rule(magnitudes, target)
    assert k == expected_k
    assert head == float(expected_head)


def test_helper_reports_uncovered_target():
    assert threshold_index(np.array([0.5, 0.25]), 0.75 + 1e-9)[0] == 3
    assert threshold_index(np.array([0.5, 0.25]), 0.75) == (2, 0.5)
