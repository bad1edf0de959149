from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from votebound import payoff, solve_abstain, solve_game, sort_profile
from votebound.game import find_threshold, game_value
from votebound.model import LabelVector, cover_floor
from votebound.oracle import random_instances

EPS = np.finfo(float).eps


def _zero_sign_vote_sets():
    """Vote sets for the z* byte check, each with ties at its pivot and zeros in z*."""
    rng = np.random.default_rng(4)
    # A 1/64 grid: negative votes below the pivot, and -0.0.
    grid = rng.integers(-64, 65, 100_000) / 64.0
    grid[::7] = -0.0
    # A subnormal grid: the pivot is k * 2^-1074, and a margin below it divides to 1 - 1/k.
    subnormal = rng.integers(-1024, 1025, 100_000) * np.nextafter(0.0, 1.0)
    # Votes one ulp either side of +-0.5, whose predecessor divides to 1 - 2^-53.
    near = np.array([np.nextafter(0.5, 1.0), 0.5, np.nextafter(0.5, 0.0)])
    near = rng.permutation(np.concatenate([near, -near]).repeat(1000))
    tied = rng.choice([-0.3, 0.3], 10_000)
    return [
        pytest.param(grid, 0.3, id="grid"),
        pytest.param(subnormal, 0.5 * float(np.abs(subnormal).mean()), id="subnormal"),
        pytest.param(near, 0.25, id="one-ulp-from-pivot"),
        pytest.param(tied, 0.165, id="all-tied"),
    ]


ZERO_SIGN_VOTE_SETS = _zero_sign_vote_sets()


def nature_greedy(profile):
    """Nature's optimum built by the literal sequential greedy procedure.

    Repeatedly pick the unused example with the largest margin (ties by
    ascending original index), fill it with the sign of its vote while the
    selected margins still fall short of n*lam, and finish with the
    fractional fill that makes the constraint bind.  O(n^2); the reference
    ``solve_game``'s ``z_star`` is checked against, under the same tie-break.
    """
    votes = profile.votes
    n = profile.n
    target = n * profile.lam
    z = np.zeros(n)
    chosen = []
    remaining = set(range(n))
    while True:
        pick = max(remaining, key=lambda j: (abs(votes[j]), -j))
        remaining.discard(pick)
        chosen.append(pick)
        selected_sum = fsum(abs(votes[j]) for j in chosen)
        if selected_sum < cover_floor(target):
            z[pick] = np.sign(votes[pick])
            continue
        fill = np.sign(votes[pick]) - (selected_sum - target) / votes[pick]
        z[pick] = min(max(fill, -1.0), 1.0)
        return LabelVector(z)


class TestFindThreshold:
    def test_fix1(self, fix1):
        # Prefix means 0.25, 0.45, 0.575 against lambda = 0.5.
        assert find_threshold(fix1) == 3

    def test_full_sum_boundary(self):
        assert find_threshold(sort_profile([1.0, 1.0, 1.0], 1.0)) == 3

    def test_fix3(self, fix3):
        # Prefix means 0.45, 0.75 against lambda = 0.6.
        assert find_threshold(fix3) == 2

    def test_single_example(self):
        assert find_threshold(sort_profile([0.8], 0.4)) == 1

    def test_exact_binding(self, fix2):
        assert find_threshold(fix2) == 3


class TestGameValue:
    def test_fix1(self, fix1):
        assert game_value(fix1) == pytest.approx(0.6, abs=1e-12)

    def test_unanimous_certain(self):
        assert game_value(sort_profile([1.0, 1.0, 1.0], 1.0)) == pytest.approx(1.0)

    def test_fix2_integral_binding(self, fix2):
        value = game_value(fix2)
        assert value == pytest.approx(0.75, abs=1e-9)
        assert value == pytest.approx(3 / 4, abs=1e-9)  # v/n when the prefix binds

    def test_fix3(self, fix3):
        assert game_value(fix3) == pytest.approx(0.75, abs=1e-12)


class TestOptimalPredictor:
    def test_fix1(self, fix1):
        assert np.allclose(solve_game(fix1).g_star.values, [1, 1, 1, 0.4])

    def test_fix3_signs_preserved(self, fix3):
        assert np.allclose(solve_game(fix3).g_star.values, [-1, 1])

    def test_all_indices_at_threshold(self):
        profile = sort_profile([1.0, 1.0], 1.0)
        assert np.allclose(solve_game(profile).g_star.values, [1, 1])

    def test_original_order_restored(self):
        # Same multiset of votes, permuted input; predictions must permute along.
        base = sort_profile([1.0, 0.8, 0.5, 0.2], 0.5)
        perm = sort_profile([0.2, 0.5, 0.8, 1.0], 0.5)
        assert np.allclose(solve_game(perm).g_star.values, solve_game(base).g_star.values[::-1])


class TestOptimalNature:
    def test_fix1(self, fix1):
        z = solve_game(fix1).z_star.values
        assert np.allclose(z, [1, 1, 0.4, 0])
        assert payoff(z, fix1.votes) == pytest.approx(0.5, abs=1e-9)

    def test_fix2_integral_binding(self, fix2):
        assert np.allclose(solve_game(fix2).z_star.values, [1, 1, 1, 0], atol=1e-9)

    def test_fix3(self, fix3):
        z = solve_game(fix3).z_star.values
        assert np.allclose(z, [-1, 0.5])
        assert payoff(z, fix3.votes) == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("votes, lam", ZERO_SIGN_VOTE_SETS)
    def test_zeros_match_the_masked_sign_construction(self, votes, lam):
        profile = sort_profile(votes, lam)
        margins, pivot = np.abs(votes), profile.pivot
        above, ties = margins > pivot, np.flatnonzero(margins == pivot)
        assert np.any(votes[~above] < 0) and ties.size > 1
        full = ties[: profile.v - 1 - np.count_nonzero(above)]
        at_pivot = ties[full.size]
        reference = np.sign(votes, where=above, out=np.zeros(votes.size))
        reference[full] = np.sign(votes[full])
        reference[at_pivot] = np.sign(votes[at_pivot]) * profile.fraction
        z = solve_game(profile).z_star.values
        assert z.tobytes() == reference.tobytes()
        zeros = z[z == 0.0]
        assert zeros.size > 0 and not np.signbit(zeros).any()


class TestTieRuleEdge:
    """lam at the float mean |vote|: n*lam may pass the exact margin sum by a few ulps."""

    VOTES = np.random.default_rng(0).uniform(-1.0, 1.0, 1700)

    def test_solvers_accept_lambda_at_the_mean_margin(self):
        profile = sort_profile(self.VOTES, float(np.abs(self.VOTES).mean()))
        solution = solve_game(profile)
        assert solution.v == profile.n
        assert profile.lam <= solution.value <= 1.0
        assert np.all(np.abs(solution.z_star.values) <= 1.0)
        for alpha in (0.01, 0.25, 0.49):
            abstain = solve_abstain(profile, alpha)
            assert abstain.w == profile.n
            assert abstain.value_lower <= abstain.value_exact <= abstain.value_upper

    def test_tiny_margins_raise_or_solve_exactly(self):
        # n*lam = 6.26e-13: an absolute tie slack of 1e-12 would pick v = 1 here.  The
        # relative floor picks the exact v = 2 and its fraction (n*lam - 4.08e-13)/3.33e-13.
        profile = sort_profile([4.08e-13, 3.33e-13], 3.13e-13)
        solution = solve_game(profile)
        fraction = (Fraction(2 * 3.13e-13) - Fraction(4.08e-13)) / Fraction(3.33e-13)
        assert solution.v == 2
        assert solution.value == pytest.approx(float((1 + fraction) / 2), rel=0, abs=2 * EPS)
        assert solution.z_star.values[1] == pytest.approx(float(fraction), rel=0, abs=2 * EPS)

    def test_binding_check_bites_at_tiny_lambda(self):
        # A pivot fraction off by 0.1 moves the binding by 1.7e-14, far below an
        # absolute 1e-9; the check relative to lam must still refuse it.
        profile = sort_profile([4.08e-13, 3.33e-13], 3.13e-13)
        object.__setattr__(profile, "fraction", profile.fraction - 0.1)
        with pytest.raises(AssertionError, match="does not bind"):
            solve_game(profile)


class TestNatureGreedy:
    def test_fix1(self, fix1):
        assert np.allclose(nature_greedy(fix1).values, [1, 1, 0.4, 0])

    def test_single_step_saturates(self):
        assert np.allclose(nature_greedy(sort_profile([0.5], 0.5)).values, [1.0])

    def test_fix3(self, fix3):
        assert np.allclose(nature_greedy(fix3).values, [-1, 0.5])

    def test_matches_closed_form_on_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=11, nmax=6):
            profile = sort_profile(votes, lam)
            assert np.allclose(
                nature_greedy(profile).values, solve_game(profile).z_star.values, atol=1e-9
            )


class TestValueLowerBound:
    def test_fix1(self, fix1):
        bound = solve_game(fix1).lower_bound
        assert bound == pytest.approx(0.55, abs=1e-12)
        assert bound <= game_value(fix1) + 1e-12

    def test_no_disagreement_term(self):
        profile = sort_profile([1.0, 1.0, -1.0], 0.5)
        assert solve_game(profile).lower_bound == pytest.approx(0.5, abs=1e-12)

    def test_fix2(self, fix2):
        assert solve_game(fix2).lower_bound == pytest.approx(0.65, abs=1e-12)

    def test_gap_identity_on_random_instances(self):
        # value - bound = (1/|a_v| - 1)(lambda - (1/n) sum_{i<v} |a_i|)
        for votes, lam, _ in random_instances(count=200, seed=12, nmax=6):
            profile = sort_profile(votes, lam)
            gap = (1.0 / profile.pivot - 1.0) * (lam - profile.head / profile.n)
            assert game_value(profile) - solve_game(profile).lower_bound == pytest.approx(
                gap, abs=1e-9
            )


class TestGameProperties:
    def test_saddle_and_binding_on_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=13, nmax=6):
            profile = sort_profile(votes, lam)
            sol = solve_game(profile)
            assert payoff(sol.g_star, sol.z_star) == pytest.approx(sol.value, abs=1e-9)
            assert payoff(sol.z_star, votes) == pytest.approx(lam, abs=1e-9)
            assert sol.value >= lam - 1e-12
            assert sol.value >= sol.lower_bound - 1e-12
            assert np.all(np.abs(sol.g_star.values) <= 1 + 1e-12)
            assert np.all(np.abs(sol.z_star.values) <= 1 + 1e-12)
            # Full commitment on the v most confident examples.
            committed = np.abs(votes) >= profile.pivot
            assert np.count_nonzero(committed) >= sol.v
            assert np.all(np.abs(sol.g_star.values[committed]) == 1.0)

    def test_predictor_monotone_in_vote(self):
        for votes, lam, _ in random_instances(count=200, seed=14, nmax=6):
            profile = sort_profile(votes, lam)
            g = solve_game(profile).g_star.values
            order = np.argsort(votes)
            assert np.all(np.diff(g[order]) >= -1e-12)

    def test_gibbs_dominance_strict_with_uncertain_top_votes(self):
        profile = sort_profile([0.9, 0.8, 0.3], 0.5)
        # Some i < v has |a_i| < 1, so the voting gain is strictly positive.
        assert game_value(profile) > 0.5

    def test_gibbs_dominance_strictness_on_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=16, nmax=6):
            profile = sort_profile(votes, lam)
            v = find_threshold(profile)
            if v > 1 and np.any(profile.abs_sorted[: v - 1] < 1 - 1e-6):
                assert game_value(profile) > lam

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            votes = rng.uniform(-1, 1, n)
            lam = 0.5 * np.abs(votes).mean()
            if lam <= 0:
                continue
            perm = rng.permutation(n)
            base = solve_game(sort_profile(votes, lam))
            shuffled = solve_game(sort_profile(votes[perm], lam))
            assert np.allclose(shuffled.g_star.values, base.g_star.values[perm], atol=1e-12)
            assert np.allclose(shuffled.z_star.values, base.z_star.values[perm], atol=1e-12)

    def test_zero_votes_get_zero_strategies(self):
        profile = sort_profile([0.9, 0.0, 0.4, 0.0], 0.3)
        sol = solve_game(profile)
        assert sol.g_star.values[1] == 0.0 and sol.g_star.values[3] == 0.0
        assert sol.z_star.values[1] == 0.0 and sol.z_star.values[3] == 0.0

    def test_single_example_specializes(self):
        profile = sort_profile([-0.8], 0.4)
        sol = solve_game(profile)
        assert sol.v == 1
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(sol.g_star.values, [-1.0])
        assert np.allclose(sol.z_star.values, [-0.5])
