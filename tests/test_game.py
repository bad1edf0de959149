import numpy as np
import pytest

from votebound import payoff, solve_game, sort_profile
from votebound.game import (
    find_threshold,
    game_value,
    optimal_nature,
    optimal_predictor,
    value_lower_bound,
)
from votebound.oracle import nature_greedy, random_instances


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
        assert np.allclose(optimal_predictor(fix1).values, [1, 1, 1, 0.4])

    def test_fix3_signs_preserved(self, fix3):
        assert np.allclose(optimal_predictor(fix3).values, [-1, 1])

    def test_all_indices_at_threshold(self):
        profile = sort_profile([1.0, 1.0], 1.0)
        assert np.allclose(optimal_predictor(profile).values, [1, 1])

    def test_original_order_restored(self):
        # Same multiset of votes, permuted input; predictions must permute along.
        base = sort_profile([1.0, 0.8, 0.5, 0.2], 0.5)
        perm = sort_profile([0.2, 0.5, 0.8, 1.0], 0.5)
        assert np.allclose(optimal_predictor(perm).values, optimal_predictor(base).values[::-1])


class TestOptimalNature:
    def test_fix1(self, fix1):
        z = optimal_nature(fix1).values
        assert np.allclose(z, [1, 1, 0.4, 0])
        assert payoff(z, fix1.votes) == pytest.approx(0.5, abs=1e-9)

    def test_fix2_integral_binding(self, fix2):
        assert np.allclose(optimal_nature(fix2).values, [1, 1, 1, 0], atol=1e-9)

    def test_fix3(self, fix3):
        z = optimal_nature(fix3).values
        assert np.allclose(z, [-1, 0.5])
        assert payoff(z, fix3.votes) == pytest.approx(0.6, abs=1e-12)


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
                nature_greedy(profile).values, optimal_nature(profile).values, atol=1e-9
            )


class TestValueLowerBound:
    def test_fix1(self, fix1):
        bound = value_lower_bound(fix1)
        assert bound == pytest.approx(0.55, abs=1e-12)
        assert bound <= game_value(fix1) + 1e-12

    def test_no_disagreement_term(self):
        profile = sort_profile([1.0, 1.0, -1.0], 0.5)
        assert value_lower_bound(profile) == pytest.approx(0.5, abs=1e-12)

    def test_fix2(self, fix2):
        assert value_lower_bound(fix2) == pytest.approx(0.65, abs=1e-12)

    def test_gap_identity_on_random_instances(self):
        # value - bound = (1/|a_v| - 1)(lambda - (1/n) sum_{i<v} |a_i|)
        for votes, lam, _ in random_instances(count=200, seed=12, nmax=6):
            profile = sort_profile(votes, lam)
            gap = (1.0 / profile.pivot - 1.0) * (lam - profile.head / profile.n)
            assert game_value(profile) - value_lower_bound(profile) == pytest.approx(
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
            g = optimal_predictor(profile).values
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
