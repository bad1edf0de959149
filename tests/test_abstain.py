from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import votebound.abstain
import votebound.model
from votebound import solve_abstain, solve_game, sort_profile
from votebound.abstain import abstain_loss, p_alg
from votebound.errors import DimensionError, InvalidCost
from votebound.game import find_threshold, game_value
from votebound.model import AbstainStrategy
from votebound.oracle import grid_abstain_value, random_instances


def value_bracket(solution):
    return solution.value_exact, solution.value_lower, solution.value_upper


class TestTrivialCheck:
    def test_fix1_low_cost(self, fix1):
        # Threshold (1/2)(1 - 2/2.5) = 0.1.
        assert solve_abstain(fix1, 0.05).trivial is True

    def test_fix1_moderate_cost(self, fix1):
        assert solve_abstain(fix1, 0.25).trivial is False

    def test_threshold_is_inclusive(self, fix1):
        assert solve_abstain(fix1, 0.1).trivial is True

    def test_zero_threshold_never_trivial(self):
        profile = sort_profile([0.5, 0.3], 0.4)  # lambda equals the mean margin
        assert solve_abstain(profile, 1e-9).trivial is False

    @pytest.mark.parametrize("alpha", [0.5, 0.5 + 5e-13])
    def test_never_trivial_from_one_half(self, alpha):
        # The edge (1/2)(1 - 2e-13/1.5) lies within VALIDATION_TOL below 1/2, but from
        # alpha = 1/2 on abstaining never helps: the plain game's value, no abstention.
        profile = sort_profile([1.0, 0.5], 1e-13)
        solution = solve_abstain(profile, alpha)
        assert solution.trivial is False
        assert solution.w is None
        assert solution.value_exact == (1.0 - game_value(profile)) / 2.0 == 0.49999999999995
        assert solution.p_alg.probs.tolist() == [0.0, 0.0]

    def test_invalid_cost(self, fix1):
        with pytest.raises(InvalidCost):
            solve_abstain(fix1, 0.0)
        with pytest.raises(InvalidCost):
            solve_abstain(fix1, -0.1)
        for cost in (float("inf"), float("nan")):
            with pytest.raises(InvalidCost):
                solve_abstain(fix1, cost)


class TestFindW:
    def test_fix1(self, fix1):
        # Budget 0.1875; scaled prefixes 0.125, 0.225 cross at the second index.
        assert solve_abstain(fix1, 0.25).w == 2

    def test_matches_direct_definition_on_random_instances(self):
        for votes, lam, alpha in random_instances(count=200, seed=21, nmax=6):
            profile = sort_profile(votes, lam)
            solution = solve_abstain(profile, alpha)
            if solution.trivial:
                continue
            w = solution.w
            n = profile.n
            sums = np.cumsum(profile.abs_sorted)
            total = sums[-1]
            direct = [
                i + 1
                for i in range(n)
                if (sums[i] + (1 - 2 * alpha) * (total - sums[i])) / n >= lam - 1e-12
            ]
            assert w == direct[0]
            assert 1 <= w <= find_threshold(profile)

    def test_approaches_v_as_cost_nears_half(self, fix1, fix2, fix3):
        for profile in (fix1, fix2, fix3):
            assert solve_abstain(profile, 0.5 - 1e-9).w == find_threshold(profile)

    def test_fix2(self, fix2):
        # Budget 0.275; scaled prefixes 0.125, 0.225, 0.3 cross at the third index.
        assert solve_abstain(fix2, 0.25).w == 3

    def test_tight_bound_at_large_n_keeps_w_at_v(self):
        # lam is the float mean |vote|, so every margin is needed: w = v = n.
        # The budget's rounding, amplified by 1/(2 alpha), must not push w past v.
        k = (np.arange(1, 5751, dtype=np.int64) * 48271) % 2147483647
        votes = k / 1073741823.5 - 1.0
        profile = sort_profile(votes, float(np.abs(votes).mean()))
        assert solve_abstain(profile, 0.01).w == find_threshold(profile) == 5750


class TestAbstainValue:
    def test_fix1_nontrivial(self, fix1):
        value, lower, upper = value_bracket(solve_abstain(fix1, 0.25))
        assert value == pytest.approx(0.1484375, abs=1e-12)
        assert lower == pytest.approx(0.125, abs=1e-12)
        assert upper == pytest.approx(0.1875, abs=1e-12)

    def test_fix1_trivial(self, fix1):
        assert value_bracket(solve_abstain(fix1, 0.05)) == (0.05, 0.05, 0.05)

    def test_fix1_high_cost_reduces_to_plain_game(self, fix1):
        value, lower, upper = value_bracket(solve_abstain(fix1, 0.6))
        assert value == pytest.approx((1 - 0.6) / 2, abs=1e-12)
        assert lower == value and upper == value

    def test_invalid_cost(self, fix1):
        with pytest.raises(InvalidCost):
            solve_abstain(fix1, 0.0)

    def test_value_never_exceeds_cost(self):
        for votes, lam, alpha in random_instances(count=200, seed=22, nmax=6):
            profile = sort_profile(votes, lam)
            solution = solve_abstain(profile, alpha)
            value, lower, upper = value_bracket(solution)
            assert value <= alpha + 1e-12
            assert lower - 1e-9 <= value <= upper + 1e-9
            if solution.trivial:
                assert value == alpha
            else:
                margin = alpha - 0.5 * (1 - profile.n * lam / profile.total)
                if margin > 1e-6:  # clear of the trivial boundary
                    assert value < alpha

    def test_single_example_specializes(self):
        profile = sort_profile([0.8], 0.4)
        solution = solve_abstain(profile, 0.3)
        value, lower, upper = value_bracket(solution)
        # Trivial threshold (1/2)(1 - 0.4/0.8) = 0.25 < 0.3, budget 0.08.
        assert solution.trivial is False
        assert solution.w == 1
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(0.3, abs=1e-12)
        assert lower - 1e-9 <= value <= upper + 1e-9
        # Greedy by hand: t_1 = (1 - 2*0.3) + 0.08/0.8 = 0.5, value = (1 - 0.5)/2.
        assert value == pytest.approx(0.25, abs=1e-12)
        grid = grid_abstain_value([0.8], 0.4, 0.3, step=0.005)
        assert abs(grid - value) <= 0.005 / 2 + 1e-9

    def test_value_matches_exact_greedy(self):
        # The greedy in exact arithmetic on the float inputs: with S_k the sum of the
        # k largest margins, w = min { i : 2 alpha S_i >= n*budget } and the value is
        # alpha(1 - w/n) + (2 alpha S_w - n*budget) / (2 n |a_w|).
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps
        checked = 0
        for draw in range(300):
            n = int(rng.integers(2, 2001))
            if draw % 2:
                votes = rng.integers(-20, 21, n) / 20.0  # tie-heavy
            else:
                votes = rng.uniform(-1.0, 1.0, n)
            mean_abs = float(np.abs(votes).mean())
            lam = float(rng.uniform(0.1 * mean_abs, mean_abs))
            alpha = float(rng.uniform(0.05, 0.45))
            solution = solve_abstain(sort_profile(votes, lam), alpha)
            if solution.trivial:
                continue
            cost = Fraction(alpha)
            margins = sorted((Fraction(abs(x)) for x in votes), reverse=True)
            sums = list(accumulate(margins))
            budget = Fraction(lam) - (1 - 2 * cost) * sums[-1] / n
            w = next(i for i, s in enumerate(sums, 1) if 2 * cost * s >= n * budget)
            if w != solution.w:
                continue  # a near-tie of the w rule
            pivot = margins[w - 1]
            exact = cost * (1 - Fraction(w, n))
            exact += (2 * cost * sums[w - 1] - n * budget) / (2 * n * pivot)
            unit = (n * lam + float(sums[-1]) + 2 * alpha * float(sums[w - 1])) / (
                2 * n * float(pivot)
            )
            assert abs(Fraction(solution.value_exact) - exact) <= 4 * eps * unit
            checked += 1
            if checked == 100:
                break
        assert checked == 100


class TestPAlg:
    def test_fix1(self, fix1):
        strategy = p_alg(fix1, 0.25)
        assert np.allclose(strategy.probs, [0, 0, 0, 0.6])

    def test_high_cost_never_abstains(self, fix1):
        assert np.all(p_alg(fix1, 0.7).probs == 0.0)

    def test_equal_margins_never_abstain(self):
        profile = sort_profile([0.6, -0.6, 0.6], 0.5)
        assert np.all(p_alg(profile, 0.25).probs == 0.0)

    def test_cost_independent_within_regime(self, fix1):
        a = p_alg(fix1, 0.1).probs
        b = p_alg(fix1, 0.49).probs
        assert np.array_equal(a, b)

    def test_zero_only_on_top_margins(self):
        for votes, lam, alpha in random_instances(count=200, seed=23, nmax=6):
            profile = sort_profile(votes, lam)
            strategy = p_alg(profile, alpha)
            top = np.abs(votes) >= profile.pivot
            assert np.count_nonzero(top) >= find_threshold(profile)
            assert np.all(strategy.probs[top] == 0.0)

    def test_abstain_fraction_bound(self):
        # (1/n) sum p_i <= 1 - lambda - (1/n) sum_{i>v} |a_i| / |a_v|
        for votes, lam, alpha in random_instances(count=200, seed=24, nmax=6):
            profile = sort_profile(votes, lam)
            strategy = p_alg(profile, min(alpha, 0.45))
            v = find_threshold(profile)
            pivot = profile.abs_sorted[v - 1]
            tail_ratio = profile.abs_sorted[v:].sum() / pivot
            bound = 1 - lam - tail_ratio / profile.n
            assert strategy.probs.mean() <= bound + 1e-9

    def test_ordering2_keys_flatten_beyond_threshold(self):
        for votes, lam, alpha in random_instances(count=200, seed=25, nmax=6):
            profile = sort_profile(votes, lam)
            if np.any(profile.abs_sorted == 0.0):
                continue
            strategy = p_alg(profile, min(alpha, 0.45))
            keys = np.abs(profile.votes) / (1.0 - strategy.probs)
            at_or_below = np.abs(votes) <= profile.pivot
            assert np.allclose(keys[at_or_below], profile.pivot, atol=1e-9)


class TestAbstainLoss:
    def test_no_abstain_reduction(self):
        g = np.array([1.0, 0.5, -0.5])
        z = np.array([0.2, 1.0, -1.0])
        strategy = AbstainStrategy(np.zeros(3), alpha=0.25)
        expected = np.mean(0.5 * (1 - g * z))
        assert abstain_loss(g, strategy, z) == pytest.approx(expected, abs=1e-12)

    def test_always_abstain_pays_cost(self):
        strategy = AbstainStrategy(np.ones(4), alpha=0.3)
        assert abstain_loss(np.zeros(4), strategy, np.ones(4)) == pytest.approx(0.3)

    def test_fix2_integral_binding_case(self, fix2):
        g = np.array([1, 1, 1, 1 / 3])
        z = np.array([1, 1, 1, 0])
        strategy = AbstainStrategy(np.array([0, 0, 0, 2 / 3]), alpha=0.25)
        assert abstain_loss(g, strategy, z) == pytest.approx(1 / 12, abs=1e-12)

    def test_bilinear_identity(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            g = rng.uniform(-1, 1, n)
            z = rng.uniform(-1, 1, n)
            probs = rng.uniform(0, 1, n)
            alpha = float(rng.uniform(0.01, 0.9))
            strategy = AbstainStrategy(probs, alpha=alpha)
            direct = abstain_loss(g, strategy, z)
            bilinear = (
                0.5
                + probs.sum() * (alpha - 0.5) / n
                - float(((1 - probs) * g) @ z) / (2 * n)
            )
            assert direct == pytest.approx(bilinear, abs=1e-12)

    def test_dimension_mismatch(self):
        strategy = AbstainStrategy(np.zeros(2), alpha=0.25)
        with pytest.raises(DimensionError):
            abstain_loss([1.0, 1.0, 1.0], strategy, [1.0, 1.0, 1.0])

    def test_refuses_empty_vectors(self):
        strategy = AbstainStrategy(np.zeros(0), alpha=0.25)
        with pytest.raises(DimensionError, match="must be non-empty$"):
            abstain_loss([], strategy, [])


class TestWorstCaseLossFormula:
    def test_fix1(self, fix1):
        assert solve_abstain(fix1, 0.25).loss_formula == pytest.approx(0.0875, abs=1e-12)

    def test_fix2(self, fix2):
        assert solve_abstain(fix2, 0.25).loss_formula == pytest.approx(1 / 12, abs=1e-12)

    def test_boundary_cost_uses_no_abstain_branch(self, fix1):
        v = find_threshold(fix1)
        assert solve_abstain(fix1, 0.5).loss_formula == pytest.approx(
            0.5 * (1 - v / fix1.n), abs=1e-12
        )

    def test_matches_loss_against_z_star_under_integral_binding(self):
        # When the margin prefix hits n*lambda exactly at v, playing the
        # near-optimal pair against nature's optimum reproduces the formula.
        for votes, lam_scale in [
            ([1.0, 0.8, 0.6, 0.2], None),  # binds at 2.4 with lambda = .6
            ([0.9, 0.7, 0.4, 0.4], None),
        ]:
            votes = np.array(votes)
            for v_bind in range(1, len(votes)):
                magnitudes = np.sort(np.abs(votes))[::-1]
                lam = magnitudes[:v_bind].sum() / len(votes)
                if lam <= 0:
                    continue
                profile = sort_profile(votes, lam)
                if find_threshold(profile) != v_bind:
                    continue
                alpha = 0.25
                sol = solve_game(profile)
                strategy = p_alg(profile, alpha)
                lhs = abstain_loss(sol.g_star, strategy, sol.z_star)
                rhs = solve_abstain(profile, alpha).loss_formula
                assert lhs == pytest.approx(rhs, abs=1e-9)


def benefit_of_abstention(profile, alpha):
    solution = solve_abstain(profile, alpha)
    return solution.loss_no_abstain - solution.loss_formula


class TestBenefitOfAbstention:
    def test_fix1(self, fix1):
        solution = solve_abstain(fix1, 0.25)
        assert solution.loss_no_abstain == pytest.approx(0.25, abs=1e-12)
        assert benefit_of_abstention(fix1, 0.25) == pytest.approx(0.1625, abs=1e-12)

    def test_boundary_cost_leaves_only_index_slack(self, fix1):
        diff = benefit_of_abstention(fix1, 0.5)
        assert diff == pytest.approx(1 / (2 * fix1.n), abs=1e-12)

    def test_unanimous_margins_have_no_disagreement_benefit(self):
        profile = sort_profile([1.0, -1.0, 1.0], 0.5)
        v = find_threshold(profile)
        loss_abst = solve_abstain(profile, 0.25).loss_formula
        assert loss_abst == pytest.approx(0.5 * (1 - v / 3), abs=1e-12)

    def test_positive_benefit_below_half(self):
        for votes, lam, alpha in random_instances(count=200, seed=27, nmax=6):
            profile = sort_profile(votes, lam)
            assert benefit_of_abstention(profile, min(alpha, 0.49)) > 0


class TestSolveAbstain:
    def test_trivial_solution_abstains_everywhere(self, fix1):
        solution = solve_abstain(fix1, 0.05)
        assert solution.trivial is True
        assert solution.value_exact == 0.05
        assert np.all(solution.p_alg.probs == 1.0)
        assert solution.w is None
    def test_fix1_fields(self, fix1):
        solution = solve_abstain(fix1, 0.25)
        assert solution.w == 2
        assert solution.budget == pytest.approx(0.1875, abs=1e-12)
        assert solution.value_exact == 0.1484375
        assert solution.loss_formula == pytest.approx(0.0875, abs=1e-12)
        assert solution.loss_no_abstain == pytest.approx(0.25, abs=1e-12)

    def test_zero_margin_tail_disables_reweighted_index(self):
        profile = sort_profile([0.9, 0.0, 0.4], 0.3)
        solution = solve_abstain(profile, 0.25)
        # p = 1 on the zero-margin example: it commits to nothing, so no
        # reweighting by 1 - p_i could order it.
        assert solution.p_alg.probs[1] == 1.0
        assert solution.p_alg.probs[0] == 0.0

    def test_threshold_rule_runs_once_below_half_and_never_otherwise(self, monkeypatch):
        votes = (np.arange(5000) * 37) % 41 / 20.0 - 1.0
        profile = sort_profile(votes, 0.3)
        calls = []
        rule = votebound.model.threshold_index

        def counted(*args, **kwargs):
            calls.append(args[1])
            return rule(*args, **kwargs)

        for module in (votebound.model, votebound.abstain):
            monkeypatch.setattr(module, "threshold_index", counted)
        assert solve_abstain(profile, 0.25).w is not None
        assert len(calls) == 1
        for alpha in (0.05, 0.5, 0.7):  # trivial, then the plain-game regime
            calls.clear()
            solve_abstain(profile, alpha)
            assert calls == []
        assert solve_abstain(profile, 0.05).trivial
