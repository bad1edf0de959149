import itertools

import numpy as np
import pytest

from votebound import solve_game, sort_profile
from votebound.abstain import abstain_value, p_alg
from votebound.errors import Infeasible
from votebound.game import game_value
from votebound.oracle import (
    BoxLpProblem,
    certify_batch,
    certify_saddle,
    enumerate_game_value,
    grid_abstain_value,
    lp_best_response,
    random_instances,
    worst_case_abstain_loss,
)


def vertex_lp_optimum(costs, coeffs, rhs):
    """Reference optimum by vertex enumeration of the box-plus-halfspace set.

    Vertices are sign patterns, possibly with one coordinate made fractional
    by the binding constraint.  Independent of the greedy under test.
    """
    costs = np.asarray(costs, float)
    coeffs = np.asarray(coeffs, float)
    n = costs.size
    best = np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        z = np.array(signs)
        if coeffs @ z >= rhs - 1e-12:
            best = min(best, float(costs @ z))
        for k in range(n):
            if coeffs[k] == 0.0:
                continue
            partial = coeffs @ z - coeffs[k] * z[k]
            frac = (rhs - partial) / coeffs[k]
            if abs(frac) <= 1.0 + 1e-12:
                z_k = min(max(frac, -1.0), 1.0)
                best = min(best, float(costs @ z - costs[k] * z[k] + costs[k] * z_k))
    return best


class TestLpBestResponse:
    def test_fix1_nature_response(self, fix1):
        # min z.g* subject to the correlation constraint recovers n*V = 2.4.
        g_star = np.array([1.0, 1.0, 1.0, 0.4])
        problem = BoxLpProblem(
            costs=g_star, constraint_coeffs=fix1.votes, constraint_rhs=2.0
        )
        _, objective = lp_best_response(problem)
        assert objective == pytest.approx(2.4, abs=1e-12)

    def test_inactive_constraint(self):
        costs = np.array([1.0, -2.0])
        coeffs = np.array([0.5, 0.5])
        problem = BoxLpProblem(costs, coeffs, constraint_rhs=-1.0)
        z, objective = lp_best_response(problem)
        assert np.allclose(z, [-1.0, 1.0])
        assert objective == -3.0

    def test_zero_costs(self):
        problem = BoxLpProblem(np.zeros(3), np.array([0.5, -0.2, 0.1]), 0.3)
        z, objective = lp_best_response(problem)
        assert objective == 0.0
        assert np.asarray(problem.constraint_coeffs) @ z >= 0.3 - 1e-12

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            lp_best_response(BoxLpProblem(np.ones(2), np.array([0.3, 0.2]), 1.0))

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            costs = rng.uniform(-2, 2, n)
            coeffs = rng.uniform(-1, 1, n)
            slack = float(np.abs(coeffs).sum())
            rhs = float(rng.uniform(-slack, slack))
            z, objective = lp_best_response(BoxLpProblem(costs, coeffs, rhs))
            assert coeffs @ z >= rhs - 1e-9
            assert np.all(np.abs(z) <= 1 + 1e-12)
            assert objective == pytest.approx(vertex_lp_optimum(costs, coeffs, rhs), abs=1e-9)

    def test_zero_cost_coordinates_help_for_free(self):
        # The zero-cost coordinate should move to sign(coeff) so the paid
        # coordinates move less.
        costs = np.array([0.0, 1.0])
        coeffs = np.array([0.5, 0.5])
        z, objective = lp_best_response(BoxLpProblem(costs, coeffs, 0.4))
        assert z[0] == 1.0
        assert objective == pytest.approx(vertex_lp_optimum(costs, coeffs, 0.4), abs=1e-12)


class TestEnumerateGameValue:
    def test_fix1(self, fix1):
        assert enumerate_game_value(fix1.votes, 0.5) == pytest.approx(0.6, abs=1e-12)

    def test_fix3(self, fix3):
        assert enumerate_game_value(fix3.votes, 0.6) == pytest.approx(0.75, abs=1e-12)

    def test_boundary_lambda(self):
        votes = [0.8, 0.4]
        assert enumerate_game_value(votes, 0.6) == pytest.approx(1.0, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_game_value(np.full(9, 0.5), 0.1)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            enumerate_game_value([0.1, 0.1], 0.5)

    def test_matches_closed_form_on_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=32, nmax=6):
            profile = sort_profile(votes, lam)
            assert enumerate_game_value(votes, lam) == pytest.approx(
                game_value(profile), abs=1e-9
            )


class TestGridAbstainValue:
    def test_fix1(self, fix1):
        value = grid_abstain_value(fix1.votes, 0.5, 0.25, step=0.005)
        assert value == pytest.approx(0.1484375, abs=0.01)

    def test_trivial_plateau(self, fix1):
        value = grid_abstain_value(fix1.votes, 0.5, 0.05, step=0.01)
        assert value == pytest.approx(0.05, abs=0.01 * 4)

    def test_high_cost_reduces_to_plain_dual(self, fix1):
        value = grid_abstain_value(fix1.votes, 0.5, 0.75, step=0.005)
        expected = (1 - enumerate_game_value(fix1.votes, 0.5)) / 2
        assert value == pytest.approx(expected, abs=4 * 0.005 / 2 + 1e-9)

    def test_zero_margin_coordinate(self):
        value = grid_abstain_value([0.8, 0.0], 0.3, 0.25, step=0.01)
        exact, _, _ = abstain_value(sort_profile([0.8, 0.0], 0.3), 0.25)
        assert abs(value - exact) <= 2 * 0.01 / 2 + 1e-9

    def test_size_and_step_guards(self):
        with pytest.raises(ValueError):
            grid_abstain_value(np.full(5, 0.5), 0.1, 0.2)
        with pytest.raises(ValueError):
            grid_abstain_value([0.5], 0.1, 0.2, step=0.5)

    def test_brackets_budget_greedy_on_random_instances(self):
        step = 0.02
        for votes, lam, alpha in random_instances(count=120, seed=33, nmax=4):
            profile = sort_profile(votes, lam)
            exact, _, _ = abstain_value(profile, alpha)
            grid = grid_abstain_value(votes, lam, alpha, step=step)
            assert abs(grid - exact) <= profile.n * step / 2 + 1e-9
            # The grid is a restricted maximization, so it cannot beat the max.
            assert grid <= exact + 1e-9


class TestCertifySaddle:
    def test_fix1(self, fix1):
        report = certify_saddle(fix1, solve_game(fix1))
        assert report.max_deviation < 1e-9
        assert report.closed_form_value == pytest.approx(0.6, abs=1e-12)

    def test_fix2_integral_binding(self, fix2):
        report = certify_saddle(fix2, solve_game(fix2))
        assert report.max_deviation < 1e-9

    def test_batch_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=34, nmax=6):
            profile = sort_profile(votes, lam)
            report = certify_saddle(profile, solve_game(profile))
            assert report.max_deviation < 1e-9


class TestWorstCaseAbstainLoss:
    def test_full_abstention_decouples_from_labels(self, fix1):
        from votebound.model import AbstainStrategy

        strategy = AbstainStrategy(np.ones(4), alpha=0.3)
        _, loss = worst_case_abstain_loss(fix1, np.zeros(4), strategy, 0.3)
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_fix1_exceeds_stated_formula(self, fix1):
        # The oracle's worst case (0.1925) sits above the stated bound
        # (0.0875); both are reported, the gap is expected.
        sol = solve_game(fix1)
        strategy = p_alg(fix1, 0.25)
        z, loss = worst_case_abstain_loss(fix1, sol.g_star, strategy, 0.25)
        assert loss == pytest.approx(0.1925, abs=1e-12)
        assert np.allclose(z.values, [1, 1, 0, 1])

    def test_fix2(self, fix2):
        sol = solve_game(fix2)
        strategy = p_alg(fix2, 0.25)
        z, loss = worst_case_abstain_loss(fix2, sol.g_star, strategy, 0.25)
        assert loss == pytest.approx(1 / 9, abs=1e-9)
        assert np.allclose(z.values, [1, 1, 2 / 3, 1], atol=1e-9)

    def test_dominates_minimax_value_on_random_instances(self):
        for votes, lam, alpha in random_instances(count=200, seed=35, nmax=6):
            profile = sort_profile(votes, lam)
            sol = solve_game(profile)
            strategy = p_alg(profile, alpha)
            _, worst = worst_case_abstain_loss(profile, sol.g_star, strategy, alpha)
            exact, _, _ = abstain_value(profile, alpha)
            assert worst >= exact - 1e-9


class TestCertifyBatch:
    def test_default_battery_is_clean(self):
        summary = certify_batch(count=200, seed=1, nmax=6)
        assert summary["ok"] is True
        assert summary["max_deviation"] < 1e-9
        assert summary["instances_checked"] == 200
        assert summary["grid_instances_checked"] > 0
        assert summary["max_grid_excess"] <= 1e-9

    def test_deterministic_given_seed(self):
        a = certify_batch(count=50, seed=9, nmax=5)
        b = certify_batch(count=50, seed=9, nmax=5)
        assert a == b

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            certify_batch(count=1, seed=0, nmax=9)
