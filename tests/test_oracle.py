import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votebound import cli, model, oracle, solve_abstain, solve_game, sort_profile
from votebound.abstain import p_alg
from votebound.cli import main
from votebound.errors import DimensionError, InfeasibleConstraint
from votebound.game import game_value
from votebound.model import LabelVector, cover_floor
from votebound.oracle import (
    ENUM_MAX_N,
    GRID_MAX_N,
    _enumeration_table,
    _pareto_frontier,
    _ternary_grid,
    certify_batch,
    certify_instance,
    enumerate_game_value,
    grid_abstain_value,
    lp_best_response,
    random_instances,
    worst_case_abstain_loss,
)


def product_grid(n):
    """{-1, 0, 1}^n rebuilt on every call (the uncached route)."""
    return np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))


def reference_enumerate_game_value(votes, lam):
    """``enumerate_game_value`` on freshly built grids, as it ran before caching."""
    a = np.asarray(votes, dtype=float)
    n = a.size
    target = n * lam
    if math.fsum([*np.abs(a), -cover_floor(target)]) < 0.0:
        raise InfeasibleConstraint("no feasible label vector for this bound")
    grid = product_grid(n)
    feasible = grid @ a >= cover_floor(target)
    best = float(np.count_nonzero(a))  # z = sign(a), feasible by the exact-sum rule
    if feasible.any():
        best = min(best, float(np.abs(grid[feasible]).sum(axis=1).min()))
    for k in range(n):
        if a[k] == 0.0:
            continue
        rest = [j for j in range(n) if j != k]
        sub = product_grid(n - 1) if n > 1 else np.zeros((1, 0))
        z_k = (target - sub @ a[rest]) / a[k]
        inside = (np.abs(z_k) - 1.0) * abs(a[k]) <= target - cover_floor(target)
        if inside.any():
            totals = np.abs(sub[inside]).sum(axis=1) + np.minimum(np.abs(z_k[inside]), 1.0)
            best = min(best, float(totals.min()))
    return best / n


def reference_pareto_frontier(gain, pay):
    """``_pareto_frontier`` as the two-key lexsort it replaced."""
    order = np.lexsort((-pay, -gain))
    gain, pay = gain[order], pay[order]
    keep = pay > np.maximum.accumulate(np.concatenate(([-np.inf], pay[:-1])))
    return gain[keep][::-1], pay[keep][::-1]


def reference_grid_abstain_value(votes, lam, alpha, step):
    """``grid_abstain_value`` as a full tail scan per first-coordinate level.

    The former route: every (gain, pay) pair of the |levels|^(n-1) tail is
    kept, and each level of the first coordinate masks the whole tail.
    """
    a = np.abs(np.asarray(votes, dtype=float))
    n = a.size
    target = n * lam
    if math.fsum([*a, -cover_floor(target)]) < 0.0:
        raise InfeasibleConstraint("no feasible label vector for this bound")
    shift = -min(math.frexp(a.max(initial=0.0))[1], 0)  # the same exact power-of-two shift
    a, target = np.ldexp(a, shift), math.ldexp(target, shift)
    levels = np.arange(0.0, 1.0 + step / 2.0, step)
    levels[-1] = min(levels[-1], 1.0)
    if levels[-1] < 1.0:
        levels = np.append(levels, 1.0)
    payoffs = np.minimum(alpha, 0.5 * (1.0 - levels))
    active = np.nonzero(a > 0.0)[0]
    base = (n - active.size) * min(alpha, 0.5)
    if active.size == 0:
        raise InfeasibleConstraint("no feasible label vector for this bound")
    gains = [levels * a[i] for i in active]
    tail_gain = np.zeros(1)
    tail_pay = np.zeros(1)
    for g in gains[1:]:
        tail_gain = (tail_gain[:, None] + g[None, :]).ravel()
        tail_pay = (tail_pay[:, None] + payoffs[None, :]).ravel()
    # Every t_i = 1, feasible by the exact-sum rule even where its float sum falls short.
    best = payoffs[-1] + float(tail_pay[tail_gain == tail_gain.max()].max())
    for g0, p0 in zip(gains[0], payoffs):
        mask = tail_gain >= cover_floor(target) - g0
        if mask.any():
            best = max(best, p0 + float(tail_pay[mask].max()))
    return (best + base) / n


def reference_lp_best_response(costs, coeffs, rhs):
    """``lp_best_response`` as the per-coordinate greedy loop it replaced."""
    c = np.asarray(costs, dtype=float)
    a = np.asarray(coeffs, dtype=float)
    rhs = float(rhs)
    floor = cover_floor(rhs)
    if math.fsum([*np.abs(a), -floor]) < 0.0:
        raise InfeasibleConstraint("constraint unreachable even at z = sign(coeffs)")
    z = np.where(c > 0, -1.0, np.where(c < 0, 1.0, np.sign(a)))
    lhs = float(a @ z)
    if lhs < floor:
        movable = [i for i in range(c.size) if a[i] != 0.0 and z[i] != np.sign(a[i])]
        with np.errstate(over="ignore"):
            movable.sort(key=lambda i: (c[i] * np.sign(a[i]) / abs(a[i]), i))
            for i in movable:
                gain_full = abs(a[i]) * abs(np.sign(a[i]) - z[i])
                if lhs + gain_full < floor:
                    lhs += gain_full
                    z[i] = np.sign(a[i])
                    continue
                step = min(math.fsum([rhs, *(-a * z)]) / abs(a[i]), abs(np.sign(a[i]) - z[i]))
                z[i] += np.sign(a[i]) * max(step, 0.0)
                break
    return z, float(c @ z)


def lp_outcome(solver, costs, coeffs, rhs):
    """The LP's z bytes and objective as exact hex, or the type of what it raised."""
    try:
        z, objective = solver(costs, coeffs, rhs)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return z.tobytes(), objective.hex()


def outcome(oracle, *args):
    """The oracle's value as exact hex, or the type of what it raised."""
    try:
        with np.errstate(over="ignore"):  # a subnormal vote overflows z_k to inf on both routes
            return float(oracle(*args)).hex()
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


@st.composite
def oracle_votes(draw, n):
    """Votes that are uniform, tied at multiples of 1/4, +-1, or hold zeros."""
    kind = draw(st.sampled_from(["uniform", "quarters", "signs", "zeros"]))
    if kind == "quarters":
        cells = st.integers(-4, 4).map(lambda k: k / 4)
    elif kind == "signs":
        cells = st.sampled_from([-1.0, 1.0])
    else:
        cells = st.floats(-1.0, 1.0)
        if kind == "zeros":
            cells = st.just(0.0) | st.just(-0.0) | cells
    return np.array(draw(st.lists(cells, min_size=n, max_size=n)))


@st.composite
def lambdas(draw, votes):
    """lam in (0, mean|a|] and just past it, plus the top-k means where ties bind."""
    mean_abs = float(np.abs(votes).mean())
    top = np.cumsum(np.sort(np.abs(votes))[::-1]) / votes.size
    return draw(
        st.floats(0.0, 1.05, exclude_min=True).map(lambda f: f * mean_abs)
        | st.sampled_from([float(x) for x in top])
    )


@st.composite
def grid_instances(draw):
    n = draw(st.integers(1, 4))
    steps = [0.005, 0.01, 0.02, 0.05, 0.1] if n <= 3 else [0.01, 0.02, 0.05, 0.1]
    votes = draw(oracle_votes(n))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from([0.25, 0.5, 0.75]))
    return votes, draw(lambdas(votes)), alpha, draw(st.sampled_from(steps))


@st.composite
def enumeration_instances(draw):
    votes = draw(oracle_votes(draw(st.integers(1, ENUM_MAX_N))))
    return votes, draw(lambdas(votes))


class TestAgainstFormerRoutes:
    """The oracles must return the former routes' floats bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(grid_instances())
    @example((np.array([5e-324]), 5e-324, 0.5, 0.005))  # a subnormal margin's gains
    def test_grid_matches_full_tail_scan(self, instance):
        assert outcome(grid_abstain_value, *instance) == outcome(
            reference_grid_abstain_value, *instance
        )

    @settings(max_examples=200, deadline=None)
    @given(enumeration_instances())
    @example((np.array([-0.5]), 0.25))  # n = 1: the (n-1) grid has no columns
    @example((np.array([0.5, 0.0, -0.25, -0.0, 0.75]), 0.2))  # zero margins of both signs
    @example((np.array([0.5, 1e-310, -0.25]), 0.2))  # a subnormal a_k: its z_k overflows to inf
    @example((np.array([0.25, -0.25] * 4), 3 * 0.25 / 8))  # eight tied quarter votes
    def test_enumeration_matches_uncached_grids(self, instance):
        assert outcome(enumerate_game_value, *instance) == outcome(
            reference_enumerate_game_value, *instance
        )

    def test_random_instances_match_bit_for_bit(self):
        for votes, lam, alpha in random_instances(count=300, seed=36, nmax=ENUM_MAX_N):
            for step in (0.02, 0.05) if votes.size <= GRID_MAX_N else ():
                assert outcome(grid_abstain_value, votes, lam, alpha, step) == outcome(
                    reference_grid_abstain_value, votes, lam, alpha, step
                )
            assert outcome(enumerate_game_value, votes, lam) == outcome(
                reference_enumerate_game_value, votes, lam
            )

    def test_cached_grid_is_read_only_in_product_order(self):
        for n in range(ENUM_MAX_N + 1):
            grid = _ternary_grid(n)
            assert grid is _ternary_grid(n)
            assert grid.dtype == np.float64 and grid.shape == (3**n, n)
            assert np.array_equal(grid, product_grid(n))
            with pytest.raises(ValueError):
                grid[...] = 0.0
            if n == 0:
                continue
            # The enumeration's per-n table: both grids, their row counts, each k's other coordinates.
            table = _enumeration_table(n)
            assert table is _enumeration_table(n)
            grid, counts, sub, sub_counts, rest = table
            assert grid is _ternary_grid(n) and sub is _ternary_grid(n - 1)
            # The gemv kernel sums the rows of an F-ordered grid in another order, moving the bits.
            assert grid.flags.c_contiguous and sub.flags.c_contiguous
            assert np.array_equal(counts, np.abs(grid).sum(axis=1))
            assert np.array_equal(sub_counts, np.abs(sub).sum(axis=1))
            others = [[j for j in range(n) if j != k] for k in range(n)]
            assert rest.shape == (n, n - 1) and rest.tolist() == others
            for array in table:
                with pytest.raises(ValueError):
                    array[...] = 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40
        )
    )
    @example([(1, 3), (1, 5), (1, 2)])  # tied in gain
    @example([(0, 4), (2, 4), (5, 4)])  # tied in pay
    @example([(3, 2), (3, 2), (1, 2), (3, 2), (1, 6)])  # tied in both
    def test_frontier_keeps_exactly_the_undominated_pairs(self, pairs):
        gain, pay = (np.array(column, dtype=float) / 4 for column in zip(*pairs))
        front_gain, front_pay = _pareto_frontier(gain, pay)
        assert np.all(np.diff(front_gain) > 0) and np.all(np.diff(front_pay) < 0)
        kept = set(zip(front_gain.tolist(), front_pay.tolist()))
        for g, p in zip(gain.tolist(), pay.tolist()):
            beaten = np.any((gain >= g) & (pay >= p) & ((gain > g) | (pay > p)))
            assert ((g, p) in kept) == (not beaten)
        reference = reference_pareto_frontier(gain, pay)
        assert [front_gain.tobytes(), front_pay.tobytes()] == [part.tobytes() for part in reference]


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


@st.composite
def lp_cells(draw, scale):
    """Reals of magnitude up to ``scale``: uniform, mixed-scale, tied, zero or subnormal."""
    kind = draw(st.sampled_from(["uniform", "mixed", "quarters", "zeros", "subnormal"]))
    if kind == "uniform":
        return draw(st.floats(-scale, scale))
    if kind == "mixed":  # margins down to 1e-14
        return draw(st.floats(-scale, scale)) * 10.0 ** -draw(st.floats(0.0, 14.0))
    if kind == "quarters":
        return scale * draw(st.integers(-4, 4)) / 4
    if kind == "zeros":
        return draw(st.sampled_from([0.0, -0.0]))
    return draw(st.sampled_from([5e-324, -5e-324, 1e-310, -2.5e-309]))


@st.composite
def lp_instances(draw):
    n = draw(st.integers(1, 11))
    coeffs = np.array(draw(st.lists(lp_cells(1.0), min_size=n, max_size=n)))
    costs = np.array(draw(st.lists(lp_cells(2.0), min_size=n, max_size=n)))
    total = math.fsum(np.abs(coeffs))
    ulps = st.integers(-6, 6).map(lambda k: total + k * float(np.spacing(total)))
    rhs = draw(ulps | st.floats(-1.05, 1.05).map(lambda f: f * total))
    return costs, coeffs, rhs


class TestLpBestResponse:
    @settings(max_examples=500, deadline=None)
    @given(lp_instances())
    # Two tied ratio groups; the fractional step lands inside the first, so ties must go by index.
    @example((np.array([1.0, 0.5] * 4), np.full(8, 0.5), -1.5))
    def test_matches_the_greedy_loop_bit_for_bit(self, instance):
        assert lp_outcome(lp_best_response, *instance) == lp_outcome(
            reference_lp_best_response, *instance
        )

    def test_fix1_nature_response(self, fix1):
        # min z.g* subject to the correlation constraint recovers n*V = 2.4.
        g_star = np.array([1.0, 1.0, 1.0, 0.4])
        _, objective = lp_best_response(g_star, fix1.votes, 2.0)
        assert objective == pytest.approx(2.4, abs=1e-12)

    def test_inactive_constraint(self):
        costs = np.array([1.0, -2.0])
        coeffs = np.array([0.5, 0.5])
        z, objective = lp_best_response(costs, coeffs, -1.0)
        assert np.allclose(z, [-1.0, 1.0])
        assert objective == -3.0

    def test_zero_costs(self):
        coeffs = np.array([0.5, -0.2, 0.1])
        z, objective = lp_best_response(np.zeros(3), coeffs, 0.3)
        assert objective == 0.0
        assert coeffs @ z >= 0.3 - 1e-12

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            lp_best_response(np.ones(2), np.array([0.3, 0.2]), 1.0)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            costs = rng.uniform(-2, 2, n)
            coeffs = rng.uniform(-1, 1, n)
            slack = float(np.abs(coeffs).sum())
            rhs = float(rng.uniform(-slack, slack))
            z, objective = lp_best_response(costs, coeffs, rhs)
            assert coeffs @ z >= rhs - 1e-9
            assert np.all(np.abs(z) <= 1 + 1e-12)
            assert objective == pytest.approx(vertex_lp_optimum(costs, coeffs, rhs), abs=1e-9)

    def test_zero_cost_coordinates_help_for_free(self):
        # The zero-cost coordinate should move to sign(coeff) so the paid
        # coordinates move less.
        costs = np.array([0.0, 1.0])
        coeffs = np.array([0.5, 0.5])
        z, objective = lp_best_response(costs, coeffs, 0.4)
        assert z[0] == 1.0
        assert objective == pytest.approx(vertex_lp_optimum(costs, coeffs, 0.4), abs=1e-12)

    @pytest.mark.parametrize(
        "costs, coeffs, error",
        [
            ([1.0, 2.0], [0.5], DimensionError),
            ([], [], DimensionError),
            ([1.0, float("nan")], [0.5, 0.5], ValueError),
            ([float("inf"), 1.0], [0.5, 0.5], ValueError),
            ([1.0, 2.0], [0.5, float("nan")], ValueError),
            ([1.0, 2.0], [float("-inf"), 0.5], ValueError),
        ],
        ids=["mismatched", "empty", "nan_cost", "inf_cost", "nan_coeff", "inf_coeff"],
    )
    def test_refuses_bad_data(self, costs, coeffs, error):
        with pytest.raises(error):
            lp_best_response(np.array(costs), np.array(coeffs), 0.0)


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
        with pytest.raises(InfeasibleConstraint):
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
        exact = solve_abstain(sort_profile([0.8, 0.0], 0.3), 0.25).value_exact
        assert abs(value - exact) <= 2 * 0.01 / 2 + 1e-9

    def test_size_and_step_guards(self):
        with pytest.raises(ValueError):
            grid_abstain_value(np.full(5, 0.5), 0.1, 0.2, step=0.02)
        with pytest.raises(ValueError):
            grid_abstain_value([0.5], 0.1, 0.2, step=0.5)

    def test_infeasible_instance(self):
        with pytest.raises(InfeasibleConstraint):
            grid_abstain_value([0.5, -0.25], 0.5, 0.25, step=0.02)

    def test_step_that_does_not_divide_one_still_reaches_one(self):
        # Only t = 1 covers lam = 1; levels 0, 0.03, ..., 0.99 would pay min(alpha, 0.005).
        assert grid_abstain_value([1.0], 1.0, 0.25, step=0.03) == 0.0

    def test_brackets_budget_greedy_on_random_instances(self):
        step = 0.02
        for votes, lam, alpha in random_instances(count=120, seed=33, nmax=4):
            profile = sort_profile(votes, lam)
            exact = solve_abstain(profile, alpha).value_exact
            grid = grid_abstain_value(votes, lam, alpha, step=step)
            assert abs(grid - exact) <= profile.n * step / 2 + 1e-9
            # The grid is a restricted maximization, so it cannot beat the max.
            assert grid <= exact + 1e-9


class TestCertifySaddle:
    def test_fix1(self, fix1):
        check, deviations, _ = certify_instance(fix1, solve_game(fix1))
        assert deviations["saddle"] < 1e-9
        assert check["saddle"]["nature_best_response"] == pytest.approx(0.6, abs=1e-12)
        assert check["saddle"]["predictor_best_response"] == pytest.approx(0.6, abs=1e-12)

    def test_fix2_integral_binding(self, fix2):
        assert certify_instance(fix2, solve_game(fix2))[1]["saddle"] < 1e-9

    def test_batch_random_instances(self):
        for votes, lam, _ in random_instances(count=200, seed=34, nmax=6):
            profile = sort_profile(votes, lam)
            assert certify_instance(profile, solve_game(profile))[1]["saddle"] < 1e-9


def test_certify_instance_runs_no_solver(fix1, monkeypatch):
    game, abstain = solve_game(fix1), solve_abstain(fix1, 0.25)

    def refuse(*args):
        raise AssertionError("certify_instance ran a solver")

    monkeypatch.setattr(oracle, "solve_game", refuse)
    monkeypatch.setattr(oracle, "solve_abstain", refuse)
    assert certify_instance(fix1, game, abstain)[0]["ok"] is True


def test_game_solution_of_another_size_raises(fix1):
    # The saddle LP refuses g* against votes of another length; certify_instance adds no check.
    other = solve_game(sort_profile([1.0, 0.8, 0.5], 0.5))
    with pytest.raises(DimensionError, match="^vectors differ in length$"):
        certify_instance(fix1, other)


def patch_solver(monkeypatch, module, name, mutate):
    """Make ``module.name`` return its solution passed through ``mutate``."""
    solve = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: mutate(solve(*args)))


def _swapped_z_star(solution):
    z = np.array(solution.z_star.values)
    i, j = np.argmax(np.abs(z)), np.argmin(np.abs(z))
    z[[i, j]] = z[[j, i]]
    return dataclasses.replace(solution, z_star=LabelVector(z))


class TestCertifyFeasibility:
    """A z* that misses the correlation constraint fails the certificate.

    Swapping z*'s largest- and smallest-magnitude entries keeps mean |z*|, the
    predictor's side of the saddle, but drops a . z* below n*lam.
    """

    def test_instance(self, fix1):
        game = _swapped_z_star(solve_game(fix1))
        check, deviations, _ = certify_instance(fix1, game, solve_abstain(fix1, 0.25))
        assert deviations["saddle"] < 1e-9
        assert check["ok"] is False

    def test_batch(self, monkeypatch):
        patch_solver(monkeypatch, oracle, "solve_game", _swapped_z_star)
        assert certify_batch(count=20, seed=1, nmax=8)["ok"] is False

    def test_verify_command_exits_1(self, tmp_path, capsys, monkeypatch):
        patch_solver(monkeypatch, cli, "solve_game", _swapped_z_star)
        votes = tmp_path / "votes.csv"
        votes.write_text("vote\n1.0\n0.8\n0.5\n0.2\n")
        assert main(["verify", "--votes", str(votes), "--lambda", "0.5"]) == 1
        capsys.readouterr()


def _lower_bound_above_value(solution):
    return dataclasses.replace(solution, lower_bound=solution.value + 0.01)


def _swapped_abstain_bounds(solved):
    return dataclasses.replace(solved, value_lower=solved.value_upper, value_upper=solved.value_lower)


class TestCertifyConsistency:
    """A game lower bound above the value, or swapped abstain bounds, fail the certificate.

    Neither mutant moves a deviation or the grid.  The swap changes nothing
    where ``w`` is unset, so the single instance sets it.
    """

    @pytest.fixture(
        params=[
            ("solve_game", _lower_bound_above_value),
            ("solve_abstain", _swapped_abstain_bounds),
        ],
        ids=["lower-bound-above-value", "swapped-abstain-bounds"],
    )
    def mutant(self, request):
        return request.param

    def test_instance(self, fix1, mutant):
        name, mutate = mutant
        solutions = {"solve_game": solve_game(fix1), "solve_abstain": solve_abstain(fix1, 0.25)}
        solutions[name] = mutate(solutions[name])
        game, abstain = solutions["solve_game"], solutions["solve_abstain"]
        check, deviations, grid_excess = certify_instance(fix1, game, abstain)
        assert max(deviations.values()) < 1e-9 and grid_excess <= 1e-9
        assert check["ok"] is False

    def test_batch(self, monkeypatch, mutant):
        patch_solver(monkeypatch, oracle, *mutant)
        assert certify_batch(count=20, seed=1, nmax=8)["ok"] is False

    def test_verify_command_exits_1(self, tmp_path, capsys, monkeypatch, mutant):
        patch_solver(monkeypatch, cli, *mutant)
        votes = tmp_path / "votes.csv"
        votes.write_text("vote\n1.0\n0.8\n0.5\n0.2\n")
        argv = ["verify", "--votes", str(votes), "--lambda", "0.5", "--alpha", "0.25"]
        assert main(argv) == 1
        capsys.readouterr()


class TestWorstCaseAbstainLoss:
    def test_full_abstention_decouples_from_labels(self, fix1):
        loss = worst_case_abstain_loss(fix1, np.zeros(4), np.ones(4), 0.3)
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_fix1_exceeds_stated_formula(self, fix1):
        # The oracle's worst case (0.1925) sits above the stated bound
        # (0.0875); both are reported, the gap is expected.
        sol = solve_game(fix1)
        probs = p_alg(fix1, 0.25)
        loss = worst_case_abstain_loss(fix1, sol.g_star, probs, 0.25)
        assert loss == pytest.approx(0.1925, abs=1e-12)
        # Nature's best response, as worst_case_abstain_loss poses it.
        costs = (1.0 - probs) * sol.g_star.values
        z, _ = lp_best_response(costs, fix1.votes, 4 * fix1.lam)
        assert np.allclose(z, [1, 1, 0, 1])

    def test_fix2(self, fix2):
        sol = solve_game(fix2)
        probs = p_alg(fix2, 0.25)
        loss = worst_case_abstain_loss(fix2, sol.g_star, probs, 0.25)
        assert loss == pytest.approx(1 / 9, abs=1e-9)
        # Nature's best response, as worst_case_abstain_loss poses it.
        costs = (1.0 - probs) * sol.g_star.values
        z, _ = lp_best_response(costs, fix2.votes, 4 * fix2.lam)
        assert np.allclose(z, [1, 1, 2 / 3, 1], atol=1e-9)

    def test_strategy_of_another_length_raises(self, fix1):
        # Broadcast against g*, one probability would stand for all four.
        with pytest.raises(DimensionError, match="^vectors differ in length$"):
            worst_case_abstain_loss(fix1, solve_game(fix1).g_star, [0.3], 0.25)

    def test_dominates_minimax_value_on_random_instances(self):
        # Past the enumeration cap too: 10^4 uniform votes and 10^4 votes tied on k/20.
        uniform = np.random.default_rng(35).uniform(-1.0, 1.0, 10_000)
        tied = ((np.arange(10_000) * 37) % 41 - 20) / 20.0
        large = [(votes, 0.3, alpha) for votes in (uniform, tied) for alpha in (0.1, 0.25, 0.45)]
        for votes, lam, alpha in [*random_instances(count=200, seed=35, nmax=6), *large]:
            profile = sort_profile(votes, lam)
            sol = solve_game(profile)
            worst = worst_case_abstain_loss(profile, sol.g_star, p_alg(profile, alpha), alpha)
            exact = solve_abstain(profile, alpha).value_exact
            assert worst >= exact - 1e-9


def feasibility_edge_family(count=20_000, seed=0):
    """lam within a few ulps of the mean |vote|, n in 2..8, margins across three decades."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        votes = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 0.0, n)
        k = int(rng.integers(-2, 5))
        yield votes, math.fsum(np.abs(votes)) / n * (1.0 + k * 2.0**-52)


def test_oracles_accept_every_instance_the_solver_accepts():
    # The float sum of |votes| can fall ulps short of the exact sum the solver decides by.
    accepted = 0
    for votes, lam in feasibility_edge_family():
        try:
            profile = sort_profile(votes, lam)
        except InfeasibleConstraint:
            continue
        accepted += 1
        game, abstain = solve_game(profile), solve_abstain(profile, 0.25)
        worst_case_abstain_loss(profile, game.g_star, abstain.p_alg.probs, abstain.alpha)
        assert certify_instance(profile, game, abstain, grid_step=0.02)[0]["ok"], (votes, lam)
    assert accepted == 18_628


def clipped_vote_family(count=2_000, seed=31):
    """(votes, lam) with one vote k*1e-13 past +-1 and a small pivot partly taken.

    n in 2..8, votes uniform(-1, 1), the last replaced by +-10^U(-7, -3) and one
    other set to +-(1 + k*1e-13), k in 1..9.  lam leaves U(0.1, 0.9) of the
    smallest margin untaken, so the result moves by 1e-12 / (n * pivot) if an
    oracle reads the vote unclipped.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        votes = rng.uniform(-1.0, 1.0, n)
        votes[-1] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -3.0)
        beyond = rng.choice([-1.0, 1.0]) * (1.0 + rng.integers(1, 10) * 1e-13)
        votes[rng.integers(0, n - 1)] = beyond
        margins = np.abs(np.clip(votes, -1.0, 1.0))
        yield votes, (math.fsum(margins) - rng.uniform(0.1, 0.9) * margins.min()) / n


def test_oracles_certify_the_clipped_instance_the_solver_solves():
    for votes, lam in clipped_vote_family():
        profile = sort_profile(votes, lam)
        assert np.abs(profile.votes).max() == 1.0
        game, abstain = solve_game(profile), solve_abstain(profile, 0.25)
        assert certify_instance(profile, game, abstain, grid_step=0.02)[0]["ok"], (votes, lam)


def refuses(solver, *args) -> bool:
    try:
        solver(*args)
    except InfeasibleConstraint:
        return True
    return False


def test_each_oracle_refuses_exactly_the_instances_the_solver_refuses():
    # The rounded sum of |votes| can reach the floor while the exact sum falls short of
    # it: the solver refuses those instances, and so must each oracle.
    rng = np.random.default_rng(0)
    rounded_up = 0
    for _ in range(1_200):
        n = int(rng.choice([2, 3, 4, 8, 512, 1000]))
        votes = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 0.0, n)
        lam = math.fsum(np.abs(votes)) / n * (1.0 + int(rng.integers(-2, 5)) * 2.0**-52)
        floor = cover_floor(n * lam)
        refused = refuses(sort_profile, votes, lam)
        assert refused == (sum(map(Fraction, np.abs(votes))) < floor)
        rounded_up += refused and math.fsum(np.abs(votes)) >= floor
        assert refuses(lp_best_response, np.ones(n), votes, n * lam) == refused, (votes, lam)
        if n <= ENUM_MAX_N:
            assert refuses(enumerate_game_value, votes, lam) == refused, (votes, lam)
        if n <= GRID_MAX_N:
            assert refuses(grid_abstain_value, votes, lam, 0.25, 0.1) == refused, (votes, lam)
    assert rounded_up > 0


BAD_VOTE_ORACLES = {
    "lp": lambda votes: lp_best_response(np.ones(len(votes)), votes, 0.1 * len(votes)),
    "enumeration": lambda votes: enumerate_game_value(votes, 0.1),
    "grid": lambda votes: grid_abstain_value(votes, 0.1, 0.25, 0.02),
}


@pytest.mark.parametrize("name", list(BAD_VOTE_ORACLES))
@pytest.mark.parametrize(
    "votes, error, match",
    [
        ([float("inf"), 0.5], ValueError, "^problem data must be finite$"),
        ([0.5, float("-inf")], ValueError, "^problem data must be finite$"),
        ([float("nan"), 0.5], ValueError, "^problem data must be finite$"),
        ([], DimensionError, "^vectors must be non-empty$"),
    ],
    ids=["inf", "minus_inf", "nan", "empty"],
)
def test_each_oracle_refuses_bad_votes(name, votes, error, match):
    # An oracle that answers a bad vote with a number certifies nothing.
    with pytest.raises(error, match=match):
        BAD_VOTE_ORACLES[name](votes)


@pytest.mark.parametrize(
    "oracle_call",
    [
        lambda: lp_best_response([1.0, 1.0], [0.5, 0.5], math.nan),
        lambda: lp_best_response([1.0, 1.0], [0.5, 0.5], math.inf),
        lambda: lp_best_response([1.0, 1.0], [0.5, 0.5], -math.inf),
        lambda: enumerate_game_value([0.5, 0.5], math.nan),
        lambda: enumerate_game_value([0.5, 0.5], math.inf),
        lambda: grid_abstain_value([0.5, 0.5], math.nan, 0.25, 0.02),
        lambda: grid_abstain_value([0.5, 0.5], math.inf, 0.25, 0.02),
    ],
    ids=["lp_nan", "lp_inf", "lp_minus_inf", "enum_nan", "enum_inf", "grid_nan", "grid_inf"],
)
def test_each_oracle_refuses_a_non_finite_target(oracle_call):
    # A non-finite target is bad data, not an infeasible instance; an rhs of -inf used to drop
    # the LP's constraint and return the unconstrained optimum.
    with pytest.raises(ValueError, match="^problem data must be finite$"):
        oracle_call()


def test_oracles_never_run_the_solvers_integer_pass(monkeypatch):
    # The oracles check the sums the solver forms, so they must not form them with its code.
    def integer_pass(*args):
        raise AssertionError("the solver's integer pass ran")

    monkeypatch.setattr(model, "_block_sums", integer_pass)
    rng = np.random.default_rng(30)
    with pytest.raises(AssertionError, match="integer pass"):
        sort_profile(rng.uniform(-1.0, 1.0, 4), 0.1)
    for n in (4, 8, 600, 10_000):
        votes = rng.uniform(-1.0, 1.0, n)
        rhs = 0.5 * math.fsum(np.abs(votes))
        lp_best_response(rng.uniform(-1.0, 1.0, n), votes, rhs)
        with pytest.raises(InfeasibleConstraint):
            lp_best_response(np.ones(n), votes, 2.0 * rhs + 1.0)
    for n in range(1, ENUM_MAX_N + 1):
        votes = rng.uniform(-1.0, 1.0, n)
        lam = 0.5 * math.fsum(np.abs(votes)) / n
        enumerate_game_value(votes, lam)
        if n <= GRID_MAX_N:
            grid_abstain_value(votes, lam, 0.25, 0.1)


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

    def test_instances_follow_the_documented_draws(self):
        # Each draw is one random.Random(seed).random(), so a seed gives the same batch anywhere.
        rng = random.Random(1)
        for votes, lam, alpha in random_instances(count=40, seed=1, nmax=ENUM_MAX_N):
            n = 1 + int(rng.random() * ENUM_MAX_N)
            expected = [2.0 * rng.random() - 1.0 for _ in range(n)]
            mean_abs = math.fsum(abs(vote) for vote in expected) / n
            assert votes.dtype == np.float64 and votes.tolist() == expected
            assert lam == mean_abs * (0.1 + 0.9 * rng.random())
            assert alpha == 0.05 + 0.4 * rng.random()
            assert type(lam) is float and type(alpha) is float

    def test_nmax_above_the_enumeration_cap(self):
        # The LP saddle check alone certifies the instances above ENUM_MAX_N.
        sizes = [votes.size for votes, _, _ in random_instances(count=100, seed=3, nmax=12)]
        assert sum(n > ENUM_MAX_N for n in sizes) > 0
        summary = certify_batch(count=100, seed=3, nmax=12)
        assert summary["ok"] is True
        assert summary["max_deviation"] < 1e-9
        assert summary["grid_instances_checked"] == sum(n <= GRID_MAX_N for n in sizes)
