import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votebound import sort_profile
from votebound.errors import DegenerateBound, DimensionError, InfiniteDivergence
from votebound.model import LabeledSample, WeightVector
from votebound.pacbayes import (
    PacBayesParams,
    epsilon,
    exp_weights_posterior,
    gibbs_train_error,
    hypothesis_errors,
    kl_bernoulli,
    kl_bound_train,
    kl_discrete,
    lambda_hat,
    probability_bounds,
)

# Frozen fixtures, recomputed to 12 digits at 30-digit working precision
# before being pinned here.
EPS_2000 = 0.106255737674
EPS_100 = 0.407529139350
LAMBDA_HAT_2000 = 0.587488524652
LAMBDA_HAT_100 = -0.015058278699
KL_01_03 = 0.116321756586
KL_BUDGET_100 = 0.076108527904
KL_BUDGET_100_POINTMASS = 0.089971471515
# KL((1/2, 1/2) || (t, 1 - t)) = log(1/2) - log(t)/2 at the double t nearest 1e-320, a
# subnormal whose quotient 0.5/t overflows.
KL_TINY_PRIOR = 367.720473264927


def uniform(h):
    return WeightVector(np.full(h, 1.0 / h))


def sample_with_errors(error_counts, m):
    """Labeled sample where hypothesis j is wrong on the first error_counts[j] points."""
    labels = np.ones(m)
    predictions = np.ones((m, len(error_counts)))
    for j, wrong in enumerate(error_counts):
        predictions[:wrong, j] = -1
    return LabeledSample(predictions=predictions, labels=labels)


class TestKlBernoulli:
    def test_identical(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_generic_pair(self):
        assert kl_bernoulli(0.1, 0.3) == pytest.approx(KL_01_03, abs=1e-6)

    def test_zero_p(self):
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_tiny_q_gives_a_finite_divergence(self):
        assert kl_bernoulli(0.5, 1e-320) == pytest.approx(KL_TINY_PRIOR, rel=1e-12)

    def test_infinite_cases(self):
        with pytest.raises(InfiniteDivergence):
            kl_bernoulli(0.5, 0.0)
        with pytest.raises(InfiniteDivergence):
            kl_bernoulli(0.5, 1.0)
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    @pytest.mark.parametrize("outside", [-0.1, 1.5, math.nan])
    def test_refuses_arguments_outside_the_unit_interval(self, outside):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
            kl_bernoulli(outside, 0.5)
        with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\]$"):
            kl_bernoulli(0.5, outside)

    @given(
        p=st.floats(min_value=0, max_value=1, allow_nan=False),
        q=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_pinsker(self, p, q):
        assert kl_bernoulli(p, q) >= 2 * (p - q) ** 2 - 1e-12


class TestKlDiscrete:
    def test_identity(self):
        assert kl_discrete(uniform(5), uniform(5)) == 0.0

    def test_point_mass(self):
        q = WeightVector(np.array([1.0, 0, 0, 0]))
        assert kl_discrete(q, uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_support(self):
        q = WeightVector(np.array([0.5, 0.5, 0, 0]))
        assert kl_discrete(q, uniform(4)) == pytest.approx(math.log(2), abs=1e-12)

    def test_tiny_prior_weight_gives_a_finite_divergence(self):
        q, q0 = WeightVector(np.array([0.5, 0.5])), WeightVector(np.array([1e-320, 1.0]))
        assert kl_discrete(q, q0) == pytest.approx(KL_TINY_PRIOR, rel=1e-12)

    def test_support_violation(self):
        q = WeightVector(np.array([0.5, 0.5]))
        q0 = WeightVector(np.array([1.0, 0.0]))
        with pytest.raises(InfiniteDivergence):
            kl_discrete(q, q0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_discrete(uniform(3), uniform(4))


class TestEpsilon:
    def test_m2000(self):
        params = PacBayesParams(m=2000, delta=0.05)
        assert epsilon(params, kl_discrete(uniform(4), uniform(4))) == pytest.approx(
            EPS_2000, abs=1e-9
        )

    def test_m100(self):
        params = PacBayesParams(m=100, delta=0.05)
        assert epsilon(params, kl_discrete(uniform(4), uniform(4))) == pytest.approx(
            EPS_100, abs=1e-9
        )

    def test_subnormal_delta_gives_finite_bounds(self):
        # 2(m+1)/delta overflows at delta = 1e-320; the log of it, about 741, does not.
        params = PacBayesParams(m=50, delta=1e-320)
        log_term = Decimal(102).ln() - Decimal(1e-320).ln()
        assert epsilon(params, 0.0) == pytest.approx(float((log_term / 25).sqrt()), rel=1e-15)
        budget = (Decimal(51).ln() - Decimal(1e-320).ln()) / 50
        assert kl_bound_train(params, 0.0) == pytest.approx(float(budget), rel=1e-15)

    def test_monotone_grids(self):
        h = 4
        q0 = uniform(h)
        qs = [uniform(h), WeightVector(np.array([0.4, 0.3, 0.2, 0.1])), WeightVector(np.array([0.7, 0.1, 0.1, 0.1]))]
        values_m = [
            epsilon(PacBayesParams(m=m, delta=0.05), kl_discrete(uniform(h), q0))
            for m in (50, 100, 500, 2000, 10000)
        ]
        assert all(a > b for a, b in zip(values_m, values_m[1:]))
        values_delta = [
            epsilon(PacBayesParams(m=100, delta=d), kl_discrete(uniform(h), q0))
            for d in (0.01, 0.05, 0.1, 0.3, 0.5)
        ]
        assert all(a > b for a, b in zip(values_delta, values_delta[1:]))
        kls = [kl_discrete(q, q0) for q in qs]
        values_kl = [epsilon(PacBayesParams(m=100, delta=0.05), kl) for kl in kls]
        assert kls == sorted(kls)
        assert all(a < b for a, b in zip(values_kl, values_kl[1:]))


class TestGibbsTrainError:
    def test_perfect_ensemble(self):
        # A BLAS row sum of h uniform weights can pass 1 by an ulp; the error must still be 0.
        for h in range(1, 200):
            assert gibbs_train_error(sample_with_errors([0] * h, m=200), uniform(h)) == 0.0, h

    def test_point_mass_counts_mistakes(self):
        sample = sample_with_errors([3, 5], m=10)
        q = WeightVector(np.array([1.0, 0.0]))
        assert gibbs_train_error(sample, q) == pytest.approx(0.3, abs=1e-12)

    def test_mixture(self):
        sample = sample_with_errors([2, 4], m=10)
        q = WeightVector(np.array([0.5, 0.5]))
        assert gibbs_train_error(sample, q) == pytest.approx(0.3, abs=1e-12)

    def test_linearity_in_weights(self):
        sample = sample_with_errors([1, 4, 7], m=10)
        q1 = WeightVector(np.array([0.6, 0.3, 0.1]))
        q2 = WeightVector(np.array([0.1, 0.1, 0.8]))
        c = 0.3
        mixed = WeightVector(c * q1.weights + (1 - c) * q2.weights)
        assert gibbs_train_error(sample, mixed) == pytest.approx(
            c * gibbs_train_error(sample, q1) + (1 - c) * gibbs_train_error(sample, q2),
            abs=1e-12,
        )

    def test_dimension_mismatch(self):
        sample = sample_with_errors([0, 0], m=4)
        with pytest.raises(DimensionError):
            gibbs_train_error(sample, uniform(3))


class TestLambdaHat:
    def test_affine_combination(self):
        assert lambda_hat(0.1, EPS_2000) == pytest.approx(LAMBDA_HAT_2000, abs=1e-9)

    def test_coin_flip_boundary(self):
        assert lambda_hat(0.5, 0.0) == 0.0

    def test_degenerate_fixture(self):
        assert lambda_hat(0.1, EPS_100) == pytest.approx(LAMBDA_HAT_100, abs=1e-9)
        assert lambda_hat(0.1, EPS_100) < 0

    def test_strictly_below_one(self):
        assert lambda_hat(0.0, 1e-6) < 1.0


class TestErrorProbabilityBound:
    def test_fix1_style_inputs(self, fix1):
        gibbs, eps = 0.14, 0.08
        assert lambda_hat(gibbs, eps) >= fix1.lam  # inputs consistent by construction
        bound, _, _ = probability_bounds(fix1, gibbs, eps, delta=0.05)
        assert bound == pytest.approx(0.245, abs=1e-12)

    def test_no_voting_gain_with_unit_margins(self):
        profile = sort_profile([1.0, -1.0, 1.0], 0.9)
        gibbs, eps = 0.02, 0.01
        assert probability_bounds(profile, gibbs, eps, 0.05)[0] == pytest.approx(
            0.02 + 0.01 + 0.05, abs=1e-12
        )

    def test_first_index_threshold_empty_sum(self):
        profile = sort_profile([0.9, 0.1], 0.3)
        gibbs, eps = 0.1, 0.05
        assert probability_bounds(profile, gibbs, eps, 0.02)[0] == pytest.approx(
            0.1 + 0.05 + 0.02, abs=1e-12
        )

    def test_never_exceeds_unclipped_sum(self):
        for gibbs, eps, delta in [(0.1, 0.05, 0.05), (0.2, 0.01, 0.1)]:
            profile = sort_profile([0.9, 0.6, 0.3], 0.4)
            assert probability_bounds(profile, gibbs, eps, delta)[0] <= gibbs + eps + delta

    def test_degenerate_rejected(self, fix1):
        gibbs, eps = 0.5, 0.3
        with pytest.raises(DegenerateBound, match="^bounds undefined for nonpositive lambda_hat$"):
            probability_bounds(fix1, gibbs, eps, 0.05)


class TestAbstainMistakeBounds:
    def test_fix1_style_inputs(self, fix1):
        gibbs, eps = 0.14, 0.08
        _, abstain, mistake = probability_bounds(fix1, gibbs, eps, delta=0.05)
        assert abstain == pytest.approx(0.39, abs=1e-12)
        assert mistake == pytest.approx(0.1825, abs=1e-12)

    def test_unit_margin_collapse(self):
        profile = sort_profile([1.0, 1.0, -1.0, 1.0], 0.5)
        gibbs, eps = 0.1, 0.05
        v = 2  # prefix means 0.25, 0.5
        _, abstain, mistake = probability_bounds(profile, gibbs, eps, 0.02)
        assert abstain == pytest.approx(0.2 + 0.1 + 0.02 - (4 - v) / 4, abs=1e-12)
        assert mistake == pytest.approx(0.1 + 0.05 + 0.02, abs=1e-12)

    def test_threshold_at_n_drops_ratio_sum(self):
        profile = sort_profile([0.6, 0.5], 0.55)
        gibbs, eps = 0.05, 0.05
        _, abstain, _ = probability_bounds(profile, gibbs, eps, 0.05)
        assert abstain == pytest.approx(0.1 + 0.1 + 0.05, abs=1e-12)

    def test_degenerate_rejected(self, fix1):
        gibbs, eps = 0.45, 0.2  # lambda_hat = -0.3: the abstain and mistake bounds are refused too
        with pytest.raises(DegenerateBound, match="^bounds undefined for nonpositive lambda_hat$"):
            probability_bounds(fix1, gibbs, eps, 0.05)


class TestExpWeightsPosterior:
    def test_zero_temperature_is_uniform(self):
        sample = sample_with_errors([0, 3, 7], m=10)
        q = exp_weights_posterior(sample, 0.0)
        assert np.allclose(q.weights, 1 / 3)

    def test_three_to_one_ratio(self):
        sample = sample_with_errors([0, 10], m=10)  # errors 0.0 and 1.0
        q = exp_weights_posterior(sample, math.log(3))
        assert np.allclose(q.weights, [0.75, 0.25], atol=1e-12)

    def test_large_temperature_approaches_point_mass(self):
        sample = sample_with_errors([1, 5, 9], m=10)
        q = exp_weights_posterior(sample, 1e4)
        assert q.weights[0] == pytest.approx(1.0, abs=1e-3)

    def test_ranks_follow_errors(self):
        sample = sample_with_errors([2, 7, 4, 0], m=10)
        errors = hypothesis_errors(sample)
        q = exp_weights_posterior(sample, 2.5)
        order_by_error = np.argsort(errors)
        assert np.all(np.diff(q.weights[order_by_error]) < 0)

    def test_negative_temperature_rejected(self):
        sample = sample_with_errors([0], m=2)
        with pytest.raises(ValueError):
            exp_weights_posterior(sample, -1.0)


@given(
    m=st.integers(1, 400) | st.sampled_from([127, 128, 129, 255, 256, 70_000]),
    h=st.integers(1, 5),
    agree=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_int8_errors_equal_the_float_route(m, h, agree, seed):
    # Counts past 127 would wrap in an int8 product; the float route sums exact integers.
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(m) < 0.5, -1, 1)
    predictions = labels[:, None] * np.where(rng.random((m, h)) < agree, 1, -1)
    sample = LabeledSample(predictions=predictions, labels=labels)
    assert sample.predictions.dtype == sample.labels.dtype == np.int8
    expected = (1.0 - (labels.astype(float) @ predictions.astype(float)) / m) / 2.0
    assert hypothesis_errors(sample).tobytes() == expected.tobytes()


class TestKlBoundTrain:
    def test_uniform_posterior(self):
        params = PacBayesParams(m=100, delta=0.05)
        value = kl_bound_train(params, kl_discrete(uniform(4), uniform(4)))
        assert value == pytest.approx(KL_BUDGET_100, abs=1e-9)

    def test_point_mass_posterior(self):
        params = PacBayesParams(m=100, delta=0.05)
        q = WeightVector(np.array([1.0, 0, 0, 0]))
        value = kl_bound_train(params, kl_discrete(q, uniform(4)))
        assert value == pytest.approx(KL_BUDGET_100_POINTMASS, abs=1e-9)

    def test_vanishes_with_training_size(self):
        divergence = kl_discrete(uniform(2), uniform(2))
        budgets = [
            kl_bound_train(PacBayesParams(m=m, delta=0.05), divergence)
            for m in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(budgets, budgets[1:]))


class TestParamsAndReport:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PacBayesParams(m=0, delta=0.05)
        with pytest.raises(ValueError):
            PacBayesParams(m=10, delta=1.0)
