import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votebound import sort_profile
from votebound.errors import DegenerateBound, DimensionError, InfiniteDivergence
from votebound.model import LabeledSample, WeightVector
from votebound.pacbayes import (
    BoundReport,
    PacBayesParams,
    abstain_mistake_bounds,
    epsilon,
    error_probability_bound,
    exp_weights_posterior,
    gibbs_train_error,
    hypothesis_errors,
    kl_bernoulli,
    kl_bound_train,
    kl_discrete,
    lambda_hat,
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


def uniform(h, role="posterior"):
    return WeightVector(np.full(h, 1.0 / h), role=role)


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

    def test_infinite_cases(self):
        with pytest.raises(InfiniteDivergence):
            kl_bernoulli(0.5, 0.0)
        with pytest.raises(InfiniteDivergence):
            kl_bernoulli(0.5, 1.0)
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    @given(
        p=st.floats(min_value=0, max_value=1, allow_nan=False),
        q=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_pinsker(self, p, q):
        assert kl_bernoulli(p, q) >= 2 * (p - q) ** 2 - 1e-12


class TestKlDiscrete:
    def test_identity(self):
        assert kl_discrete(uniform(5), uniform(5, "prior")) == 0.0

    def test_point_mass(self):
        q = WeightVector(np.array([1.0, 0, 0, 0]))
        assert kl_discrete(q, uniform(4, "prior")) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_support(self):
        q = WeightVector(np.array([0.5, 0.5, 0, 0]))
        assert kl_discrete(q, uniform(4, "prior")) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation(self):
        q = WeightVector(np.array([0.5, 0.5]))
        q0 = WeightVector(np.array([1.0, 0.0]), role="prior")
        with pytest.raises(InfiniteDivergence):
            kl_discrete(q, q0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_discrete(uniform(3), uniform(4, "prior"))


class TestEpsilon:
    def test_m2000(self):
        params = PacBayesParams(m=2000, delta=0.05)
        assert epsilon(params, uniform(4), uniform(4, "prior")) == pytest.approx(
            EPS_2000, abs=1e-9
        )

    def test_m100(self):
        params = PacBayesParams(m=100, delta=0.05)
        assert epsilon(params, uniform(4), uniform(4, "prior")) == pytest.approx(
            EPS_100, abs=1e-9
        )

    def test_monotone_grids(self):
        h = 4
        q0 = uniform(h, "prior")
        qs = [uniform(h), WeightVector(np.array([0.4, 0.3, 0.2, 0.1])), WeightVector(np.array([0.7, 0.1, 0.1, 0.1]))]
        values_m = [
            epsilon(PacBayesParams(m=m, delta=0.05), uniform(h), q0)
            for m in (50, 100, 500, 2000, 10000)
        ]
        assert all(a > b for a, b in zip(values_m, values_m[1:]))
        values_delta = [
            epsilon(PacBayesParams(m=100, delta=d), uniform(h), q0)
            for d in (0.01, 0.05, 0.1, 0.3, 0.5)
        ]
        assert all(a > b for a, b in zip(values_delta, values_delta[1:]))
        values_kl = [epsilon(PacBayesParams(m=100, delta=0.05), q, q0) for q in qs]
        kls = [kl_discrete(q, q0) for q in qs]
        assert kls == sorted(kls)
        assert all(a < b for a, b in zip(values_kl, values_kl[1:]))


class TestGibbsTrainError:
    def test_perfect_ensemble(self):
        sample = sample_with_errors([0, 0, 0], m=10)
        assert gibbs_train_error(sample, uniform(3)) == 0.0

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


def make_report(gibbs, eps):
    lam = lambda_hat(gibbs, eps)
    return BoundReport(
        gibbs_train_error=gibbs,
        kl_posterior_prior=0.0,
        epsilon=eps,
        lambda_hat=lam,
        error_bound=None,
        abstain_bound=None,
        mistake_bound=None,
        degenerate=lam <= 0,
    )


class TestErrorProbabilityBound:
    def test_fix1_style_inputs(self, fix1):
        report = make_report(gibbs=0.14, eps=0.08)
        assert report.lambda_hat >= fix1.lam  # inputs consistent by construction
        bound = error_probability_bound(fix1, report, delta=0.05)
        assert bound == pytest.approx(0.245, abs=1e-12)

    def test_no_voting_gain_with_unit_margins(self):
        profile = sort_profile([1.0, -1.0, 1.0], 0.9)
        report = make_report(gibbs=0.02, eps=0.01)
        assert error_probability_bound(profile, report, 0.05) == pytest.approx(
            0.02 + 0.01 + 0.05, abs=1e-12
        )

    def test_first_index_threshold_empty_sum(self):
        profile = sort_profile([0.9, 0.1], 0.3)
        report = make_report(gibbs=0.1, eps=0.05)
        assert error_probability_bound(profile, report, 0.02) == pytest.approx(
            0.1 + 0.05 + 0.02, abs=1e-12
        )

    def test_never_exceeds_unclipped_sum(self):
        for gibbs, eps, delta in [(0.1, 0.05, 0.05), (0.2, 0.01, 0.1)]:
            profile = sort_profile([0.9, 0.6, 0.3], 0.4)
            report = make_report(gibbs, eps)
            assert error_probability_bound(profile, report, delta) <= gibbs + eps + delta

    def test_degenerate_rejected(self, fix1):
        report = make_report(gibbs=0.5, eps=0.3)
        with pytest.raises(DegenerateBound):
            error_probability_bound(fix1, report, 0.05)


class TestAbstainMistakeBounds:
    def test_fix1_style_inputs(self, fix1):
        report = make_report(gibbs=0.14, eps=0.08)
        abstain, mistake = abstain_mistake_bounds(fix1, report, delta=0.05)
        assert abstain == pytest.approx(0.39, abs=1e-12)
        assert mistake == pytest.approx(0.1825, abs=1e-12)

    def test_unit_margin_collapse(self):
        profile = sort_profile([1.0, 1.0, -1.0, 1.0], 0.5)
        report = make_report(gibbs=0.1, eps=0.05)
        v = 2  # prefix means 0.25, 0.5
        abstain, mistake = abstain_mistake_bounds(profile, report, 0.02)
        assert abstain == pytest.approx(0.2 + 0.1 + 0.02 - (4 - v) / 4, abs=1e-12)
        assert mistake == pytest.approx(0.1 + 0.05 + 0.02, abs=1e-12)

    def test_threshold_at_n_drops_ratio_sum(self):
        profile = sort_profile([0.6, 0.5], 0.55)
        report = make_report(gibbs=0.05, eps=0.05)
        abstain, _ = abstain_mistake_bounds(profile, report, 0.05)
        assert abstain == pytest.approx(0.1 + 0.1 + 0.05, abs=1e-12)

    def test_degenerate_rejected(self, fix1):
        report = make_report(gibbs=0.45, eps=0.2)
        with pytest.raises(DegenerateBound):
            abstain_mistake_bounds(fix1, report, 0.05)


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


class TestKlBoundTrain:
    def test_uniform_posterior(self):
        sample = sample_with_errors([0, 0, 0, 0], m=100)
        value = kl_bound_train(sample, uniform(4), uniform(4, "prior"), delta=0.05)
        assert value == pytest.approx(KL_BUDGET_100, abs=1e-9)

    def test_point_mass_posterior(self):
        sample = sample_with_errors([0, 0, 0, 0], m=100)
        q = WeightVector(np.array([1.0, 0, 0, 0]))
        value = kl_bound_train(sample, q, uniform(4, "prior"), delta=0.05)
        assert value == pytest.approx(KL_BUDGET_100_POINTMASS, abs=1e-9)

    def test_vanishes_with_training_size(self):
        budgets = [
            kl_bound_train(sample_with_errors([0, 0], m=m), uniform(2), uniform(2, "prior"), 0.05)
            for m in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(budgets, budgets[1:]))


class TestParamsAndReport:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PacBayesParams(m=0, delta=0.05)
        with pytest.raises(ValueError):
            PacBayesParams(m=10, delta=1.0)

    def test_report_degeneracy_flag_tracks_lambda(self):
        report = make_report(0.45, 0.1)
        assert report.degenerate == (report.lambda_hat <= 0)
        report = make_report(0.1, 0.05)
        assert not report.degenerate

    def test_report_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            BoundReport(
                gibbs_train_error=0.1,
                kl_posterior_prior=0.0,
                epsilon=0.05,
                lambda_hat=0.9,  # not 1 - 2*0.1 - 2*0.05
                error_bound=None,
                abstain_bound=None,
                mistake_bound=None,
                degenerate=False,
            )
        with pytest.raises(ValueError):
            BoundReport(
                gibbs_train_error=0.1,
                kl_posterior_prior=0.0,
                epsilon=0.05,
                lambda_hat=lambda_hat(0.1, 0.05),
                error_bound=None,
                abstain_bound=None,
                mistake_bound=None,
                degenerate=True,  # contradicts a positive lambda_hat
            )
