from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votebound import payoff, sort_profile
from votebound.errors import (
    DegenerateBound,
    DimensionError,
    InfeasibleConstraint,
)
from votebound.game import optimal_nature
from votebound.model import (
    AbstainStrategy,
    EnsembleMatrix,
    LabelVector,
    LabeledSample,
    PredictionVector,
    EXACT_SUM_MIN_SIZE,
    WeightVector,
    compute_votes,
    exact_sum,
)

sign_entries = st.integers(min_value=0, max_value=1).map(lambda b: 2 * b - 1)


def sign_matrix(n, h):
    return st.lists(
        st.lists(sign_entries, min_size=h, max_size=h), min_size=n, max_size=n
    ).map(np.array)


class TestEnsembleMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            EnsembleMatrix(np.array([[1.0, 0.5], [1.0, -1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            EnsembleMatrix(np.zeros((0, 3)))

    def test_shape_properties(self):
        m = EnsembleMatrix(np.array([[1, -1, 1], [-1, -1, 1]]))
        assert m.num_examples == 2
        assert m.num_hypotheses == 3


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.4]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([np.nan, 0.5]))

    def test_roles(self):
        WeightVector(np.array([1.0]), role="prior")
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0]), role="posterior_prior")


class TestComputeVotes:
    def test_unanimity_and_split(self):
        m = EnsembleMatrix(np.array([[1, 1], [1, -1]]))
        q = WeightVector(np.array([0.5, 0.5]))
        assert compute_votes(m, q).tolist() == [1.0, 0.0]

    def test_identity_case(self):
        m = EnsembleMatrix(np.array([[1]]))
        assert compute_votes(m, WeightVector(np.array([1.0]))).tolist() == [1.0]

    def test_uniform_four_hypotheses(self):
        # Expected values recomputed with an explicit double loop below.
        entries = np.array(
            [[1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, -1], [-1, 1, -1, 1]], dtype=float
        )
        q = np.full(4, 0.25)
        votes = compute_votes(EnsembleMatrix(entries), WeightVector(q))
        naive = [sum(q[j] * entries[i, j] for j in range(4)) for i in range(4)]
        assert votes.tolist() == naive
        assert votes.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_dimension_mismatch(self):
        m = EnsembleMatrix(np.array([[1, -1]]))
        with pytest.raises(DimensionError):
            compute_votes(m, WeightVector(np.array([1.0])))

    @given(matrix=sign_matrix(3, 4), perm=st.permutations(range(4)))
    @settings(max_examples=50)
    def test_column_permutation_invariance(self, matrix, perm):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        perm = list(perm)
        base = compute_votes(EnsembleMatrix(matrix), WeightVector(q))
        shuffled = compute_votes(
            EnsembleMatrix(matrix[:, perm]), WeightVector(q[perm])
        )
        assert np.allclose(base, shuffled)

    @given(matrix=sign_matrix(4, 3), j=st.integers(min_value=0, max_value=2))
    @settings(max_examples=50)
    def test_point_mass_extracts_column(self, matrix, j):
        q = np.zeros(3)
        q[j] = 1.0
        votes = compute_votes(EnsembleMatrix(matrix), WeightVector(q))
        assert np.array_equal(votes, matrix[:, j].astype(float))


class TestSortProfile:
    def test_orders_by_magnitude(self):
        profile = sort_profile([0.2, -0.9, 0.5], 0.3)
        assert profile.abs_sorted.tolist() == [0.9, 0.5, 0.2]
        # n*lam = 0.9 is covered by the largest margin alone.
        assert (profile.v, profile.pivot, profile.head) == (1, 0.9, 0.0)

    def test_tie_break_by_original_index(self):
        # Tied margins fill in ascending index order: the first is labelled
        # in full, the second carries the fractional remainder 0.3/0.5.
        profile = sort_profile([0.5, 0.5], 0.4)
        assert (profile.v, profile.pivot, profile.head) == (2, 0.5, 0.5)
        assert np.allclose(optimal_nature(profile).values, [1.0, 0.6], atol=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstraint):
            sort_profile([0.1, 0.1], 0.5)

    def test_degenerate_lambda(self):
        with pytest.raises(DegenerateBound):
            sort_profile([0.5, 0.5], 0.0)
        with pytest.raises(DegenerateBound):
            sort_profile([0.5, 0.5], -0.2)

    def test_lambda_above_one(self):
        with pytest.raises(InfeasibleConstraint):
            sort_profile([1.0, 1.0], 1.5)

    def test_exact_boundary_is_feasible(self):
        profile = sort_profile([0.5, 0.3], 0.4)
        assert profile.lam == 0.4

    def test_votes_outside_box_rejected(self):
        with pytest.raises(ValueError):
            sort_profile([1.2, 0.5], 0.3)

    @given(
        votes=st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=8
        )
    )
    @settings(max_examples=100)
    def test_permutation_sorts_and_inverts(self, votes):
        votes = np.array(votes)
        mean_abs = np.abs(votes).mean()
        if mean_abs <= 1e-6:
            return
        profile = sort_profile(votes, mean_abs / 2)
        assert np.all(np.diff(profile.abs_sorted) <= 0)
        assert np.array_equal(np.sort(profile.abs_sorted), np.sort(np.abs(votes)))
        assert profile.total == fsum(np.abs(votes))
        assert profile.head == fsum(profile.abs_sorted[: profile.v - 1])
        assert profile.pivot == profile.abs_sorted[profile.v - 1] > 0
        # The record depends on the multiset of margins only.
        reversed_profile = sort_profile(votes[::-1], mean_abs / 2)
        assert np.array_equal(reversed_profile.abs_sorted, profile.abs_sorted)
        for key in ("total", "v", "pivot", "head"):
            assert getattr(reversed_profile, key) == getattr(profile, key)

    def test_zero_votes_sort_last(self):
        profile = sort_profile([0.0, 0.7, 0.0, 0.3], 0.2)
        assert profile.abs_sorted.tolist() == [0.7, 0.3, 0.0, 0.0]
        assert (profile.v, profile.pivot) == (2, 0.3)


@st.composite
def sorted_magnitudes(draw):
    """Nonincreasing nonnegative floats on both sides of the fsum cutoff."""
    n = draw(st.one_of(st.integers(0, 64), st.integers(EXACT_SUM_MIN_SIZE - 64, 10_000)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pools = {
        "uniform": rng.uniform(0.0, 1.0, n),
        "tied": rng.integers(0, 33, n) / 32.0,
        "spread": np.exp(rng.uniform(-745.0, 0.0, n)),
        "special": rng.choice([0.0, 5e-324, 1e-300, 1.1e-300, 1.0], n),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=4, unique=True))
    mixed = np.stack([pools[kind] for kind in kinds])[rng.integers(0, len(kinds), n), np.arange(n)]
    return np.sort(mixed)[::-1]


class TestExactSum:
    @given(magnitudes=sorted_magnitudes(), share=st.sampled_from([0.0, 0.25, 1.0, 1.5]))
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_fsum(self, magnitudes, share):
        assert exact_sum(magnitudes).hex() == fsum(magnitudes).hex()
        offset = -share * float(magnitudes.sum()) - 1e-300
        expected = fsum(np.append(magnitudes, offset))
        assert exact_sum(magnitudes, offset).hex() == expected.hex()

    def test_binade_edges(self):
        edges = np.sort(np.tile([1.0, np.nextafter(1.0, 0.0), 2.0**-1022, 2.0**-1074, 0.0], 1000))
        assert exact_sum(edges[::-1]) == fsum(edges)
        assert exact_sum(np.full(EXACT_SUM_MIN_SIZE, 0.1)) == fsum([0.1] * EXACT_SUM_MIN_SIZE)


class TestPayoff:
    def test_perfect_correlation(self):
        assert payoff([1, 1, 1, 1], [1, 1, 1, 1]) == 1.0

    def test_cancellation(self):
        assert payoff([1, -1], [1, 1]) == 0.0

    def test_fix1_saddle_payoff(self):
        # (1 + 1 + 0.4 + 0)/4, the FIX-1 saddle value checked in test_game.
        assert payoff([1, 1, 1, 0.4], [1, 1, 0.4, 0]) == pytest.approx(0.6, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            payoff([1, 1], [1, 1, 1])

    def test_accepts_domain_types(self):
        g = PredictionVector(np.array([1.0, -0.5]))
        z = LabelVector(np.array([0.5, 1.0]))
        assert payoff(g, z) == pytest.approx(0.0, abs=1e-12)

    @given(
        g=st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=6),
        c=st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_scaling_bilinearity(self, g, c):
        g = np.array(g)
        z = np.linspace(-1, 1, len(g))
        assert payoff(c * g, z) == pytest.approx(c * payoff(g, z), abs=1e-12)


class TestVectors:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([1.5]))
        with pytest.raises(ValueError):
            PredictionVector(np.array([-1.00001]))

    def test_abstain_strategy_validation(self):
        with pytest.raises(ValueError):
            AbstainStrategy(np.array([1.1]), alpha=0.2)

    def test_labeled_sample_validation(self):
        with pytest.raises(DimensionError):
            LabeledSample(np.ones((3, 2)), np.ones(2))
        with pytest.raises(ValueError):
            LabeledSample(np.ones((2, 2)) * 2, np.ones(2))
        sample = LabeledSample(np.ones((2, 3)), np.ones(2))
        assert sample.num_examples == 2
        assert sample.num_hypotheses == 3
