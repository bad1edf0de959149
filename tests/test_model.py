import math
import re
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votebound import payoff, solve_game, sort_profile
from votebound.abstain import abstain_loss
from votebound.cli import _read_csv
from votebound.errors import (
    DegenerateBound,
    DimensionError,
    InfeasibleConstraint,
    InvalidCost,
    VoteboundError,
)
from votebound.model import (
    AbstainStrategy,
    EnsembleMatrix,
    LabelVector,
    LabeledSample,
    PredictionVector,
    WeightVector,
    _BLOCK,
    _ROW_GROUP,
    _block_sums,
    _units,
    _UNITS,
    compute_votes,
)
from votebound.oracle import (
    enumerate_game_value,
    grid_abstain_value,
    lp_best_response,
    worst_case_abstain_loss,
)

from test_golden import DATA

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

    def test_rejects_a_1d_grid(self):
        with pytest.raises(DimensionError, match="^prediction matrix must be 2-D$"):
            EnsembleMatrix(np.ones(3))

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


    @given(
        h=st.sampled_from([1, 3, 8, 32, 33, 700]),
        blocks=st.integers(1, 3),
        offset=st.sampled_from([-1, 0, 1, _ROW_GROUP - 1, _ROW_GROUP]),
        seed=st.integers(0, 2**32 - 1),
        as_float=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_give_the_bits_of_one_product(self, h, blocks, offset, seed, as_float):
        # Row counts at each block edge +-1 and at the edge where the last block stands alone.
        rows = max((_BLOCK // h - _ROW_GROUP + 1) // _ROW_GROUP * _ROW_GROUP, _ROW_GROUP)
        rng = np.random.default_rng(seed)
        signs = np.where(rng.random((max(blocks * rows + offset, 1), h)) < 0.5, -1, 1)
        weights = rng.random(h) ** 3
        q = WeightVector(weights / weights.sum())
        entries = signs.astype(float) if as_float else signs.astype(np.int8)
        matrix = EnsembleMatrix(entries)
        assert matrix.entries.dtype == np.int8
        expected = np.clip(entries.astype(float) @ q.weights, -1.0, 1.0)
        assert compute_votes(matrix, q).tobytes() == expected.tobytes()

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 6: the BLAS product rounds rows with equal counts apart",
    )
    def test_uniform_votes_are_the_correctly_rounded_weight_sums(self):
        # Rows with the same count of +1 cells must then share one bit pattern.
        entries = _read_csv(str(DATA / "test_predictions.csv"), None, np.int8)
        h = entries.shape[1]
        q = WeightVector(np.full(h, 1.0 / h))
        votes = compute_votes(EnsembleMatrix(entries), q).tolist()
        weight = Fraction(float(q.weights[0]))
        read, exact = {}, {}
        for row, vote in zip(entries.tolist(), votes):
            count = row.count(1)
            read.setdefault(count, set()).add(vote.hex())
            exact[count] = {float(weight * sum(row)).hex()}
        assert read == exact


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
        assert np.allclose(solve_game(profile).z_star.values, [1.0, 0.6], atol=1e-12)

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

    @pytest.mark.parametrize("lam", [math.nextafter(1.0, 2.0), 1 + 5e-13])
    def test_lambda_any_float_past_one(self, lam):
        # No float mean of margins in [0, 1] exceeds 1, so lam past 1 gets no slack.
        with pytest.raises(InfeasibleConstraint, match="^correlation bound cannot exceed 1$"):
            sort_profile([1.0, 1.0], lam)

    def test_shortfall_message_tells_the_two_sides_apart(self):
        message = "mean |vote| 0.3 is below the correlation bound 0.3000001"
        with pytest.raises(InfeasibleConstraint, match=f"^{re.escape(message)}$"):
            sort_profile([0.3] * 3, 0.3000001)

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
def sorted_magnitudes(draw, sizes=st.one_of(st.integers(1, 64), st.integers(448, 10_000))):
    """Nonincreasing nonnegative floats, few or many: the exact pass takes n >= 1."""
    n = draw(sizes)
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


def pass_sum(magnitudes, offset=0.0):
    """The sum of ``magnitudes`` (one block) and ``offset`` from the integer pass, rounded once."""
    scratch = np.empty(magnitudes.size, dtype=np.int64)
    return (sum(_block_sums(magnitudes, -1, scratch)) + _units(offset)) / _UNITS


class TestExactSum:
    @given(magnitudes=sorted_magnitudes(), share=st.sampled_from([0.0, 0.25, 1.0, 1.5]))
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_fsum(self, magnitudes, share):
        assert pass_sum(magnitudes).hex() == fsum(magnitudes).hex()
        offset = -share * float(magnitudes.sum()) - 1e-300
        expected = fsum(np.append(magnitudes, offset))
        assert pass_sum(magnitudes, offset).hex() == expected.hex()

    def test_binade_edges(self):
        edges = np.sort(np.tile([1.0, np.nextafter(1.0, 0.0), 2.0**-1022, 2.0**-1074, 0.0], 1000))
        assert pass_sum(edges[::-1]) == fsum(edges)
        assert pass_sum(np.full(512, 0.1)) == fsum([0.1] * 512)


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

    def test_refuses_empty_and_2d_vectors(self):
        with pytest.raises(DimensionError, match="vectors must be non-empty$"):
            payoff([], [])
        with pytest.raises(DimensionError, match="^expected a 1-D vector$"):
            payoff(np.ones((2, 2)), np.ones((2, 2)))

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
            AbstainStrategy(np.array([1.1]))

    def test_labeled_sample_validation(self):
        with pytest.raises(DimensionError):
            LabeledSample(np.ones((3, 2)), np.ones(2))
        with pytest.raises(ValueError):
            LabeledSample(np.ones((2, 2)) * 2, np.ones(2))
        sample = LabeledSample(np.ones((2, 3)), np.ones(2))
        assert sample.num_examples == 2
        assert sample.num_hypotheses == 3

    def test_labeled_sample_refuses_a_1d_grid(self):
        with pytest.raises(DimensionError, match="^expected a 2-D prediction grid and 1-D labels$"):
            LabeledSample(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("m, h", [(0, 2), (3, 0), (0, 0)])
    def test_labeled_sample_refuses_an_empty_sample(self, m, h):
        # m = 0 would divide by zero in the Gibbs error; H = 0 leaves no posterior.
        with pytest.raises(DimensionError, match="^training sample must be non-empty$"):
            LabeledSample(np.zeros((m, h)), np.ones(m))


# README's intake rule: every function named there takes a vector type or a sequence of
# reals.  Each entry calls its function on the vectors it is handed and returns a float.
INTAKE_VECTORS = [[1.0, 0.8, 0.5, 0.2], [0.0, 0.5, 0.25, 1.0], [1.0, -0.5, 0.5, -1.0]]
INTAKE_PROFILE = sort_profile(INTAKE_VECTORS[0], 0.5)
INTAKE = [
    pytest.param(lambda g, z: payoff(g, z), id="payoff"),
    pytest.param(lambda g, p, z: abstain_loss(g, p, 0.25, z), id="abstain_loss"),
    pytest.param(
        lambda g, p: worst_case_abstain_loss(INTAKE_PROFILE, g, p, 0.25),
        id="worst_case_abstain_loss",
    ),
    pytest.param(lambda c, a: lp_best_response(c, a, 1.0)[1], id="lp_best_response"),
    pytest.param(lambda a: enumerate_game_value(a, 0.3), id="enumerate_game_value"),
    pytest.param(lambda a: grid_abstain_value(a, 0.3, 0.25, 0.05), id="grid_abstain_value"),
]


def intake_operands(call, as_array):
    count = call.__code__.co_argcount
    return [np.array(v) if as_array else list(v) for v in INTAKE_VECTORS[:count]]


@pytest.mark.parametrize("call", INTAKE)
def test_one_intake_reads_lists_as_arrays(call):
    listed = call(*intake_operands(call, as_array=False))
    assert type(listed) is float
    assert listed == call(*intake_operands(call, as_array=True))


@pytest.mark.parametrize("call", INTAKE)
def test_one_intake_refuses_a_mismatch_or_a_2d_operand(call):
    operands = intake_operands(call, as_array=False)
    with pytest.raises(DimensionError, match="^expected a 1-D vector$"):
        call([operands[0]], *operands[1:])
    if len(operands) > 1:
        with pytest.raises(DimensionError, match="^vectors differ in length$"):
            call(*operands[:-1], operands[-1][:-1])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p, alpha: abstain_loss([1.0, 0.5], p, alpha, [1.0, 1.0]), id="loss"),
        pytest.param(
            lambda p, alpha: worst_case_abstain_loss(INTAKE_PROFILE, [1.0, 0.5], p, alpha),
            id="worst_case_loss",
        ),
    ],
)
@pytest.mark.parametrize(
    "probs, alpha",
    [
        pytest.param([0.0, 0.5], float("inf"), id="inf"),
        pytest.param([0.0, 0.5], float("nan"), id="nan"),
        pytest.param([0.0, 0.5], 0.0, id="zero"),
        pytest.param([0.0, 0.5], -0.25, id="negative"),
        pytest.param([2.0], float("inf"), id="inf-before-a-bad-vector"),
    ],
)
def test_abstain_losses_refuse_a_bad_cost(call, probs, alpha):
    # An infinite cost would compute 0 * inf.  The cost is checked first, so it is
    # refused even beside probabilities of the wrong length or outside [0, 1].
    with pytest.raises(InvalidCost, match="^abstain cost must be positive and finite$"):
        call(probs, alpha)


# The constructor contract shared by every per-example vector.  BOX and SHAPE stand
# for the constructor's own box and 1-D messages.  Each case gives the stored
# array's exact bits, or the exception type and message.
BOX, SHAPE = object(), object()
NAN, INF = float("nan"), float("inf")
FINITE = "values must be finite (no NaN or inf)"
CONSTRUCTORS = [
    pytest.param(
        lambda v: PredictionVector(v).values,
        "prediction components must lie in [-1, 1]",
        "predictions must form a 1-D vector",
        id="PredictionVector",
    ),
    pytest.param(
        lambda v: LabelVector(v).values,
        "label components must lie in [-1, 1]",
        "labels must form a 1-D vector",
        id="LabelVector",
    ),
    pytest.param(
        lambda v: AbstainStrategy(v).probs,
        "abstain probabilities must lie in [0, 1]",
        "abstain probabilities must form a 1-D vector",
        id="AbstainStrategy",
    ),
    pytest.param(
        lambda v: sort_profile(v, 0.25).votes,
        "vote components must lie in [-1, 1]",
        "votes must form a 1-D vector",
        id="sort_profile",
    ),
]
CASES = [
    pytest.param([NAN], (ValueError, FINITE), id="nan"),
    pytest.param([INF], (ValueError, BOX), id="inf"),
    pytest.param([-INF], (ValueError, BOX), id="-inf"),
    pytest.param([NAN, 5.0], (ValueError, BOX), id="nan-then-out-of-box"),
    pytest.param([1.0 + 2e-12], (ValueError, BOX), id="past-tolerance"),
    pytest.param([1.0 + 5e-13], [1.0], id="within-tolerance"),
    pytest.param([-0.0], [-0.0], id="negative-zero"),
    pytest.param([1.0, -0.0], [1.0, -0.0], id="negative-zero-with-margin"),
    pytest.param([], [], id="empty"),
    pytest.param([(0.5, 0.25)], (DimensionError, SHAPE), id="2-d"),
]
# A profile also needs a nonzero margin that covers lam.
PROFILE_REFUSALS = {
    (-0.0,): (InfeasibleConstraint, "mean |vote| 0.0 is below the correlation bound 0.25"),
    (): (DimensionError, "votes must form a non-empty 1-D vector"),
}


@pytest.mark.parametrize("values, expected", CASES)
@pytest.mark.parametrize("make, box, shape", CONSTRUCTORS)
def test_constructor_contract(make, box, shape, values, expected):
    if box.startswith("vote"):
        expected = PROFILE_REFUSALS.get(tuple(values), expected)
    caller = np.array(values, dtype=float)
    if isinstance(expected, tuple):
        kind, message = expected
        message = {BOX: box, SHAPE: shape}.get(message, message)
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
            make(caller)
        assert caught.type is kind
        return
    stored = make(caller)
    bits = np.array(expected, dtype=float).view(np.uint64).tolist()
    assert stored.view(np.uint64).tolist() == bits
    assert not stored.flags.writeable
    assert caller.flags.writeable
    caller[:] = 0.5
    assert stored.view(np.uint64).tolist() == bits


# Cells at the edges the constructors guard: non-finite, signed zeros, subnormals, 1 +- 1 ulp.
EDGE_CELLS = st.sampled_from(
    [NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 0.25,
     1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -math.nextafter(1.0, 2.0)]
) | st.floats(-1.0, 1.0)
EDGE_SCALARS = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 5e-324, 0.25, 1.0, math.nextafter(1.0, 2.0)])


@st.composite
def edge_arrays(draw, shape):
    """All-tied arrays, arrays of edge cells, or signs with +-1 ulp among them."""
    size = math.prod(shape)
    kind = draw(st.sampled_from(["tied", "edge", "signs"]))
    if kind == "tied":
        return np.full(shape, draw(st.sampled_from([1.0 / max(size, 1), 1.0, -1.0]) | EDGE_CELLS))
    cells = EDGE_CELLS
    if kind == "signs":
        cells = st.sampled_from([1.0, -1.0]) | st.sampled_from([math.nextafter(1.0, 2.0), -0.0])
    return np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)


VECTORS = st.integers(0, 6).flatmap(lambda n: edge_arrays((n,)))
MATRICES = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(edge_arrays)


@pytest.mark.parametrize(
    "make, args",
    [
        pytest.param(sort_profile, st.tuples(VECTORS, EDGE_SCALARS | st.floats(0.0, 1.0)), id="sort_profile"),
        pytest.param(PredictionVector, st.tuples(VECTORS), id="PredictionVector"),
        pytest.param(LabelVector, st.tuples(VECTORS), id="LabelVector"),
        pytest.param(AbstainStrategy, st.tuples(VECTORS), id="AbstainStrategy"),
        pytest.param(WeightVector, st.tuples(VECTORS), id="WeightVector"),
        pytest.param(EnsembleMatrix, st.tuples(MATRICES), id="EnsembleMatrix"),
        pytest.param(LabeledSample, st.tuples(MATRICES, VECTORS), id="LabeledSample"),
    ],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructors_refuse_or_hold_finite_read_only_arrays(make, args, data):
    try:
        made = make(*data.draw(args))
    except (ValueError, VoteboundError):
        return
    fields = vars(made).values()
    for array in (x for x in fields if isinstance(x, np.ndarray)):
        assert np.isfinite(array).all() and not array.flags.writeable
    assert all(math.isfinite(x) for x in fields if isinstance(x, float))
