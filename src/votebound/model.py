"""Core domain types: ensemble matrices, vote profiles, and the threshold rule.

All values are immutable after construction (numpy arrays are stored
read-only and must be finite), so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBound,
    DimensionError,
    InfeasibleConstraint,
    InvalidCost,
)

# Input validation slack; solver-side assertions use SOLVER_TOL.
VALIDATION_TOL = 1e-12
SOLVER_TOL = 1e-9
# exact_sum hands shorter arrays to math.fsum, which is faster at small sizes.
EXACT_SUM_MIN_SIZE = 4096
_LOW26 = (1 << 26) - 1


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite (no NaN or inf)")
    arr.setflags(write=False)
    return arr


def as_array(vector) -> np.ndarray:
    """Accept a domain vector type or any 1-D sequence of reals."""
    values = getattr(vector, "values", None)
    if values is None:
        values = getattr(vector, "probs", vector)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError("expected a 1-D vector")
    return arr


def exact_sum(magnitudes: np.ndarray, offset: float = 0.0) -> float:
    """Correctly rounded sum of float64 ``magnitudes`` plus ``offset``.

    ``magnitudes`` must have a clear sign bit (no negative value and no
    -0.0), as ``np.abs`` returns them.  The result has the bits of
    ``math.fsum``, which it calls below EXACT_SUM_MIN_SIZE elements.  Longer
    arrays are summed as integers: each float64 is its 52-bit fraction field
    plus the implicit leading bit, scaled by 2**exponent.  The fraction
    fields are split into 26-bit halves, so ``np.add.reduceat`` sums each
    half over a run of equal exponent without overflow.  Sorted input has
    few runs (one per binade), and Python ints add the run sums exactly; one
    int true division rounds the result.
    """
    if magnitudes.size < EXACT_SUM_MIN_SIZE:
        return math.fsum(np.append(magnitudes, offset) if offset else magnitudes)
    bits = magnitudes.view(np.int64)
    biased = bits >> 52
    starts = np.concatenate(([0], np.flatnonzero(biased[1:] != biased[:-1]) + 1))
    high = np.add.reduceat((bits >> 26) & _LOW26, starts).tolist()
    low = np.add.reduceat(bits & _LOW26, starts).tolist()
    ends = starts[1:].tolist() + [bits.size]
    mantissa, exponent = math.frexp(offset)
    terms = [(int(mantissa * 2.0**53), exponent - 53)]
    for h, lo, e, start, end in zip(high, low, biased[starts].tolist(), starts.tolist(), ends):
        # Normal floats (e > 0) carry an implicit 2**52; subnormals share e = 1's scale.
        terms.append(((h << 26) + lo + ((end - start) << 52 if e else 0), max(e, 1) - 1075))
    base = min(scale for _, scale in terms)
    total = sum(value << (scale - base) for value, scale in terms)
    return total / (1 << -base) if base < 0 else float(total << base)


def threshold_index(
    magnitudes: np.ndarray, target: float, scale: float = 1.0
) -> tuple[int, float]:
    """Smallest count k with scale * sum(magnitudes[:k]) >= target - VALIDATION_TOL.

    The one threshold rule behind v and w.  The bound
    (target - VALIDATION_TOL) / scale is rounded once; the comparison with
    each prefix sum is exact.  ``magnitudes`` are nonnegative and
    nonincreasing, so prefix sums only grow: the float cumsum brackets k
    within its rounding error, and exact ``exact_sum`` comparisons bisect the
    bracket.  Returns k (1-based, n + 1 when even the full sum falls short)
    and the correctly rounded sum of the first k - 1 magnitudes.
    """
    need = (target - VALIDATION_TOL) / scale
    sums = np.cumsum(magnitudes)
    slack = 4.0 * (sums.size + 1) * np.finfo(float).eps * float(sums[-1])
    lo, hi = (int(i) for i in np.searchsorted(sums, (need - slack, need + slack)))
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_sum(magnitudes[: mid + 1], -need) >= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return lo + 1, exact_sum(magnitudes[:lo])


@dataclass(frozen=True)
class EnsembleMatrix:
    """Sign predictions of the base classifiers on the unlabeled examples.

    Rows index examples, columns index classifiers; every entry is -1 or +1.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _readonly(self.entries)
        if entries.ndim != 2:
            raise DimensionError("prediction matrix must be 2-D")
        if entries.shape[0] < 1 or entries.shape[1] < 1:
            raise DimensionError("prediction matrix must be non-empty")
        if not np.all(np.abs(entries) == 1.0):
            raise ValueError("prediction entries must be exactly -1 or +1")
        object.__setattr__(self, "entries", entries)

    @property
    def num_examples(self) -> int:
        return self.entries.shape[0]

    @property
    def num_hypotheses(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class WeightVector:
    """A distribution over the hypotheses (posterior or prior)."""

    weights: np.ndarray
    role: str = "posterior"

    def __post_init__(self):
        weights = _readonly(self.weights)
        if weights.ndim != 1 or weights.size < 1:
            raise DimensionError("weights must form a non-empty 1-D vector")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > VALIDATION_TOL:
            raise ValueError("weights must sum to 1")
        if self.role not in ("posterior", "prior"):
            raise ValueError("role must be 'posterior' or 'prior'")
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.size


def _validate_box(values: np.ndarray, what: str) -> np.ndarray:
    if np.any(np.abs(values) > 1.0 + VALIDATION_TOL):
        raise ValueError(f"{what} components must lie in [-1, 1]")
    return np.clip(values, -1.0, 1.0)


@dataclass(frozen=True)
class PredictionVector:
    """Confidence-rated label predictions, one real in [-1, 1] per example."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError("predictions must form a 1-D vector")
        object.__setattr__(self, "values", _readonly(_validate_box(values, "prediction")))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LabelVector:
    """Stochastic labels, one real in [-1, 1] per example."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError("labels must form a 1-D vector")
        object.__setattr__(self, "values", _readonly(_validate_box(values, "label")))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AbstainStrategy:
    """Per-example abstain probabilities together with the abstain cost."""

    probs: np.ndarray
    alpha: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise DimensionError("abstain probabilities must form a 1-D vector")
        if np.any(probs < -VALIDATION_TOL) or np.any(probs > 1.0 + VALIDATION_TOL):
            raise ValueError("abstain probabilities must lie in [0, 1]")
        if not self.alpha > 0:
            raise InvalidCost("abstain cost must be positive")
        object.__setattr__(self, "probs", _readonly(np.clip(probs, 0.0, 1.0)))
        object.__setattr__(self, "alpha", float(self.alpha))

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class LabeledSample:
    """Training predictions with their known labels."""

    predictions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        predictions = _readonly(self.predictions)
        labels = _readonly(self.labels)
        if predictions.ndim != 2 or labels.ndim != 1:
            raise DimensionError("expected a 2-D prediction grid and 1-D labels")
        if predictions.shape[0] != labels.size:
            raise DimensionError("label count must equal prediction row count")
        if not np.all(np.abs(predictions) == 1.0):
            raise ValueError("training predictions must be exactly -1 or +1")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("training labels must be exactly -1 or +1")
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "labels", labels)

    @property
    def num_examples(self) -> int:
        return self.labels.size

    @property
    def num_hypotheses(self) -> int:
        return self.predictions.shape[1]


@dataclass(frozen=True)
class VoteProfile:
    """Ensemble votes plus the threshold record every solver reads.

    ``abs_sorted`` holds the margins |a_i| in nonincreasing order and
    ``total`` their exact sum.  ``v`` is the smallest count of top margins
    whose sum covers n*lam, ``pivot`` is |a_v| and ``head`` the exact sum of
    the v - 1 larger margins.  Construction fails unless the margins cover
    the correlation bound with a nonzero pivot.
    """

    votes: np.ndarray
    lam: float
    abs_sorted: np.ndarray = field(init=False)
    total: float = field(init=False)
    v: int = field(init=False)
    pivot: float = field(init=False)
    head: float = field(init=False)

    def __post_init__(self):
        votes = np.asarray(self.votes, dtype=float)
        if votes.ndim != 1 or votes.size < 1:
            raise DimensionError("votes must form a non-empty 1-D vector")
        votes = _readonly(_validate_box(votes, "vote"))
        lam = float(self.lam)
        if not math.isfinite(lam):
            raise ValueError("correlation bound must be finite")
        if lam <= 0:
            raise DegenerateBound(
                "correlation bound must be positive; callers may fall back to "
                "the averaged prediction g = a"
            )
        if lam > 1.0 + VALIDATION_TOL:
            raise InfeasibleConstraint("correlation bound cannot exceed 1")
        abs_sorted = _readonly(np.sort(np.abs(votes))[::-1])
        total = exact_sum(abs_sorted)
        v, head = threshold_index(abs_sorted, votes.size * lam)
        if v > votes.size:
            raise InfeasibleConstraint(
                f"mean |vote| {total / votes.size:.6g} is below the "
                f"correlation bound {lam:.6g}"
            )
        pivot = float(abs_sorted[v - 1])
        if pivot == 0.0:
            raise InfeasibleConstraint("all votes are zero, so no margin can carry the bound")
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "abs_sorted", abs_sorted)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "head", head)

    @property
    def n(self) -> int:
        return self.votes.size


def compute_votes(matrix: EnsembleMatrix, q: WeightVector) -> np.ndarray:
    """Weighted-average ensemble prediction per example, each in [-1, 1]."""
    if len(q) != matrix.num_hypotheses:
        raise DimensionError(
            f"weight vector has length {len(q)}, matrix has "
            f"{matrix.num_hypotheses} hypotheses"
        )
    votes = matrix.entries @ q.weights
    # |votes| <= sum(q) = 1 mathematically; clip float residue only.
    return np.clip(votes, -1.0, 1.0)


def sort_profile(votes, lam: float) -> VoteProfile:
    """Build the feasible profile, with its threshold record, used by all solvers."""
    return VoteProfile(votes=as_array(votes), lam=lam)


def payoff(g, z) -> float:
    """Average correlation (1/n) * sum(g_i * z_i) between predictions and labels."""
    gv = as_array(g)
    zv = as_array(z)
    if gv.size != zv.size:
        raise DimensionError("prediction and label vectors differ in length")
    return float(gv @ zv) / gv.size
