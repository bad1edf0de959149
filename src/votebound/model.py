"""Core domain types: ensemble matrices, vote profiles, and the threshold rule.

All values are immutable after construction (numpy arrays are stored
read-only and must be finite), so instances are safe to share across threads.
Each domain type copies a caller's array once and never freezes or aliases it; a
solver's own new buffer, wrapped in ``_Owned``, is checked alike and frozen in place.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    DegenerateBound,
    DimensionError,
    InfeasibleConstraint,
    InvalidCost,
)

# Slack of the checks on O(1) inputs (boxes, weight sums, the trivial-alpha edge);
# coverage uses cover_floor and solver-side assertions use SOLVER_TOL.
VALIDATION_TOL = 1e-12
SOLVER_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_FIELD = (1 << 52) - 1  # the fraction field of a float64
_UNITS = 1 << 1074  # every float64 is an integer multiple of 2**-1074
_BLOCK = 2**14  # margins per block of the exact pass: 128 KB of float64
_CHUNK = 2**12  # fraction fields per uint64 sum: 2**12 * 2**52 stays below 2**64
_ROW_GROUP = 16  # rows per step of a BLAS matrix-vector kernel, rounded up


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite (no NaN or inf)")
    arr.setflags(write=False)
    return arr


def _sign_cells(values) -> np.ndarray:
    """``values`` as an integer array, or else as a float array checked to be finite."""
    cells = np.asarray(values)
    if cells.dtype.kind in "iu":
        return cells
    cells = np.asarray(cells, dtype=float)
    if not np.isfinite(cells).all():
        raise ValueError("values must be finite (no NaN or inf)")
    return cells


def _frozen_signs(cells: np.ndarray, message: str) -> np.ndarray:
    """A read-only int8 copy of ``cells``, each of which must be exactly -1 or +1.

    The check makes boolean temporaries only, so a caller's array is copied once, as int8.
    """
    if not np.logical_or(signs := cells == 1, cells == -1, out=signs).all():
        raise ValueError(message)
    cells = cells.astype(np.int8)
    cells.setflags(write=False)
    return cells


def _vectors(*vectors) -> list[np.ndarray]:
    """The vectors (domain types unwrapped) as 1-D float arrays of one shared, non-zero length."""
    arrays = [np.asarray(getattr(v, "values", v), dtype=float) for v in vectors]
    if any(arr.ndim != 1 for arr in arrays):
        raise DimensionError("expected a 1-D vector")
    if any(arr.size != arrays[0].size for arr in arrays):
        raise DimensionError("vectors differ in length")
    if arrays[0].size < 1:
        raise DimensionError("vectors must be non-empty")
    return arrays


def _units(value: float) -> int:
    """``value`` in units of 2**-1074, exactly."""
    numerator, denominator = value.as_integer_ratio()
    return numerator * _UNITS // denominator


def _block_sums(block: np.ndarray, cut: int, scratch: np.ndarray) -> list[int]:
    """Sums of ``block[:cut]``, ``[cut]`` and ``[cut + 1:]``, in units of 2**-1074.

    ``block`` is non-empty and nonincreasing, with clear sign bits (no -0.0),
    as ``np.abs`` gives them; ``cut`` = -1 puts all of it after the cut.  Each
    float64 is its 52-bit fraction field plus the implicit leading bit, scaled
    by 2**exponent.  The bits as int64 are nonincreasing too, so a binary
    search for each exponent's least bit pattern finds where the runs of equal
    exponent (one per binade) start.  ``np.add.reduceat`` sums the fraction
    fields over each run, also split around ``cut`` and into pieces of at most
    ``_CHUNK``, so no uint64 sum overflows, and Python ints add the run sums.
    ``scratch`` is an int64 buffer at least as long as ``block``; the fields
    are the one vector the pass writes, and they go there.
    """
    bits = block.view(np.int64)
    size = bits.size
    keys = np.arange((int(bits[-1]) >> 52) + 1, (int(bits[0]) >> 52) + 1, dtype=np.int64) << 52
    drops = (size - np.searchsorted(bits[::-1], keys)).tolist()
    splits = (i for i in (cut, cut + 1) if 0 < i < size)  # block[cut] is a run of its own
    starts = sorted({0, *range(_CHUNK, size, _CHUNK), *drops, *splits})
    fields = np.bitwise_and(bits, _FIELD, out=scratch[:size]).view(np.uint64)
    totals = np.add.reduceat(fields, starts).tolist()
    biased = np.right_shift(bits[starts], 52).tolist()
    sums = [0, 0, 0]
    for f, e, start, end in zip(totals, biased, starts, starts[1:] + [size]):
        # Normal floats (e > 0) carry an implicit 2**52; subnormals share e = 1's scale.
        run = (f + ((end - start) << 52 if e else 0)) << max(e - 1, 0)
        sums[(start >= cut) + (start > cut)] += run
    return sums


def _unit_shift(largest: float) -> int:
    """The exponent s >= 0 that puts ``largest`` * 2**s in [0.5, 1]; 0 from 0.5 up.

    The shift is exact, and it makes the sums of subnormal margins round
    relative to their size instead of underflowing.
    """
    return -min(math.frexp(largest)[1], 0)


def cover_floor(target: float) -> float:
    """The least sum that covers ``target``: four ulps of ``target`` below it.

    Every "do these margins cover the target" decision, in the solvers and
    the oracles, compares a sum with this floor.  The floor is relative to
    the target, so a target formed in floats from an exact prefix sum (lam at
    a float prefix mean, times n) still counts as covered by that prefix.
    """
    return target - 4.0 * _EPS * abs(target)


def threshold_index(magnitudes: np.ndarray, need: float) -> tuple[int, float, float, float, float]:
    """The threshold k, the head sum before it, the fraction taken at k, the total and the tail.

    k is the smallest count with sum(magnitudes[:k]) >= cover_floor(need);
    the comparison with each prefix sum is exact.  The caller forms ``need``
    (n*lam for v, n*budget/(2 alpha) for w), and its rounding is the
    caller's.  ``magnitudes`` are nonnegative and nonincreasing, with clear
    sign bits, so prefix sums only grow.  Returns k (1-based, size + 1 when
    even the full sum falls short), the fraction (need - head) /
    magnitudes[k-1] of the k-th magnitude that meets need, clipped to [0, 1]
    and 1 at k = size + 1, and the correctly rounded sums of the first k - 1
    magnitudes (head), of all (total) and of those after the k-th (tail).

    The pass walks blocks of ``_BLOCK`` margins, each summed exactly by
    ``_block_sums`` in one int64 scratch of at most ``_BLOCK`` entries
    (128 KB, which stays in L2), so it writes no n-sized array.  Above one
    block, the exact sum of each block picks the one block that holds k (the
    last when even the full sum falls short) and gives the sums before and
    after it; at or below one block, that block is all the magnitudes.
    Inside k's block only, the float cumsum brackets k within its rounding
    error, the signs of exact prefix sums less the floor bisect the bracket,
    and one more pass splits the block around k.  The remainder need - head
    is rounded once, so for need > 0 the clip acts only when the k-th prefix
    sum lies between the floor and need; a remainder <= 0 (the only case with
    a zero k-th magnitude) takes fraction 0.
    """
    floor = _units(cover_floor(need))
    scratch = np.empty(min(magnitudes.size, _BLOCK), dtype=np.int64)
    begin = before = after = 0
    if magnitudes.size > _BLOCK:
        starts = range(0, magnitudes.size, _BLOCK)
        blocks = (sum(_block_sums(magnitudes[i : i + _BLOCK], -1, scratch)) for i in starts)
        prefix = list(accumulate(blocks, initial=0))  # prefix[b]: the blocks before b, exactly
        b = min(bisect_left(prefix, floor, 1), len(prefix) - 1) - 1
        begin, before, after = b * _BLOCK, prefix[b], prefix[-1] - prefix[b + 1]
    block = magnitudes[begin : begin + _BLOCK]
    rest = floor - before
    sums = np.cumsum(block)
    slack = 4.0 * (sums.size + 1) * _EPS * float(sums[-1])
    target = rest / _UNITS  # correctly rounded; exact when rest is a float's units
    lo, hi = (int(i) for i in np.searchsorted(sums, (target - slack, target + slack)))
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(_block_sums(block[: mid + 1], -1, scratch)) >= rest:
            hi = mid
        else:
            lo = mid + 1
    head, pivot, tail = _block_sums(block, lo, scratch)
    head, tail = before + head, tail + after
    units = head, head + pivot + tail, _units(need) - head, tail
    head, total, remainder, tail = (x / _UNITS for x in units)
    if begin + lo == magnitudes.size:
        return begin + lo + 1, head, 1.0, total, tail
    fraction = min(remainder / float(block[lo]), 1.0) if remainder > 0 else 0.0
    return begin + lo + 1, head, fraction, total, tail


@dataclass(frozen=True)
class EnsembleMatrix:
    """Sign predictions of the base classifiers on the unlabeled examples.

    Rows index examples, columns index classifiers; every entry is -1 or +1.
    ``entries`` is a read-only int8 copy of the caller's array.  A float input
    is checked to be finite, then its shape, then its signs, before it is
    converted.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _sign_cells(self.entries)
        if entries.ndim != 2:
            raise DimensionError("prediction matrix must be 2-D")
        if entries.shape[0] < 1 or entries.shape[1] < 1:
            raise DimensionError("prediction matrix must be non-empty")
        entries = _frozen_signs(entries, "prediction entries must be exactly -1 or +1")
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

    def __post_init__(self):
        weights = _readonly(self.weights)
        if weights.ndim != 1 or weights.size < 1:
            raise DimensionError("weights must form a non-empty 1-D vector")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > VALIDATION_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.size


def _require_cost(alpha) -> float:
    """The abstain cost as a float; it must be positive and finite."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidCost("abstain cost must be positive and finite")
    return float(alpha)


@dataclass(frozen=True)
class _Owned:
    """A float buffer a solver has just built and drops: ``_frozen_box`` freezes it, uncopied."""
    array: np.ndarray


def _frozen_box(values, low: float, name: str, message: str) -> np.ndarray:
    """The 1-D vector ``values`` (``name``) as one read-only float array held to [low, 1].

    A caller's array is copied once, an ``_Owned`` buffer used in place.  Raises on any
    other shape, then with ``message`` on a value past the box by more than
    VALIDATION_TOL, then on NaN.  Values within the tolerance are clipped.
    """
    values = values.array if isinstance(values, _Owned) else np.array(values, dtype=float)
    if values.ndim != 1:
        raise DimensionError(f"{name} must form a 1-D vector")
    lo, hi = np.minimum.reduce(values, initial=np.inf), np.maximum.reduce(values, initial=-np.inf)
    if nan := math.isnan(lo):  # minimum and maximum propagate NaN; fmin and fmax skip it
        lo, hi = np.fmin.reduce(values, initial=np.inf), np.fmax.reduce(values, initial=-np.inf)
    if lo < low - VALIDATION_TOL or hi > 1.0 + VALIDATION_TOL:
        raise ValueError(message)
    if nan:
        raise ValueError("values must be finite (no NaN or inf)")
    if lo < low or hi > 1.0:
        np.clip(values, low, 1.0, out=values)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class PredictionVector:
    """Confidence-rated label predictions, one real in [-1, 1] per example."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_box(
            self.values, -1.0, "predictions", "prediction components must lie in [-1, 1]"
        )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LabelVector:
    """Stochastic labels, one real in [-1, 1] per example."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_box(self.values, -1.0, "labels", "label components must lie in [-1, 1]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AbstainStrategy:
    """Per-example abstain probabilities, one real in [0, 1] per example."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_box(
            self.probs, 0.0, "abstain probabilities", "abstain probabilities must lie in [0, 1]"
        )
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class LabeledSample:
    """Training predictions with their known labels, both read-only int8 copies.

    The checks run in ``EnsembleMatrix``'s order: finite (float inputs), shapes, signs.
    """

    predictions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        predictions = _sign_cells(self.predictions)
        labels = _sign_cells(self.labels)
        if predictions.ndim != 2 or labels.ndim != 1:
            raise DimensionError("expected a 2-D prediction grid and 1-D labels")
        if predictions.shape[0] != labels.size:
            raise DimensionError("label count must equal prediction row count")
        if predictions.size < 1:
            raise DimensionError("training sample must be non-empty")
        predictions = _frozen_signs(predictions, "training predictions must be exactly -1 or +1")
        labels = _frozen_signs(labels, "training labels must be exactly -1 or +1")
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
    whose sum reaches ``cover_floor(n*lam)``, ``pivot`` is |a_v|, ``head`` the
    exact sum of the v - 1 larger margins, ``tail`` that of the n - v smaller
    ones and ``fraction`` the share of the pivot nature takes, (n*lam - head) /
    |a_v| clipped to [0, 1].  The record is exact for some lam' within four ulps
    of lam; ``threshold_index`` forms it in one exact pass.  Construction fails
    unless the margins reach the floor; the pivot is then nonzero.
    """

    votes: np.ndarray
    lam: float
    abs_sorted: np.ndarray = field(init=False)
    total: float = field(init=False)
    v: int = field(init=False)
    pivot: float = field(init=False)
    head: float = field(init=False)
    fraction: float = field(init=False)
    tail: float = field(init=False)

    def __post_init__(self):
        votes = _frozen_box(self.votes, -1.0, "votes", "vote components must lie in [-1, 1]")
        if votes.size < 1:
            raise DimensionError("votes must form a non-empty 1-D vector")
        lam = float(self.lam)
        if not math.isfinite(lam):
            raise ValueError("correlation bound must be finite")
        if lam <= 0:
            raise DegenerateBound(
                "correlation bound must be positive; callers may fall back to "
                "the averaged prediction g = a"
            )
        if lam > 1.0:
            raise InfeasibleConstraint("correlation bound cannot exceed 1")
        abs_sorted = np.copysign(votes, -1.0)
        abs_sorted.sort()  # -|a| ascending, so |a| descending, in one buffer
        np.negative(abs_sorted, out=abs_sorted).setflags(write=False)
        v, head, fraction, total, tail = threshold_index(abs_sorted, votes.size * lam)
        if v > votes.size:
            raise InfeasibleConstraint(
                f"mean |vote| {total / votes.size!r} is below the correlation bound {lam!r}"
            )
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "abs_sorted", abs_sorted)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "pivot", float(abs_sorted[v - 1]))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "fraction", fraction)
        object.__setattr__(self, "tail", tail)

    @property
    def n(self) -> int:
        return self.votes.size


def compute_votes(matrix: EnsembleMatrix, q: WeightVector) -> np.ndarray:
    """Weighted-average ensemble prediction per example, each in [-1, 1].

    Each vote has the bits of its row of ``matrix.entries.astype(float) @
    q.weights`` made in one BLAS call on one thread, but no n x H float copy
    is made: the int8 rows are converted a block at a time into one float
    buffer, and each block takes the same product into its slice of the
    votes.  A BLAS kernel takes rows in groups, and a call of very few rows
    goes another way, so every block but the last starts and ends on a
    multiple of ``_ROW_GROUP`` rows, and the last holds at least
    ``_ROW_GROUP`` rows unless it is the only one.  A block holds at most
    ``_BLOCK`` floats, or at most 2 * ``_ROW_GROUP`` - 1 rows if fewer rows fit.
    """
    if len(q) != matrix.num_hypotheses:
        raise DimensionError(
            f"weight vector has length {len(q)}, matrix has "
            f"{matrix.num_hypotheses} hypotheses"
        )
    entries = matrix.entries
    n, h = entries.shape
    # The last block may take up to _ROW_GROUP - 1 rows more than the others.
    rows = max((_BLOCK // h - _ROW_GROUP + 1) // _ROW_GROUP * _ROW_GROUP, _ROW_GROUP)
    ends = [*range(rows, n - _ROW_GROUP + 1, rows), n]
    starts = [0, *ends[:-1]]
    buffer = np.empty((max(end - start for start, end in zip(starts, ends)), h))
    votes = np.empty(n)
    for start, end in zip(starts, ends):
        block = buffer[: end - start]
        np.copyto(block, entries[start:end])
        np.matmul(block, q.weights, out=votes[start:end])
    # |votes| <= sum(q) = 1 mathematically; clip float residue only, in place.
    return np.clip(votes, -1.0, 1.0, out=votes)


def sort_profile(votes, lam: float) -> VoteProfile:
    """Build the feasible profile, with its threshold record, used by all solvers."""
    return VoteProfile(votes=votes, lam=lam)


def payoff(g, z) -> float:
    """Average correlation (1/n) * sum(g_i * z_i) between predictions and labels."""
    gv, zv = _vectors(g, z)
    return float(gv @ zv) / gv.size
