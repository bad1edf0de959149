"""Training-sample bounds that certify a correlation level for the solvers.

Natural logarithms throughout.  The pipeline route is: Gibbs training error
plus a complexity radius epsilon gives a test-side error bound, which
converts to the correlation bound lambda_hat = 1 - 2*err - 2*epsilon fed to
the game.  A nonpositive lambda_hat is flagged degenerate rather than
clamped; the caller falls back to the averaged prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log, sqrt
from typing import Optional

import numpy as np

from .errors import DegenerateBound, DimensionError, InfiniteDivergence
from .game import find_threshold
from .model import LabeledSample, VoteProfile, WeightVector, exact_sum


@dataclass(frozen=True)
class PacBayesParams:
    """Training size and confidence level."""

    m: int
    delta: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("training size must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    """The certified quantities the pipeline attaches to a prediction run."""

    gibbs_train_error: float
    kl_posterior_prior: float
    epsilon: float
    lambda_hat: float
    error_bound: Optional[float]
    abstain_bound: Optional[float]
    mistake_bound: Optional[float]
    degenerate: bool

    def __post_init__(self):
        if self.epsilon < 0 or self.kl_posterior_prior < 0:
            raise ValueError("epsilon and KL must be nonnegative")
        expected = 1.0 - 2.0 * self.gibbs_train_error - 2.0 * self.epsilon
        if abs(self.lambda_hat - expected) > 1e-9:
            raise ValueError("lambda_hat must equal 1 - 2*err - 2*epsilon")
        if self.degenerate != (self.lambda_hat <= 0.0):
            raise ValueError("degenerate flag must track lambda_hat <= 0")


def kl_bernoulli(p: float, q: float) -> float:
    """KL(p||q) = p log(p/q) + (1-p) log((1-p)/(1-q)), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if q in (0.0, 1.0):
        if p == q:
            return 0.0
        raise InfiniteDivergence("KL(p||q) is infinite for q in {0, 1} with p != q")
    value = 0.0
    if p > 0.0:
        value += p * log(p / q)
    if p < 1.0:
        value += (1.0 - p) * log((1.0 - p) / (1.0 - q))
    return max(value, 0.0)


def kl_discrete(q: WeightVector, q0: WeightVector) -> float:
    """KL(q||q0) = sum q_i log(q_i/q0_i); infinite outside q0's support."""
    if len(q) != len(q0):
        raise DimensionError("distributions differ in length")
    w = q.weights
    w0 = q0.weights
    support = w > 0.0
    if np.any(w0[support] <= 0.0):
        raise InfiniteDivergence("posterior support escapes the prior support")
    value = float(np.sum(w[support] * np.log(w[support] / w0[support])))
    return max(value, 0.0)


def epsilon(params: PacBayesParams, q: WeightVector, q0: WeightVector) -> float:
    """Complexity radius sqrt((2/m)(KL(q||q0) + log(2(m+1)/delta))).

    Strictly decreasing in m and delta, strictly increasing in the KL term.
    """
    divergence = kl_discrete(q, q0)
    return sqrt((2.0 / params.m) * (divergence + log(2.0 * (params.m + 1) / params.delta)))


def gibbs_train_error(sample: LabeledSample, q: WeightVector) -> float:
    """Posterior-averaged empirical error (1/m) sum_i sum_j q_j [pred != label]."""
    if len(q) != sample.num_hypotheses:
        raise DimensionError("weight vector does not match the hypothesis count")
    correlation = float(sample.labels @ (sample.predictions @ q.weights)) / sample.num_examples
    return (1.0 - correlation) / 2.0


def lambda_hat(gibbs_error: float, eps: float) -> float:
    """Certified correlation bound 1 - 2*err - 2*epsilon (may be <= 0)."""
    return 1.0 - 2.0 * gibbs_error - 2.0 * eps


def error_probability_bound(profile: VoteProfile, report: BoundReport, delta: float) -> float:
    """Error probability bound err + eps + delta - (1/2n) sum_{i<v} (1 - |a_i|).

    Returned raw; reporting clips to [0, 1] separately so that strong
    ensembles with a negative raw bound stay observable.
    """
    if report.lambda_hat <= 0.0:
        raise DegenerateBound("error bound undefined for nonpositive lambda_hat")
    disagreement = (find_threshold(profile) - 1) - profile.head
    return report.gibbs_train_error - disagreement / (2.0 * profile.n) + report.epsilon + delta


def abstain_mistake_bounds(
    profile: VoteProfile, report: BoundReport, delta: float
) -> tuple[float, float]:
    """Bounds on the abstain and mistake probabilities of the abstaining rule.

    abstain <= 2*err + 2*eps + delta - (1/n) sum_{i>v} |a_i|/|a_v|
    mistake <=   err +   eps + delta - (1/2n) sum_{i<=v} (1 - |a_i|)

    Both are independent of the abstain cost in the alpha < 1/2 regime.
    """
    if report.lambda_hat <= 0.0:
        raise DegenerateBound("bounds undefined for nonpositive lambda_hat")
    n = profile.n
    v = find_threshold(profile)
    tail_ratio = float(profile.abs_sorted[v:].sum()) / profile.pivot
    head_disagreement = v - exact_sum(profile.abs_sorted[:v])
    abstain = (
        2.0 * report.gibbs_train_error + 2.0 * report.epsilon + delta - tail_ratio / n
    )
    mistake = (
        report.gibbs_train_error + report.epsilon + delta - head_disagreement / (2.0 * n)
    )
    return abstain, mistake


def hypothesis_errors(sample: LabeledSample) -> np.ndarray:
    """Per-hypothesis empirical error rates on the labeled sample."""
    agreement = (sample.labels @ sample.predictions) / sample.num_examples
    return (1.0 - agreement) / 2.0


def exp_weights_posterior(sample: LabeledSample, eta: float) -> WeightVector:
    """Posterior with weights proportional to exp(-eta * empirical error).

    eta = 0 gives the uniform distribution; the shift by the minimum error
    keeps the exponentials in range for large eta.
    """
    if eta < 0.0 or not isfinite(eta):
        raise ValueError(f"eta must be nonnegative and finite, not {eta}")
    errors = hypothesis_errors(sample)
    shifted = np.exp(-eta * (errors - errors.min()))
    return WeightVector(weights=shifted / shifted.sum())


def kl_bound_train(
    sample: LabeledSample, q: WeightVector, q0: WeightVector, delta: float
) -> float:
    """Training-side KL budget (KL(q||q0) + log((m+1)/delta)) / m.

    Computed for display next to the square-root route the pipeline actually
    uses; inverting it would give a tighter correlation bound but is out of
    scope here.
    """
    m = sample.num_examples
    return (kl_discrete(q, q0) + log((m + 1) / delta)) / m
