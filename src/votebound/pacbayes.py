"""Training-sample bounds that certify a correlation level for the solvers.

Natural logarithms throughout.  The pipeline route is: Gibbs training error
plus a complexity radius epsilon gives a test-side error bound, which
converts to the correlation bound lambda_hat = 1 - 2*err - 2*epsilon fed to
the game.  KL(q||q0) is computed once, by ``kl_discrete``, and passed to
both ``epsilon`` and ``kl_bound_train``.  A nonpositive lambda_hat is flagged
degenerate rather than clamped; the caller falls back to the averaged
prediction, and ``probability_bounds`` refuses it with ``DegenerateBound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite, log, sqrt

import numpy as np

from .errors import DegenerateBound, DimensionError, InfiniteDivergence
from .model import LabeledSample, VoteProfile, WeightVector


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


def kl_bernoulli(p: float, q: float) -> float:
    """KL(p||q) between Bernoulli laws: ``kl_discrete`` of (p, 1-p) against (q, 1-q)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return kl_discrete(WeightVector(np.array([p, 1.0 - p])), WeightVector(np.array([q, 1.0 - q])))


def kl_discrete(q: WeightVector, q0: WeightVector) -> float:
    """KL(q||q0) = sum q_i (log q_i - log q0_i) over q's support; infinite outside q0's.

    The log is split, as in ``epsilon``: a tiny q0_i would overflow the quotient q_i/q0_i.
    """
    if len(q) != len(q0):
        raise DimensionError("distributions differ in length")
    support = q.weights > 0.0
    w, w0 = q.weights[support], q0.weights[support]
    if np.any(w0 <= 0.0):
        raise InfiniteDivergence("posterior support escapes the prior support")
    return max(float(np.sum(w * (np.log(w) - np.log(w0)))), 0.0)


def epsilon(params: PacBayesParams, divergence: float) -> float:
    """Complexity radius sqrt((2/m)(KL + log(2(m+1)/delta))), KL = KL(q||q0).

    Strictly decreasing in m and delta, strictly increasing in the KL term.
    The log is log(2(m+1)) - log(delta): a subnormal delta would overflow the quotient.
    """
    return sqrt((2.0 / params.m) * (divergence + (log(2.0 * (params.m + 1)) - log(params.delta))))


def gibbs_train_error(sample: LabeledSample, q: WeightVector) -> float:
    """Posterior-averaged error sum_j q_j err_j: an fsum of exact counts over m, never < 0."""
    if len(q) != sample.num_hypotheses:
        raise DimensionError("weight vector does not match the hypothesis count")
    return fsum(hypothesis_errors(sample) * q.weights)


def lambda_hat(gibbs_error: float, eps: float) -> float:
    """Certified correlation bound 1 - 2*err - 2*epsilon (may be <= 0)."""
    return 1.0 - 2.0 * gibbs_error - 2.0 * eps


def probability_bounds(
    profile: VoteProfile, gibbs: float, eps: float, delta: float
) -> tuple[float, float, float]:
    """Bounds on the error of g* and on the abstain and mistake probabilities of p_alg.

    error   <=   err +   eps + delta - (1/2n) sum_{i<v} (1 - |a_i|)
    abstain <= 2*err + 2*eps + delta - (1/n) sum_{i>v} |a_i|/|a_v|
    mistake <=   err +   eps + delta - (1/2n) sum_{i<=v} (1 - |a_i|)

    The error bound holds for the minimax predictor g* at every positive
    lambda_hat.  The abstain and mistake bounds hold for the abstaining rule
    p_alg in the nontrivial alpha < 1/2 regime and are independent of the
    cost there; they say nothing of the trivial all-abstain strategy or of
    alpha >= 1/2.  The profile's record gives every sum: ``head`` the one
    before v and ``tail`` the one past it, each correctly rounded.  All three
    are returned raw; reporting clips the error bound to [0, 1] separately so
    that strong ensembles with a negative raw bound stay observable.
    """
    if lambda_hat(gibbs, eps) <= 0.0:
        raise DegenerateBound("bounds undefined for nonpositive lambda_hat")
    n = profile.n
    disagreement = (profile.v - 1) - profile.head
    error = gibbs - disagreement / (2.0 * n) + eps + delta
    abstain = 2.0 * gibbs + 2.0 * eps + delta - profile.tail / profile.pivot / n
    mistake = gibbs + eps + delta - (disagreement + (1.0 - profile.pivot)) / (2.0 * n)
    return error, abstain, mistake


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


def kl_bound_train(params: PacBayesParams, divergence: float) -> float:
    """Training-side KL budget (KL + log((m+1)/delta)) / m, KL = KL(q||q0).

    Computed for display next to the square-root route the pipeline actually
    uses; inverting it would give a tighter correlation bound but is out of
    scope here.  The log is split as in ``epsilon``.
    """
    return (divergence + (log(params.m + 1) - log(params.delta))) / params.m
