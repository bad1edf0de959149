"""The abstention-extended game: value bounds, a near-optimal strategy, losses.

Abstaining on an example costs a flat alpha; predicting costs the usual
(1/2)(1 - g_i z_i).  For alpha >= 1/2 abstaining never helps and the game
reduces to the plain prediction game.  For alpha < 1/2 the dual value is
obtained by a budget greedy over label magnitudes, and the predictor has a
simple near-optimal strategy that abstains only below the threshold margin.
``AbstainSolution.alpha`` holds the cost; the losses take it with the probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ldexp
from typing import Optional

import numpy as np

from .game import find_threshold, game_value
from .model import (
    VALIDATION_TOL,
    AbstainStrategy,
    VoteProfile,
    _Owned,
    _require_cost,
    _unit_shift,
    _vectors,
    threshold_index,
)


@dataclass(frozen=True)
class AbstainSolution:
    """Everything the abstain solver knows about one (profile, alpha) instance.

    Margins |a_i| run in nonincreasing order, S_k is the sum of the k largest
    and v, |a_v| are the profile's threshold record.  ``w`` is set exactly when
    neither trivial nor alpha >= 1/2.

    - alpha: the cost of abstaining, positive and finite.
    - trivial: alpha < 1/2 and alpha <= (1/2)(1 - n*lam / S_n) + VALIDATION_TOL: always
      abstaining is optimal.  The slack never reaches 1/2, where abstaining cannot help.
    - w: min { i : 2 alpha S_i covers n*budget }, the index where nature's raises stop;
      w <= v.  Covering is ``model.cover_floor``'s rule, as for v.
    - budget: lam - (1 - 2 alpha) S_n / n, what nature must cover once every |z_i| is 1 - 2 alpha;
      formed, like w, on margins shifted up by an exact power of two, so it does not underflow.
    - value_exact: alpha if trivial; (1 - V)/2 for alpha >= 1/2, V the game value; otherwise
      alpha (n - w + 1 - f)/n, where f = (n*budget/(2 alpha) - S_{w-1})/|a_w| in [0, 1] is the
      share of the raise nature takes at w (its magnitude there is 1 - 2 alpha (1 - f)).
    - value_lower, value_upper: alpha(1 - w/n) and alpha(1 - (w-1)/n), or value_exact without w.
    - p_alg: all ones if trivial, else ``p_alg(profile, alpha)``.
    - loss_formula: (1/2)(1 - v/n) for alpha >= 1/2, else alpha(1 - v/n) + (1/2 - alpha)(1/n)
      sum_{i>v} |a_i|/|a_v|, the loss of p_alg and g* against z* when S_v = n*lam.  The sum
      past v is ``profile.tail``, correctly rounded by the profile's one exact pass.  The figure
      can fall below value_exact (fix1: 0.0875 against 0.1484), so it is no worst-case loss;
      ``oracle.worst_case_abstain_loss`` gives that.
    - loss_no_abstain: (1/2)(1 - (v-1)/n), a bound on the plain predictor's error.
    """

    alpha: float
    trivial: bool
    w: Optional[int]
    budget: float
    value_exact: float
    value_lower: float
    value_upper: float
    p_alg: AbstainStrategy
    loss_formula: float
    loss_no_abstain: float


def p_alg(profile: VoteProfile, alpha: float) -> np.ndarray:
    """Near-optimal abstain probabilities, in original example order, as a new float array.

    For alpha < 1/2: zero on the v most confident examples and
    1 - |a_i|/|a_v| on the rest (one minus the committed prediction
    magnitude); for alpha >= 1/2: identically zero.  Within each regime the
    probabilities do not depend on alpha, which must still be a valid cost.
    """
    if _require_cost(alpha) >= 0.5:
        return np.zeros(profile.n)
    probs = np.abs(profile.votes)
    np.minimum(np.divide(probs, profile.pivot, out=probs), 1.0, out=probs)
    return np.subtract(1.0, probs, out=probs)


def abstain_loss(g, probs, alpha: float, z) -> float:
    """Expected loss (1/n) sum [p_i alpha + (1/2)(1 - p_i)(1 - g_i z_i)], cost checked first."""
    alpha = _require_cost(alpha)
    gv, zv, probs = _vectors(g, z, probs)
    per_example = probs * alpha + 0.5 * (1.0 - probs) * (1.0 - gv * zv)
    return float(per_example.sum()) / gv.size


def solve_abstain(profile: VoteProfile, alpha: float) -> AbstainSolution:
    """The one abstain solver: every field of ``AbstainSolution`` for one cost.

    Below alpha = 1/2, nature starts every |z_i| at 1 - 2 alpha (free: the
    per-example payoff stays at alpha), then raises magnitudes to 1 in
    descending margin order, fractionally at w, until the correlation
    constraint binds.
    """
    alpha = _require_cost(alpha)
    n, v = profile.n, find_threshold(profile)
    # The budget and w's rule run on margins shifted up by an exact power of two, so a
    # subnormal budget does not underflow; the shift is 0 once the largest margin is 0.5.
    shift = _unit_shift(profile.abs_sorted[0])
    lam, total = ldexp(profile.lam, shift), ldexp(profile.total, shift)
    budget = lam - (1.0 - 2.0 * alpha) * total / n
    trivial = alpha < 0.5 and (
        alpha <= 0.5 * (1.0 - n * profile.lam / profile.total) + VALIDATION_TOL
    )
    w = None
    if trivial:
        value = lower = upper = alpha
    elif alpha >= 0.5:
        value = lower = upper = (1.0 - game_value(profile)) / 2.0
    else:
        # w <= v holds exactly.  A rounded target past the v-th prefix sum lies
        # within rounding of it, so w = v + 1 with fraction 1 is a full raise at v.
        margins = profile.abs_sorted[:v]
        margins = np.ldexp(margins, shift) if shift else margins
        w, _, f, _, _ = threshold_index(margins, n * budget / (2.0 * alpha))
        w = min(w, v)
        value = alpha * (n - w + 1 - f) / n
        lower = alpha * (1.0 - w / n)
        upper = alpha * (1.0 - (w - 1) / n)
    # The vacuous game is won by abstaining everywhere.
    strategy = AbstainStrategy(_Owned(np.ones(n) if trivial else p_alg(profile, alpha)))
    if alpha >= 0.5:
        loss_formula = 0.5 * (1.0 - v / n)
    else:
        loss_formula = alpha * (1.0 - v / n) + (0.5 - alpha) * (profile.tail / profile.pivot) / n
    return AbstainSolution(
        alpha=alpha,
        trivial=trivial,
        w=w,
        budget=ldexp(budget, -shift),
        value_exact=value,
        value_lower=lower,
        value_upper=upper,
        p_alg=strategy,
        loss_formula=loss_formula,
        loss_no_abstain=0.5 * (1.0 - (v - 1) / n),
    )
