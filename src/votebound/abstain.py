"""The abstention-extended game: value bounds, a near-optimal strategy, losses.

Abstaining on an example costs a flat alpha; predicting costs the usual
(1/2)(1 - g_i z_i).  For alpha >= 1/2 abstaining never helps and the game
reduces to the plain prediction game.  For alpha < 1/2 the dual value is
obtained by a budget greedy over label magnitudes, and the predictor has a
simple near-optimal strategy that abstains only below the threshold margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateAbstain, DimensionError, InvalidCost
from .game import find_threshold, game_value
from .model import (
    SOLVER_TOL,
    VALIDATION_TOL,
    AbstainStrategy,
    VoteProfile,
    as_array,
    ordering2_keys,
    threshold_index,
)


@dataclass(frozen=True)
class AbstainSolution:
    """Everything the abstain solver knows about one (profile, alpha) instance.

    ``w`` and ``value_closed_form`` are populated only in the nontrivial
    alpha < 1/2 regime; ``v2`` is the threshold index under the
    commitment-adjusted ordering and is None when some abstain probability
    reaches 1 (zero votes below the threshold).
    """

    alpha: float
    trivial: bool
    w: Optional[int]
    budget: float
    value_exact: float
    value_lower: float
    value_upper: float
    value_closed_form: Optional[float]
    p_alg: AbstainStrategy
    loss_formula: float
    loss_no_abstain: float
    loss_abstain: float
    v2: Optional[int]


def _require_cost(alpha: float) -> float:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidCost("abstain cost must be positive and finite")
    return float(alpha)


def _budget(profile: VoteProfile, alpha: float) -> float:
    """Constraint deficit lam - ((1 - 2 alpha)/n) sum |a_i| nature must cover."""
    return profile.lam - (1.0 - 2.0 * alpha) * profile.total / profile.n


def trivial_check(profile: VoteProfile, alpha: float) -> bool:
    """True when always abstaining is already optimal for the predictor.

    Inclusive comparison: alpha <= (1/2)(1 - n*lam / sum |a_i|).
    """
    alpha = _require_cost(alpha)
    return alpha <= 0.5 * (1.0 - profile.n * profile.lam / profile.total) + VALIDATION_TOL


def _budget_threshold(profile: VoteProfile, alpha: float) -> tuple[int, float]:
    """w and the exact sum of the w - 1 largest margins; see ``find_w``."""
    if alpha >= 0.5:
        raise ValueError("w is defined only for alpha < 1/2")
    if trivial_check(profile, alpha):
        raise ValueError("w is undefined in the trivial regime")
    v = find_threshold(profile)
    target = profile.n * _budget(profile, alpha)
    w, head = threshold_index(profile.abs_sorted[:v], target, 2.0 * alpha)
    # w <= v holds exactly.  A rounded target past the v-th prefix sum lies
    # within rounding of it, above the (v-1)-th, so w = v.
    return (w, head) if w <= v else (v, profile.head)


def find_w(profile: VoteProfile, alpha: float) -> int:
    """Index where nature's magnitude-raising budget runs out.

    w = min { i : (1/n)(sum_{j<=i} |a_j| + sum_{j>i} (1-2 alpha)|a_j|) >= lam },
    computed through the equivalent rule (2 alpha) sum_{j<=i} |a_j| >= n*budget.
    Only meaningful in the nontrivial regime 0 < alpha < 1/2, where w <= v.
    """
    return _budget_threshold(profile, _require_cost(alpha))[0]


def abstain_value(profile: VoteProfile, alpha: float) -> tuple[float, float, float]:
    """Exact game value and its bracketing bounds, as (exact, lower, upper).

    Trivial regime: all three equal alpha.  alpha >= 1/2: abstention is
    worthless, so the value is (1 - V)/2 with V the plain game value.
    Otherwise nature starts every |z_i| at 1 - 2 alpha (free: the per-example
    payoff stays at alpha), then raises magnitudes to 1 in descending margin
    order, fractionally at w, until the correlation constraint binds; the
    value reads off that construction and must land inside
    [alpha(1 - w/n), alpha(1 - (w-1)/n)].
    """
    alpha = _require_cost(alpha)
    n = profile.n
    if trivial_check(profile, alpha):
        return alpha, alpha, alpha
    if alpha >= 0.5:
        value = (1.0 - game_value(profile)) / 2.0
        return value, value, value

    w, head = _budget_threshold(profile, alpha)
    spent = 2.0 * alpha * head
    remaining = n * _budget(profile, alpha) - spent
    pivot = float(profile.abs_sorted[w - 1])
    raise_w = remaining / pivot
    if raise_w < -SOLVER_TOL or raise_w > 2.0 * alpha + SOLVER_TOL:
        raise AssertionError("fractional magnitude raise escaped [0, 2 alpha]")
    t_w = min(max((1.0 - 2.0 * alpha) + raise_w, 0.0), 1.0)

    value = (0.5 * (1.0 - t_w) + (n - w) * alpha) / n
    lower = alpha * (1.0 - w / n)
    upper = alpha * (1.0 - (w - 1) / n)
    if not (lower - SOLVER_TOL <= value <= upper + SOLVER_TOL):
        raise AssertionError("abstain value escaped its bracketing bounds")
    return value, lower, upper


def closed_form_value(profile: VoteProfile, alpha: float) -> float:
    """Alternate algebraic expression for the nontrivial abstain value.

    alpha(1 - w/n) + (1/(2 n |a_w|)) (n*budget - 2 alpha sum_{j<w} |a_j|).
    Retained for side-by-side reporting: it deviates from the greedy
    construction on generic instances while staying inside the same bounds,
    so it is logged, never asserted.
    """
    alpha = _require_cost(alpha)
    n = profile.n
    w, head = _budget_threshold(profile, alpha)
    pivot = float(profile.abs_sorted[w - 1])
    correction = (n * _budget(profile, alpha) - 2.0 * alpha * head) / (2.0 * n * pivot)
    return alpha * (1.0 - w / n) + correction


def p_alg(profile: VoteProfile, alpha: float) -> AbstainStrategy:
    """Near-optimal abstain probabilities, in original example order.

    For alpha < 1/2: zero on the v most confident examples and
    1 - |a_i|/|a_v| on the rest (one minus the committed prediction
    magnitude); for alpha >= 1/2: identically zero.  Within each regime the
    probabilities do not depend on alpha.
    """
    alpha = _require_cost(alpha)
    if alpha >= 0.5:
        return AbstainStrategy(probs=np.zeros(profile.n), alpha=alpha)
    probs = 1.0 - np.minimum(np.abs(profile.votes) / profile.pivot, 1.0)
    return AbstainStrategy(probs=probs, alpha=alpha)


def abstain_loss(g, strategy: AbstainStrategy, z) -> float:
    """Expected loss (1/n) sum [p_i alpha + (1/2)(1 - p_i)(1 - g_i z_i)]."""
    gv = as_array(g)
    zv = as_array(z)
    probs = strategy.probs
    if not (gv.size == zv.size == probs.size):
        raise DimensionError("predictions, labels, and abstain probabilities differ in length")
    per_example = probs * strategy.alpha + 0.5 * (1.0 - probs) * (1.0 - gv * zv)
    return float(per_example.sum()) / gv.size


def worst_case_loss_formula(profile: VoteProfile, alpha: float) -> float:
    """Stated worst-case loss of the near-optimal strategy.

    (1/2)(1 - v/n) for alpha >= 1/2, and
    alpha(1 - v/n) + (1/2 - alpha)(1/n) sum_{i>v} |a_i|/|a_v| below that.
    """
    alpha = _require_cost(alpha)
    n = profile.n
    v = find_threshold(profile)
    if alpha >= 0.5:
        return 0.5 * (1.0 - v / n)
    tail_ratio = float(profile.abs_sorted[v:].sum()) / profile.pivot
    return alpha * (1.0 - v / n) + (0.5 - alpha) * tail_ratio / n


def benefit_of_abstention(profile: VoteProfile, alpha: float) -> tuple[float, float, float]:
    """Worst-case losses with and without abstention and their difference.

    loss_no_abstain = (1/2)(1 - (v-1)/n) bounds the plain predictor's error;
    loss_abstain = (1/2)(1 - v/n) - (1/n) sum_{i>v} (1/2 - alpha)(1 - |a_i|/|a_v|)
    bounds the abstaining predictor's loss for alpha < 1/2 (the sum term
    drops out at alpha >= 1/2).  The difference is positive for alpha < 1/2.
    """
    alpha = _require_cost(alpha)
    n = profile.n
    v = find_threshold(profile)
    loss_no_abstain = 0.5 * (1.0 - (v - 1) / n)
    loss_abstain = 0.5 * (1.0 - v / n)
    if alpha < 0.5:
        shortfall = float(np.sum(1.0 - profile.abs_sorted[v:] / profile.pivot))
        loss_abstain -= (0.5 - alpha) * shortfall / n
    return loss_no_abstain, loss_abstain, loss_no_abstain - loss_abstain


def inner_game_value(profile: VoteProfile, strategy: AbstainStrategy) -> tuple[int, float]:
    """Value of the prediction game reweighted by commitment 1 - p_i.

    Uses the commitment-adjusted ordering; v2 is the threshold index there.
    Returns (v2, (1/n) sum_{i<v2} (1 - p_i)
                 + ((1 - p_{v2})/|a_{v2}|)(lam - (1/n) sum_{i<v2} |a_i|)),
    all indices in that ordering.
    """
    _, order = ordering2_keys(profile.votes, strategy)
    magnitudes = np.abs(profile.votes)[order]
    commitments = (1.0 - strategy.probs)[order]
    n = profile.n
    # Same margins, same exact sums: the profile's feasibility keeps v2 <= n.
    v2, head = threshold_index(magnitudes, n * profile.lam)
    pivot = float(magnitudes[v2 - 1])
    head_commitment = float(commitments[: v2 - 1].sum())
    value = head_commitment / n + (commitments[v2 - 1] / pivot) * (profile.lam - head / n)
    return v2, float(value)


def solve_abstain(profile: VoteProfile, alpha: float) -> AbstainSolution:
    """Assemble the full abstain-game report for one cost level."""
    alpha = _require_cost(alpha)
    trivial = trivial_check(profile, alpha)
    value_exact, value_lower, value_upper = abstain_value(profile, alpha)
    nontrivial_low_cost = not trivial and alpha < 0.5
    w = find_w(profile, alpha) if nontrivial_low_cost else None
    closed = closed_form_value(profile, alpha) if nontrivial_low_cost else None
    strategy = p_alg(profile, alpha)
    if trivial:
        # The vacuous game is won by abstaining everywhere.
        strategy = AbstainStrategy(probs=np.ones(profile.n), alpha=alpha)
    loss_no_abstain, loss_abstain, _ = benefit_of_abstention(profile, alpha)
    try:
        v2, _ = inner_game_value(profile, strategy)
    except DegenerateAbstain:
        v2 = None
    return AbstainSolution(
        alpha=alpha,
        trivial=trivial,
        w=w,
        budget=_budget(profile, alpha),
        value_exact=value_exact,
        value_lower=value_lower,
        value_upper=value_upper,
        value_closed_form=closed,
        p_alg=strategy,
        loss_formula=worst_case_loss_formula(profile, alpha),
        loss_no_abstain=loss_no_abstain,
        loss_abstain=loss_abstain,
        v2=v2,
    )
