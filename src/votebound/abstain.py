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

from .errors import DimensionError, InvalidCost
from .game import find_threshold, game_value
from .model import (
    SOLVER_TOL,
    VALIDATION_TOL,
    AbstainStrategy,
    VoteProfile,
    as_array,
    threshold_index,
)


@dataclass(frozen=True)
class AbstainSolution:
    """Everything the abstain solver knows about one (profile, alpha) instance.

    ``w`` and ``value_closed_form`` are populated only in the nontrivial
    alpha < 1/2 regime, where the closed form is a second, algebraic route
    to ``value_exact``, held to it within SOLVER_TOL plus its rounding.
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


@dataclass(frozen=True)
class _Regime:
    """What every abstain closed form reads, found once per (profile, alpha).

    ``w`` is set only in the nontrivial alpha < 1/2 regime, with ``head``,
    the exact sum of the w - 1 largest margins, and ``pivot_w`` = |a_w|.
    """

    alpha: float
    trivial: bool
    budget: float
    w: Optional[int] = None
    head: float = 0.0
    pivot_w: float = 0.0


def _require_cost(alpha: float) -> float:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidCost("abstain cost must be positive and finite")
    return float(alpha)


def trivial_check(profile: VoteProfile, alpha: float) -> bool:
    """True when always abstaining is already optimal for the predictor.

    Inclusive comparison: alpha <= (1/2)(1 - n*lam / sum |a_i|).
    """
    alpha = _require_cost(alpha)
    return alpha <= 0.5 * (1.0 - profile.n * profile.lam / profile.total) + VALIDATION_TOL


def _regime(profile: VoteProfile, alpha: float) -> _Regime:
    """The trivial test, nature's budget and, below alpha = 1/2, w; see ``find_w``.

    The budget lam - ((1 - 2 alpha)/n) sum |a_i| is the constraint deficit
    nature must cover once every |z_i| starts at 1 - 2 alpha.
    """
    alpha = _require_cost(alpha)
    budget = profile.lam - (1.0 - 2.0 * alpha) * profile.total / profile.n
    trivial = trivial_check(profile, alpha)
    if trivial or alpha >= 0.5:
        return _Regime(alpha, trivial, budget)
    v = find_threshold(profile)
    w, head = threshold_index(profile.abs_sorted[:v], profile.n * budget, 2.0 * alpha)
    # w <= v holds exactly.  A rounded target past the v-th prefix sum lies
    # within rounding of it, above the (v-1)-th, so w = v.
    if w > v:
        w, head = v, profile.head
    return _Regime(alpha, False, budget, w, head, float(profile.abs_sorted[w - 1]))


def find_w(profile: VoteProfile, alpha: float) -> int:
    """Index where nature's magnitude-raising budget runs out.

    w = min { i : (1/n)(sum_{j<=i} |a_j| + sum_{j>i} (1-2 alpha)|a_j|) >= lam },
    computed through the equivalent rule (2 alpha) sum_{j<=i} |a_j| >= n*budget.
    Only defined in the nontrivial regime 0 < alpha < 1/2, where w <= v.
    """
    w = _regime(profile, alpha).w
    if w is None:
        raise ValueError("w is defined only in the nontrivial regime alpha < 1/2")
    return w


def _value(profile: VoteProfile, regime: _Regime) -> tuple[float, float, float]:
    alpha, n, w = regime.alpha, profile.n, regime.w
    if regime.trivial:
        return alpha, alpha, alpha
    if w is None:
        value = (1.0 - game_value(profile)) / 2.0
        return value, value, value
    remaining = n * regime.budget - 2.0 * alpha * regime.head
    raise_w = remaining / regime.pivot_w
    if raise_w < -SOLVER_TOL or raise_w > 2.0 * alpha + SOLVER_TOL:
        raise AssertionError("fractional magnitude raise escaped [0, 2 alpha]")
    t_w = min(max((1.0 - 2.0 * alpha) + raise_w, 0.0), 1.0)

    value = (0.5 * (1.0 - t_w) + (n - w) * alpha) / n
    lower = alpha * (1.0 - w / n)
    upper = alpha * (1.0 - (w - 1) / n)
    if not (lower - SOLVER_TOL <= value <= upper + SOLVER_TOL):
        raise AssertionError("abstain value escaped its bracketing bounds")
    return value, lower, upper


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
    return _value(profile, _regime(profile, alpha))


def _closed_form(profile: VoteProfile, regime: _Regime) -> float:
    n, alpha, pivot = profile.n, regime.alpha, regime.pivot_w
    surplus = 2.0 * alpha * (regime.head + pivot) - n * regime.budget
    return alpha * (1.0 - regime.w / n) + surplus / (2.0 * n * pivot)


def closed_form_value(profile: VoteProfile, alpha: float) -> float:
    """Algebraic expression for the nontrivial abstain value.

    alpha(1 - w/n) + (2 alpha S_w - n*budget) / (2 n |a_w|), where S_w is the
    sum of the w largest margins: the greedy construction of
    ``abstain_value`` solved for its value in one line.
    """
    regime = _regime(profile, alpha)
    if regime.w is None:
        raise ValueError("the closed form is defined only in the nontrivial regime alpha < 1/2")
    return _closed_form(profile, regime)


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


def solve_abstain(profile: VoteProfile, alpha: float) -> AbstainSolution:
    """Assemble the full abstain-game report for one cost level.

    ``loss_no_abstain`` = (1/2)(1 - (v-1)/n) bounds the plain predictor's error.
    """
    regime = _regime(profile, alpha)
    alpha = regime.alpha
    value_exact, value_lower, value_upper = _value(profile, regime)
    closed = None
    if regime.w is not None:
        closed = _closed_form(profile, regime)
        # The routes round differently, by a few ulps of terms of size
        # (n |budget| + 2 alpha S_w) / (2 n |a_w|): beyond SOLVER_TOL only when |a_w| is tiny.
        n, pivot = profile.n, regime.pivot_w
        terms = (n * abs(regime.budget) + 2.0 * alpha * (regime.head + pivot)) / (2.0 * n * pivot)
        if abs(closed - value_exact) > SOLVER_TOL + 4.0 * np.finfo(float).eps * terms:
            raise AssertionError("closed-form abstain value differs from the greedy value")
    if regime.trivial:
        # The vacuous game is won by abstaining everywhere.
        strategy = AbstainStrategy(probs=np.ones(profile.n), alpha=alpha)
    else:
        strategy = p_alg(profile, alpha)
    return AbstainSolution(
        alpha=alpha,
        trivial=regime.trivial,
        w=regime.w,
        budget=regime.budget,
        value_exact=value_exact,
        value_lower=value_lower,
        value_upper=value_upper,
        value_closed_form=closed,
        p_alg=strategy,
        loss_formula=worst_case_loss_formula(profile, alpha),
        loss_no_abstain=0.5 * (1.0 - (find_threshold(profile) - 1) / profile.n),
    )
