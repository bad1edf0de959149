"""Closed-form solution of the confidence-rated prediction game.

The predictor maximizes, and nature minimizes, the average correlation
(1/n) z.g over the box [-1,1]^n, with nature constrained to keep the votes'
average correlation (1/n) z.a at least lam.  Every closed form below reads
the profile's threshold record (v, the pivot |a_v|, the head sum of the
v - 1 larger margins and the fraction f of the pivot nature takes) and works
directly in original example order.  f is the only non-integer in the
solution, and ``model.threshold_index`` keeps it in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SOLVER_TOL, LabelVector, PredictionVector, VoteProfile, _Owned, payoff


@dataclass(frozen=True)
class GameSolution:
    """Threshold index, game value, optimal strategies, and the value bound.

    ``v`` counts the top margins up to the threshold; ``g_star`` and
    ``z_star`` are in original example order.
    """

    v: int
    value: float
    lower_bound: float
    g_star: PredictionVector
    z_star: LabelVector


def find_threshold(profile: VoteProfile) -> int:
    """Smallest count v of top-margin examples whose margins cover the bound.

    v = min { i : (1/n) * sum_{j<=i} |a_j| >= lam } over margins in
    nonincreasing order, decided exactly when the profile is built.
    Feasibility of the profile guarantees 1 <= v <= n and |a_v| > 0.
    """
    return profile.v


def game_value(profile: VoteProfile) -> float:
    """Minimax value of the game.

    V = (v - 1 + f)/n with f = (n*lam - sum_{i<v} |a_i|) / |a_v|, which lies
    in [lam, 1] and equals v/n exactly when the margin prefix sum hits n*lam
    at index v.
    """
    return (find_threshold(profile) - 1 + profile.fraction) / profile.n


def solve_game(profile: VoteProfile) -> GameSolution:
    """The threshold, the value, both optimal strategies and the value bound.

    - g*_i = clip(a_i / |a_v|, -1, 1): the sign of the vote on margins at or
      above the pivot, the vote scaled by 1/|a_v| below it.
    - z* is the sign of the vote on the v - 1 largest margins, that sign
      times f on the v-th (so the correlation constraint binds), and zero
      elsewhere.  Margins tied with the pivot are filled in ascending example
      order; the fractional label goes to the first tie not filled in full.
    - The lower bound lam + (1/n) sum_{i<v} (1 - |a_i|) is never above the
      value.  Its gap is (1/|a_v| - 1)(lam - (1/n) sum_{i<v} |a_i|), so it is
      tight when the top margins are all 1 or the constraint binds with no
      fractional remainder.

    z* is g* truncated toward zero (below the pivot |g*_i| <= 1 - 2^-53),
    with ``+= 0.0`` for the -0.0 there; the ties past the v - 1 full labels
    are zeroed and the first takes sign times f.  Ties are found before g* and
    z* exist, so the solve holds two n-vectors at its peak.  The saddle checks
    are relative to lam and to the value: each payoff sums nonnegative
    products, so its rounding is a small share of its size.
    """
    v, value = find_threshold(profile), game_value(profile)
    votes, pivot = profile.votes, profile.pivot
    ties = np.flatnonzero((votes == pivot) | (votes == -pivot))
    g = np.divide(votes, pivot)
    g_star = PredictionVector(_Owned(np.clip(g, -1.0, 1.0, out=g)))
    z = np.trunc(g)
    z += 0.0
    # The margins at or above the pivot, where z* is +-1, counted on the ascending view.
    above = profile.n - int(np.searchsorted(profile.abs_sorted[::-1], pivot))
    rest = ties[v - 1 - (above - ties.size) :]
    z[rest] = 0.0
    z[rest[0]] = np.sign(votes[rest[0]]) * profile.fraction
    z_star = LabelVector(_Owned(z))
    lower = profile.lam + ((v - 1) - profile.head) / profile.n

    if abs(payoff(z_star, votes) - profile.lam) > SOLVER_TOL * profile.lam:
        raise AssertionError("nature's optimum does not bind the constraint")
    if abs(payoff(g_star, z_star) - value) > SOLVER_TOL * value:
        raise AssertionError("saddle payoff does not match the game value")
    if lower > value * (1.0 + SOLVER_TOL):
        raise AssertionError("value lower bound exceeds the value")
    return GameSolution(v=v, value=value, g_star=g_star, z_star=z_star, lower_bound=lower)
