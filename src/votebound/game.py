"""Closed-form solution of the confidence-rated prediction game.

The predictor maximizes, and nature minimizes, the average correlation
(1/n) z.g over the box [-1,1]^n, with nature constrained to keep the votes'
average correlation (1/n) z.a at least lam.  Every closed form below reads
the profile's threshold record (v, the pivot |a_v| and the head sum of the
v - 1 larger margins) and works directly in original example order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    SOLVER_TOL,
    VALIDATION_TOL,
    LabelVector,
    PredictionVector,
    VoteProfile,
    payoff,
)


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

    V = (v-1)/n + (lam - (1/n) sum_{i<v} |a_i|) / |a_v|, which lies in
    [lam, 1] and equals v/n exactly when the margin prefix sum hits n*lam
    at index v.
    """
    n = profile.n
    v = find_threshold(profile)
    value = (v - 1) / n + (profile.lam - profile.head / n) / profile.pivot
    if value > 1.0 + SOLVER_TOL or value < profile.lam - SOLVER_TOL:
        raise AssertionError(f"game value {value} escaped [lam, 1]")
    return min(max(value, profile.lam), 1.0)


def optimal_predictor(profile: VoteProfile) -> PredictionVector:
    """Minimax optimal predictions, in original example order.

    g*_i = clip(a_i / |a_v|, -1, 1): full commitment (the sign of the vote)
    on margins at or above the pivot, the vote scaled by 1/|a_v| below it.
    """
    return PredictionVector(np.clip(profile.votes / profile.pivot, -1.0, 1.0))


def optimal_nature(profile: VoteProfile) -> LabelVector:
    """Nature's optimal labels, in original example order.

    The sign of the vote on the v - 1 largest margins, the fractional value
    that makes the correlation constraint bind exactly on the v-th, and zero
    elsewhere.  Margins tied with the pivot are filled in ascending example
    order; the fractional label goes to the first tied example not filled
    in full.
    """
    n = profile.n
    votes = profile.votes
    magnitudes = np.abs(votes)
    above = magnitudes > profile.pivot
    ties = np.flatnonzero(magnitudes == profile.pivot)
    full = ties[: find_threshold(profile) - 1 - np.count_nonzero(above)]
    at_pivot = ties[full.size]
    z = np.where(above, np.sign(votes), 0.0)
    z[full] = np.sign(votes[full])
    pivot_label = (n * profile.lam - profile.head) / float(votes[at_pivot])
    if abs(pivot_label) > 1.0 + SOLVER_TOL:
        raise AssertionError("fractional label escaped the box")
    z[at_pivot] = min(max(pivot_label, -1.0), 1.0)
    return LabelVector(z)


def value_lower_bound(profile: VoteProfile) -> float:
    """lam + (1/n) sum_{i<v} (1 - |a_i|), never above the game value.

    The gap to the exact value is (1/|a_v| - 1)(lam - (1/n) sum_{i<v} |a_i|),
    so the bound is tight when the top margins are all 1 or the constraint
    binds with no fractional remainder.
    """
    return profile.lam + ((find_threshold(profile) - 1) - profile.head) / profile.n


def solve_game(profile: VoteProfile) -> GameSolution:
    """Assemble the full solution and sanity-check the saddle identities."""
    v = find_threshold(profile)
    value = game_value(profile)
    g_star = optimal_predictor(profile)
    z_star = optimal_nature(profile)
    lower = value_lower_bound(profile)

    binding = payoff(z_star, profile.votes)
    if abs(binding - profile.lam) > SOLVER_TOL:
        raise AssertionError("nature's optimum does not bind the constraint")
    if abs(payoff(g_star, z_star) - value) > SOLVER_TOL:
        raise AssertionError("saddle payoff does not match the game value")
    if lower > value + VALIDATION_TOL:
        raise AssertionError("value lower bound exceeds the value")
    return GameSolution(v=v, value=value, g_star=g_star, z_star=z_star, lower_bound=lower)
