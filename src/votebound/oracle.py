"""Independent brute-force and exact-LP certifiers for the closed forms.

These solvers know nothing about the threshold formulas they certify: the
LP greedy is a generic single-constraint box solver, the candidate
enumeration scans every optimum shape a single-constraint box program
admits, and the grid search is structure-free.  All three take their
vectors through ``_problem``.  The LP has no size cap: one sort and one
cumsum, O(n log n).  The enumeration stops at n = ENUM_MAX_N = 8
and the grid at n = GRID_MAX_N = 4; ``certify_instance`` alone decides which
oracle runs at which size, on solutions it is handed: only ``certify_batch``
calls a solver.  The enumeration reads a per-n table, built once on first use
and read-only: the {-1, 0, 1}^n and {-1, 0, 1}^(n-1) grids, C-contiguous
(the matrix-vector kernel sums another layout in another order), each row's
nonzero count and each coordinate's list of the others.  It handles every
fractional coordinate in one stacked matrix-vector product, which keeps the
bits of one product per coordinate, and solves z_k only on the rows whose
count can still beat the integral optimum (see enumerate_game_value).  The
abstain grid keeps only the levels and partial sums no other beats on both,
found by one sort on gain, which is exact because float addition rounds
monotonically (see grid_abstain_value).
"""

from __future__ import annotations

import functools
import random
from math import fsum, isfinite, ldexp
from typing import Optional

import numpy as np

from .abstain import AbstainSolution, solve_abstain
from .errors import InfeasibleConstraint
from .game import GameSolution, solve_game
from .model import (
    SOLVER_TOL,
    AbstainStrategy,
    VoteProfile,
    _readonly,
    _require_cost,
    _unit_shift,
    _vectors,
    cover_floor,
    sort_profile,
)

ENUM_MAX_N = 8
GRID_MAX_N = 4


def _require_cover(magnitudes: np.ndarray, target: float) -> float:
    """Return ``cover_floor(target)`` once the exact sum of ``magnitudes`` reaches it.

    A non-finite target is bad data, refused with the ``ValueError`` that
    ``_problem`` raises for a non-finite vote; a shortfall raises
    InfeasibleConstraint.  ``fsum`` rounds the exact sum less the floor once,
    which keeps its sign.  The rounded sum of ``magnitudes`` alone can land
    on the floor from below.
    """
    if not isfinite(target):
        raise ValueError("problem data must be finite")
    floor = cover_floor(target)
    terms = magnitudes.tolist()
    terms.append(-floor)
    if not fsum(terms) >= 0.0:
        raise InfeasibleConstraint("no feasible label vector for this bound")
    return floor


def _problem(*vectors) -> list[np.ndarray]:
    """``model._vectors``, with every entry finite: the oracles' one intake."""
    arrays = _vectors(*vectors)
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError("problem data must be finite")
    return arrays


def lp_best_response(costs, coeffs, rhs: float) -> tuple[np.ndarray, float]:
    """Minimize costs . z over z in [-1, 1]^n with coeffs . z >= rhs, by greedy exchange.

    Start from the unconstrained optimum z_i = -sign(c_i), placing zero-cost
    coordinates at sign(a_i) since their constraint progress is free.  If the
    constraint is still violated, move coordinates toward sign(a_i) in
    ascending cost-per-progress c_i*sign(a_i)/|a_i| (ties by index), each by
    its full gain 2|a_i| while the running float sum stays short of the floor,
    and the first that reaches it by the clipped fractional step, taken from
    the exact remainder rhs - a . z.  Exact because the objective and
    constraint are both linear and the box has a single side constraint.
    ``model.cover_floor`` decides when the constraint is met, and the instance
    is feasible when the exact sum of |a_i| reaches that floor, the solvers'
    rule, decided by ``math.fsum`` (``_require_cover``) and not by the
    solvers' integer pass.  ``_problem`` refuses mismatched or non-finite
    vectors, and ``_require_cover`` a non-finite rhs.
    """
    c, a = _problem(costs, coeffs)
    rhs = float(rhs)
    floor = _require_cover(np.abs(a), rhs)

    sign = np.sign(a)
    z = np.where(c > 0, -1.0, np.where(c < 0, 1.0, sign))
    lhs = float(a @ z)
    if lhs < floor:
        # Each movable coordinate sits at -sign(a_i), so a full move gains 2|a_i|.
        movable = np.flatnonzero((a != 0.0) & (z != sign))
        # A subnormal a_i overflows its ratio to inf, which sorts it last, and its step, clipped below.
        with np.errstate(over="ignore"):
            ratio = c[movable] * sign[movable] / np.abs(a[movable])
            order = movable[np.argsort(ratio, kind="stable")]  # ties by index
            # lhs plus the gains, added one at a time in that order: the first k stay short.
            sums = np.cumsum(np.concatenate(([lhs], 2.0 * np.abs(a[order]))))
            k = int(np.searchsorted(sums[1:], floor))
            z[order[:k]] = sign[order[:k]]
            if k < order.size:
                i = order[k]
                # Each z_j is now -1, 0 or 1, so a_j z_j is exact: the remainder rounds once.
                step = min(fsum(np.append(-a * z, rhs)) / abs(a[i]), 2.0)
                z[i] += sign[i] * max(step, 0.0)
    return z, float(c @ z)


@functools.cache
def _ternary_grid(n: int) -> np.ndarray:
    """{-1, 0, 1}^n in ``itertools.product`` order, C-contiguous and read-only.

    C order matters: the gemv kernel sums an F-ordered grid's rows in another order.
    """
    digits = np.indices((3,) * n).reshape(n, 3**n).T
    return _readonly(np.ascontiguousarray(digits - 1.0))


@functools.cache
def _enumeration_table(n: int) -> tuple[np.ndarray, ...]:
    """The enumeration's read-only arrays for one n, built on first use.

    The {-1, 0, 1}^n grid and the nonzero count of each of its rows, the
    {-1, 0, 1}^(n-1) grid and its row counts, and an (n, n-1) index array
    whose row k lists the coordinates other than k.
    """
    grid, sub = _ternary_grid(n), _ternary_grid(n - 1)
    rest = np.array([[j for j in range(n) if j != k] for k in range(n)], dtype=np.intp)
    rest.setflags(write=False)
    return grid, _readonly(np.abs(grid).sum(axis=1)), sub, _readonly(np.abs(sub).sum(axis=1)), rest


def enumerate_game_value(votes, lam: float) -> float:
    """Brute-force dual value: minimize (1/n) sum |z_i| over the polytope.

    Candidate optima have at most one fractional coordinate, so scan every
    assignment in {-1, 0, 1}^n plus, for every candidate fractional
    coordinate k, every {-1, 0, 1} assignment of the rest with z_k solved
    from the binding constraint.  The grids, their row counts and each k's
    other coordinates come from the per-n ``_enumeration_table``.  All k run
    in one stacked product, sub @ a[rest[k]] for each k: numpy runs the same
    matrix-vector product on each slab, so each slab has the bits of the
    per-k product ``sub @ np.delete(a, k)``.  A 2-D ``sub @ a[rest].T`` would
    not: it is a matrix-matrix product, which rounds its sums differently.
    z_k is solved only on the rows whose count is below the integral optimum.
    """
    (a,) = _problem(votes)
    n = a.size
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration oracle is capped at n = {ENUM_MAX_N}")
    target = n * lam
    floor = _require_cover(np.abs(a), target)

    grid, counts, sub, sub_counts, rest = _enumeration_table(n)
    # z = sign(a) is feasible by the exact-sum rule even where its float dot falls short.
    best = counts.min(initial=np.count_nonzero(a), where=grid @ a >= floor)

    moved = np.flatnonzero(a)
    pivots = a[moved, None]
    products = np.matmul(sub, a[rest[moved]][:, :, None])[:, :, 0]
    # A row's total is at least its count, so a row whose count reaches best cannot beat it.
    open_rows = sub_counts < best
    with np.errstate(over="ignore"):  # a subnormal a_k: the cover test drops the inf
        z = (target - products[:, open_rows]) / pivots
    # Clipped to the box, z_k misses the target by (|z_k| - 1)|a_k|; the floor allows that much.
    inside = (np.abs(z) - 1.0) * np.abs(pivots) <= target - floor
    totals = sub_counts[open_rows] + np.minimum(np.abs(z), 1.0)
    return float(totals.min(initial=best, where=inside)) / n


def _pareto_frontier(gain: np.ndarray, pay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs no other pair matches or beats on both, by ascending gain.

    One sort by descending gain (ties in any order), each distinct gain's best
    pay, then a gain is kept where that pay beats every pay at a larger gain.
    Equal gains share their bits: no gain is -0.0.
    """
    order = np.argsort(-gain)
    gain, pay = gain[order], pay[order]
    starts = np.flatnonzero(np.concatenate(([True], gain[1:] != gain[:-1])))
    gain, pay = gain[starts], np.maximum.reduceat(pay, starts)
    keep = pay > np.maximum.accumulate(np.concatenate(([-np.inf], pay[:-1])))
    return gain[keep][::-1], pay[keep][::-1]


def grid_abstain_value(votes, lam: float, alpha: float, step: float) -> float:
    """Structure-free grid maximization of (1/n) sum min(alpha, (1-t_i)/2).

    Magnitudes t_i range over {0, step, ..., 1} subject to
    (1/n) sum t_i |a_i| >= lam; signs are fixed to sign(a_i), which loses
    nothing because the objective depends only on |z_i| and matching signs
    loosens the constraint the most.  Accurate to n*step/2, for a step in
    (0, 0.1], by the objective's 1/2-Lipschitz dependence on each coordinate.
    The tail over the other coordinates keeps only the (gain, pay) levels of
    each coordinate, and the (gain, pay) sums, that no other matches or beats
    on both: exact, as each kept sum is the float a full scan forms and float
    addition rounds monotonically, so a sum that uses a beaten level or a
    beaten partial sum is beaten or tied by the sum that uses the better one.
    """
    _require_cost(alpha)
    a = np.abs(_problem(votes)[0])
    n = a.size
    if n > GRID_MAX_N:
        raise ValueError(f"grid oracle is capped at n = {GRID_MAX_N}")
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    target = n * lam
    _require_cover(a, target)
    # An exact shift up by a power of two puts the largest margin in [0.5, 1],
    # so the gains of subnormal margins round relatively (2.0**-e overflows).
    shift = _unit_shift(a.max(initial=0.0))
    a, target = np.ldexp(a, shift), ldexp(target, shift)

    levels = np.arange(0.0, 1.0 + step / 2.0, step)
    levels[-1] = min(levels[-1], 1.0)
    if levels[-1] < 1.0:
        levels = np.append(levels, 1.0)
    payoffs = np.minimum(alpha, 0.5 * (1.0 - levels))

    active = np.nonzero(a > 0.0)[0]
    # Zero-margin coordinates never move the constraint; their payoff is
    # maximized at t = 0.
    base = (n - active.size) * min(alpha, 0.5)
    if active.size == 0:
        raise InfeasibleConstraint("no feasible label vector for this bound")

    tail_gain = tail_pay = np.zeros(1)
    for i in active[1:]:
        gain, pay = _pareto_frontier(levels * a[i], payoffs)
        sums = (tail_gain[:, None] + gain).ravel(), (tail_pay[:, None] + pay).ravel()
        tail_gain, tail_pay = _pareto_frontier(*sums)
    # Pay falls as gain rises: each first-coordinate level's best tail is the first that meets it.
    first = np.searchsorted(tail_gain, cover_floor(target) - levels * a[active[0]])
    # Every t_i = 1 is feasible by the exact-sum rule even where its float sum falls short.
    first[-1] = min(first[-1], tail_gain.size - 1)
    met = first < tail_gain.size
    best = (payoffs[met] + tail_pay[first[met]]).max()
    return float(best + base) / n


def worst_case_abstain_loss(profile: VoteProfile, g, strategy: AbstainStrategy) -> float:
    """The loss of a fixed (g, p) against nature's exact best response.

    The loss is affine in z through -(1/2n) sum (1 - p_i) g_i z_i, so
    maximizing it is the box LP that minimizes that sum.  The cost is the
    strategy's own ``alpha``.
    """
    gv, probs = _vectors(g, strategy.probs)
    n = profile.n
    _, objective = lp_best_response((1.0 - probs) * gv, profile.votes, n * profile.lam)
    return 0.5 + float(probs.sum()) * (strategy.alpha - 0.5) / n - objective / (2.0 * n)


def random_instances(count: int, seed: int, nmax: int):
    """Seeded random feasible instances: (votes, lam, alpha) triples.

    Every draw is one ``u = rng.random()`` of ``rng = random.Random(seed)``,
    whose sequence Python keeps across versions, so a seed gives the same
    instances on any Python and any numpy.  In order: n = 1 + int(u * nmax),
    uniform on {1, ..., nmax}; n votes 2u - 1, uniform on [-1, 1);
    lam = m * (0.1 + 0.9u), uniform on [0.1m, m) where m is the mean |vote|
    (``fsum`` of the magnitudes over n); alpha = 0.05 + 0.4u, uniform on
    [0.05, 0.45).
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = 1 + int(rng.random() * nmax)
        votes = [2.0 * rng.random() - 1.0 for _ in range(n)]
        mean_abs = fsum(map(abs, votes)) / n
        lam = mean_abs * (0.1 + 0.9 * rng.random())
        alpha = 0.05 + 0.4 * rng.random()
        yield np.array(votes), lam, alpha


def certify_instance(
    profile: VoteProfile,
    game: GameSolution,
    abstain: Optional[AbstainSolution] = None,
    grid_step: Optional[float] = None,
) -> tuple[dict, dict, float]:
    """Check ``game`` and ``abstain``, solved on ``profile``, against the oracles that reach n.

    Runs no solver.  Each oracle reads the profile's own votes, clipped to
    [-1, 1], and lam.  The saddle best responses run at every n, the game
    value's enumeration at n <= ENUM_MAX_N and, with ``abstain``, the abstain
    grid at ``abstain.alpha`` and n <= GRID_MAX_N, with step ``grid_step``,
    else 0.005 up to n = 3 and 0.02 at n = 4.  Returns ``(report, deviations,
    grid_excess)``: what ``verify --votes`` prints, its keys set by ``abstain``
    alone (an oracle that did not run reports None); each closed-form deviation
    by check name; and the grid's excess over its n*step/2 accuracy, -inf when
    no grid ran.  ``ok`` requires these, and the exact abstain value's distance
    outside its bracket, to stay within SOLVER_TOL, z* to meet the correlation
    constraint (the ``fsum`` of votes * z* reaches ``cover_floor(n*lam)``; the
    predictor's best response reads only mean |z*|, which no permutation of z*
    changes), and the game's lower bound to stay within a relative SOLVER_TOL of the value.
    """
    votes, lam, n = profile.votes, profile.lam, profile.n
    enumerated = enumerate_game_value(votes, lam) if n <= ENUM_MAX_N else None
    deviations = {}
    if enumerated is not None:
        deviations["value_vs_enumeration"] = abs(game.value - enumerated)
    # Nature's exact LP best response to g_star, and the predictor's to z_star, must pay the value.
    _, objective = lp_best_response(game.g_star.values, votes, n * lam)
    saddle = {
        "nature_best_response": objective / n,
        "predictor_best_response": float(np.abs(game.z_star.values).sum()) / n,
    }
    deviations["saddle"] = max(abs(side - game.value) for side in saddle.values())
    feasible = fsum(votes * game.z_star.values) >= cover_floor(n * lam)
    consistent = game.lower_bound <= game.value * (1.0 + SOLVER_TOL)
    bracket = {}
    grid_excess = -np.inf
    if abstain is not None:
        exact, lower, upper = abstain.value_exact, abstain.value_lower, abstain.value_upper
        bracket = {"abstain_value_exact": exact, "abstain_value_bounds": [lower, upper]}
        consistent &= lower - SOLVER_TOL <= exact <= upper + SOLVER_TOL
        bracket["abstain_grid_value"] = None
        if n <= GRID_MAX_N:
            step = (0.005 if n <= 3 else 0.02) if grid_step is None else grid_step
            bracket["abstain_grid_value"] = grid_abstain_value(votes, lam, abstain.alpha, step)
            grid_excess = abs(bracket["abstain_grid_value"] - exact) - n * step / 2.0
    max_deviation = max(deviations.values())
    ok = feasible and consistent and max_deviation <= SOLVER_TOL and grid_excess <= SOLVER_TOL
    report = {
        "closed_form_value": game.value,
        "oracle_value": enumerated,
        "saddle": saddle,
        "max_deviation": max_deviation,
        **bracket,
        "ok": bool(ok),
    }
    return report, deviations, grid_excess


def certify_batch(count: int, seed: int, nmax: int) -> dict:
    """Solve seeded random instances once each and check them with ``certify_instance``.

    Returns an aggregate summary with the worst instance observed.
    """
    max_closed_dev = 0.0
    max_grid_excess = -np.inf
    worst: Optional[dict] = None
    grid_checked = 0
    ok = True
    for votes, lam, alpha in random_instances(count, seed, nmax):
        profile = sort_profile(votes, lam)
        game, abstain = solve_game(profile), solve_abstain(profile, alpha)
        check, deviations, grid_excess = certify_instance(profile, game, abstain, grid_step=0.02)
        ok &= check["ok"]
        grid_checked += check["abstain_grid_value"] is not None
        max_grid_excess = max(max_grid_excess, grid_excess)
        if check["max_deviation"] > max_closed_dev:
            max_closed_dev = check["max_deviation"]
            worst = {
                "votes": votes.tolist(),
                "lam": lam,
                "alpha": alpha,
                "deviations": deviations,
            }
    return {
        "instances_checked": count,
        "seed": seed,
        "nmax": nmax,
        "max_deviation": max_closed_dev,
        "grid_instances_checked": grid_checked,
        "max_grid_excess": max_grid_excess if grid_checked else None,
        "worst_instance": worst,
        "ok": ok,
    }
