"""Independent brute-force and exact-LP certifiers for the closed forms.

These solvers know nothing about the threshold formulas they certify: the
LP greedy is a generic single-constraint box solver, the candidate
enumeration scans every optimum shape a single-constraint box program
admits, the sequential greedy builds nature's optimum one pick at a time,
and the grid search is structure-free.  Desk scale only: n <= ENUM_MAX_N = 8,
grids n <= GRID_MAX_N = 4.  Each {-1, 0, 1}^n grid is built once, read-only;
the abstain grid keeps only the partial sums no other beats on both, which is
exact because float addition rounds monotonically (see grid_abstain_value).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import fsum
from typing import Optional

import numpy as np

from .abstain import abstain_value, trivial_check
from .errors import Infeasible, InvalidCost
from .game import GameSolution, solve_game
from .model import (
    SOLVER_TOL,
    VALIDATION_TOL,
    AbstainStrategy,
    LabelVector,
    VoteProfile,
    _readonly,
    as_array,
    sort_profile,
)

ENUM_MAX_N = 8
GRID_MAX_N = 4


@dataclass(frozen=True)
class BoxLpProblem:
    """minimize costs . z  over z in [-1, 1]^n  with coeffs . z >= rhs."""

    costs: np.ndarray
    constraint_coeffs: np.ndarray
    constraint_rhs: float

    def __post_init__(self):
        costs = as_array(self.costs)
        coeffs = as_array(self.constraint_coeffs)
        if costs.size != coeffs.size or costs.size < 1:
            raise ValueError("costs and constraint coefficients must match and be non-empty")
        if not (np.all(np.isfinite(costs)) and np.all(np.isfinite(coeffs))):
            raise ValueError("problem data must be finite")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "constraint_coeffs", coeffs)
        object.__setattr__(self, "constraint_rhs", float(self.constraint_rhs))


@dataclass(frozen=True)
class CertificationReport:
    """Closed form vs oracle, with the raw deviation always recorded."""

    closed_form_value: float
    oracle_value: float
    max_deviation: float
    details: dict = field(default_factory=dict)


def lp_best_response(problem: BoxLpProblem) -> tuple[np.ndarray, float]:
    """Exact optimum of a single-constraint box LP by greedy exchange.

    Start from the unconstrained optimum z_i = -sign(c_i), placing zero-cost
    coordinates at sign(a_i) since their constraint progress is free.  If the
    constraint is still violated, move coordinates toward sign(a_i) in
    ascending cost-per-progress c_i*sign(a_i)/|a_i| with a fractional final
    step.  Exact because the objective and constraint are both linear and the
    box has a single side constraint.
    """
    c = problem.costs
    a = problem.constraint_coeffs
    rhs = problem.constraint_rhs
    best_possible = float(np.abs(a).sum())
    if best_possible < rhs - VALIDATION_TOL:
        raise Infeasible("constraint unreachable even at z = sign(coeffs)")

    z = np.where(c > 0, -1.0, np.where(c < 0, 1.0, np.sign(a)))
    lhs = float(a @ z)
    if lhs < rhs - VALIDATION_TOL:
        movable = [i for i in range(c.size) if a[i] != 0.0 and z[i] != np.sign(a[i])]
        movable.sort(key=lambda i: (c[i] * np.sign(a[i]) / abs(a[i]), i))
        for i in movable:
            gain_full = abs(a[i]) * abs(np.sign(a[i]) - z[i])
            if lhs + gain_full < rhs - VALIDATION_TOL:
                lhs += gain_full
                z[i] = np.sign(a[i])
                continue
            step = min((rhs - lhs) / abs(a[i]), abs(np.sign(a[i]) - z[i]))
            z[i] += np.sign(a[i]) * max(step, 0.0)
            lhs = rhs
            break
    return z, float(c @ z)


def nature_greedy(profile: VoteProfile) -> LabelVector:
    """Nature's optimum built by the literal sequential greedy procedure.

    Repeatedly pick the unused example with the largest margin (ties by
    ascending original index), fill it with the sign of its vote while the
    selected margins still fall short of n*lam, and finish with the
    fractional fill that makes the constraint bind.  O(n^2); the reference
    ``game.optimal_nature`` is checked against, under the same tie-break.
    """
    votes = profile.votes
    n = profile.n
    target = n * profile.lam
    z = np.zeros(n)
    chosen: list[int] = []
    remaining = set(range(n))
    while True:
        pick = max(remaining, key=lambda j: (abs(votes[j]), -j))
        remaining.discard(pick)
        chosen.append(pick)
        selected_sum = fsum(abs(votes[j]) for j in chosen)
        if selected_sum < target - VALIDATION_TOL:
            z[pick] = np.sign(votes[pick])
            continue
        fill = np.sign(votes[pick]) - (selected_sum - target) / votes[pick]
        z[pick] = min(max(fill, -1.0), 1.0)
        return LabelVector(z)


@functools.cache
def _ternary_grid(n: int) -> np.ndarray:
    return _readonly(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))


def enumerate_game_value(votes, lam: float) -> float:
    """Brute-force dual value: minimize (1/n) sum |z_i| over the polytope.

    Candidate optima have at most one fractional coordinate, so scan every
    assignment in {-1, 0, 1}^n plus, for every candidate fractional
    coordinate, every {-1, 0, 1} assignment of the rest with that coordinate
    solved from the binding constraint.
    """
    a = as_array(votes)
    n = a.size
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration oracle is capped at n = {ENUM_MAX_N}")
    target = n * lam
    if float(np.abs(a).sum()) < target - VALIDATION_TOL:
        raise Infeasible("no feasible label vector for this bound")

    grid = _ternary_grid(n)
    feasible = grid @ a >= target - VALIDATION_TOL
    best = float(np.abs(grid[feasible]).sum(axis=1).min()) if feasible.any() else np.inf

    sub = _ternary_grid(n - 1)
    for k in range(n):
        if a[k] == 0.0:
            continue
        with np.errstate(over="ignore"):  # a subnormal a_k: the box test drops the inf
            z_k = (target - sub @ np.delete(a, k)) / a[k]
        inside = np.abs(z_k) <= 1.0 + VALIDATION_TOL
        if inside.any():
            totals = np.abs(sub[inside]).sum(axis=1) + np.minimum(np.abs(z_k[inside]), 1.0)
            best = min(best, float(totals.min()))
    if not np.isfinite(best):
        raise Infeasible("no feasible candidate found")
    return best / n


def _default_grid_step(n: int) -> float:
    return 0.005 if n <= 3 else 0.02


def _pareto_frontier(gain: np.ndarray, pay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs no other pair matches or beats on both, by ascending gain."""
    order = np.lexsort((-pay, -gain))
    gain, pay = gain[order], pay[order]
    keep = pay > np.maximum.accumulate(np.concatenate(([-np.inf], pay[:-1])))
    return gain[keep][::-1], pay[keep][::-1]


def grid_abstain_value(votes, lam: float, alpha: float, step: Optional[float] = None) -> float:
    """Structure-free grid maximization of (1/n) sum min(alpha, (1-t_i)/2).

    Magnitudes t_i range over {0, step, ..., 1} subject to
    (1/n) sum t_i |a_i| >= lam; signs are fixed to sign(a_i), which loses
    nothing because the objective depends only on |z_i| and matching signs
    loosens the constraint the most.  Accurate to n*step/2 by the
    objective's 1/2-Lipschitz dependence on each coordinate.  The tail over
    the other coordinates keeps only the (gain, pay) sums no other sum matches
    or beats on both: exact, as each kept sum is the float a full scan forms
    and float addition rounds monotonically, so a beaten sum stays beaten.
    """
    if not alpha > 0:
        raise InvalidCost("abstain cost must be positive")
    a = np.abs(as_array(votes))
    n = a.size
    if n > GRID_MAX_N:
        raise ValueError(f"grid oracle is capped at n = {GRID_MAX_N}")
    if step is None:
        step = _default_grid_step(n)
    if not 0.0 < step <= 0.1:
        raise ValueError("step must lie in (0, 0.1]")
    target = n * lam
    if float(a.sum()) < target - VALIDATION_TOL:
        raise Infeasible("no feasible label vector for this bound")

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
        raise Infeasible("no feasible label vector for this bound")

    gains = [levels * a[i] for i in active]
    tail_gain = tail_pay = np.zeros(1)
    for g in gains[1:]:
        sums = (tail_gain[:, None] + g).ravel(), (tail_pay[:, None] + payoffs).ravel()
        tail_gain, tail_pay = _pareto_frontier(*sums)
    # Pay falls as gain rises: each first-coordinate level's best tail is the first that meets it.
    first = np.searchsorted(tail_gain, target - gains[0] - VALIDATION_TOL)
    met = first < tail_gain.size
    if not met.any():
        raise Infeasible("grid found no feasible assignment")
    best = (payoffs[met] + tail_pay[first[met]]).max()
    return (best + base) / n


def certify_saddle(profile: VoteProfile, solution: GameSolution) -> CertificationReport:
    """Check both best responses against the claimed value; never raises.

    Nature's exact LP best response to g_star must pay exactly the value,
    and the predictor's best response to z_star (componentwise signs) must
    recover it as the mean |z_star|.
    """
    n = profile.n
    target = n * profile.lam
    _, objective = lp_best_response(
        BoxLpProblem(
            costs=solution.g_star.values,
            constraint_coeffs=profile.votes,
            constraint_rhs=target,
        )
    )
    nature_side = objective / n
    predictor_side = float(np.abs(solution.z_star.values).mean())
    deviation = max(abs(nature_side - solution.value), abs(predictor_side - solution.value))
    return CertificationReport(
        closed_form_value=solution.value,
        oracle_value=nature_side,
        max_deviation=deviation,
        details={
            "nature_best_response": nature_side,
            "predictor_best_response": predictor_side,
        },
    )


def worst_case_abstain_loss(
    profile: VoteProfile, g, strategy: AbstainStrategy, alpha: float
) -> tuple[LabelVector, float]:
    """Nature's exact best response to a fixed (g, p) in the abstain game.

    The loss is affine in z through -(1/2n) sum (1 - p_i) g_i z_i, so
    maximizing it is the box LP that minimizes that sum.
    """
    if not alpha > 0:
        raise InvalidCost("abstain cost must be positive")
    gv = as_array(g)
    probs = strategy.probs
    commit_costs = (1.0 - probs) * gv
    z, objective = lp_best_response(
        BoxLpProblem(
            costs=commit_costs,
            constraint_coeffs=profile.votes,
            constraint_rhs=profile.n * profile.lam,
        )
    )
    n = profile.n
    loss = 0.5 + float(probs.sum()) * (alpha - 0.5) / n - objective / (2.0 * n)
    return LabelVector(z), loss


def random_instances(count: int, seed: int, nmax: int):
    """Seeded random feasible instances: (votes, lam, alpha) triples.

    Votes are uniform on [-1, 1], lam is uniform on
    (0.1 * mean|votes|, mean|votes|], alpha is uniform on (0.05, 0.45).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, nmax + 1))
        votes = rng.uniform(-1.0, 1.0, n)
        mean_abs = float(np.abs(votes).mean())
        lam = float(rng.uniform(0.1 * mean_abs, mean_abs))
        alpha = float(rng.uniform(0.05, 0.45))
        yield votes, lam, alpha


def certify_instance(
    votes, lam: float, alpha: Optional[float] = None, grid_step: Optional[float] = None
) -> dict:
    """Certify one instance against every oracle that reaches its size.

    The game value against enumeration and both saddle best responses; with
    ``alpha``, the abstain value against its bracketing bounds (exactly alpha
    when trivial) and, for n <= GRID_MAX_N, against the structure-free grid
    beyond its n*step/2 accuracy (``grid_excess``, -inf when no grid ran).
    ``deviations`` holds every closed-form deviation by check name; ``ok``
    requires all of them and the grid excess to stay within SOLVER_TOL.
    """
    profile = sort_profile(votes, lam)
    solution = solve_game(profile)
    enumerated = enumerate_game_value(votes, lam)
    saddle = certify_saddle(profile, solution)
    deviations = {
        "value_vs_enumeration": abs(solution.value - enumerated),
        "saddle": saddle.max_deviation,
    }
    abstain = {}
    grid_excess = -np.inf
    if alpha is not None:
        exact, lower, upper = abstain_value(profile, alpha)
        abstain = {"abstain_value_exact": exact, "abstain_value_bounds": [lower, upper]}
        if trivial_check(profile, alpha):
            deviations["abstain_trivial"] = abs(exact - alpha)
        else:
            deviations["abstain_bounds"] = max(lower - exact, exact - upper, 0.0)
        if profile.n <= GRID_MAX_N:
            step = _default_grid_step(profile.n) if grid_step is None else grid_step
            abstain["abstain_grid_value"] = grid_abstain_value(votes, lam, alpha, step=step)
            grid_excess = abs(abstain["abstain_grid_value"] - exact) - profile.n * step / 2.0
    max_deviation = max(deviations.values())
    return {
        "closed_form_value": solution.value,
        "oracle_value": enumerated,
        "saddle": saddle.details,
        "max_deviation": max_deviation,
        **abstain,
        "ok": bool(max_deviation <= SOLVER_TOL and grid_excess <= SOLVER_TOL),
        "deviations": deviations,
        "grid_excess": grid_excess,
    }


def certify_batch(
    count: int,
    seed: int = 0,
    nmax: int = 6,
    check_abstain: bool = True,
    grid_step: float = 0.02,
) -> dict:
    """Run ``certify_instance`` over seeded random instances.

    Returns an aggregate summary with the worst instance observed.
    """
    if nmax > ENUM_MAX_N:
        raise ValueError(f"nmax must stay within the oracle cap {ENUM_MAX_N}")
    max_closed_dev = 0.0
    max_grid_excess = -np.inf
    worst: Optional[dict] = None
    grid_checked = 0
    ok = True
    for votes, lam, alpha in random_instances(count, seed, nmax):
        check = certify_instance(votes, lam, alpha if check_abstain else None, grid_step)
        ok &= check["ok"]
        grid_checked += "abstain_grid_value" in check
        max_grid_excess = max(max_grid_excess, check["grid_excess"])
        if check["max_deviation"] > max_closed_dev:
            max_closed_dev = check["max_deviation"]
            worst = {
                "votes": [float(x) for x in votes],
                "lam": lam,
                "alpha": alpha,
                "deviations": {k: float(d) for k, d in check["deviations"].items()},
            }
    return {
        "instances_checked": count,
        "seed": seed,
        "nmax": nmax,
        "max_deviation": float(max_closed_dev),
        "grid_instances_checked": grid_checked,
        "max_grid_excess": float(max_grid_excess) if grid_checked else None,
        "worst_instance": worst,
        "ok": ok,
    }
