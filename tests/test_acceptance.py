"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import json
import time

import numpy as np
from jsonschema import validate

from votebound import solve_abstain, solve_game, sort_profile
from votebound.abstain import abstain_loss, p_alg
from votebound.cli import main
from votebound.game import find_threshold, game_value
from votebound.model import WeightVector
from votebound.oracle import (
    certify_instance,
    enumerate_game_value,
    grid_abstain_value,
    random_instances,
    worst_case_abstain_loss,
)
from votebound.pacbayes import PacBayesParams, epsilon, kl_bernoulli, kl_discrete, lambda_hat
from votebound.schema import PIPELINE_REPORT_SCHEMA

TOL = 1e-9
BATCH = list(random_instances(count=200, seed=1, nmax=6))


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_game_value_vs_enumeration():
    start = time.perf_counter()
    worst = 0.0
    for votes, lam, _ in BATCH:
        profile = sort_profile(votes, lam)
        worst = max(worst, abs(game_value(profile) - enumerate_game_value(votes, lam)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= TOL and elapsed < 10.0,
        f"game value vs enumeration on 200 instances, max deviation "
        f"{worst:.3e} (tol 1e-9), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_saddle_certification():
    worst = 0.0
    for votes, lam, _ in BATCH:
        profile = sort_profile(votes, lam)
        worst = max(worst, certify_instance(profile, solve_game(profile))[1]["saddle"])
    report(
        2,
        worst <= TOL,
        f"both best responses attain V on 200 instances, max deviation "
        f"{worst:.3e} (tol 1e-9)",
    )


def test_criterion_3_fixtures():
    checks = []
    s1 = solve_game(sort_profile([1.0, 0.8, 0.5, 0.2], 0.5))
    checks.append(s1.v == 3)
    checks.append(abs(s1.value - 0.6) <= TOL)
    checks.append(np.allclose(s1.g_star.values, [1, 1, 1, 0.4], atol=TOL))
    checks.append(np.allclose(s1.z_star.values, [1, 1, 0.4, 0], atol=TOL))
    s2 = solve_game(sort_profile([1.0, 0.8, 0.6, 0.2], 0.6))
    checks.append(s2.v == 3)
    checks.append(abs(s2.value - 0.75) <= TOL)
    checks.append(np.allclose(s2.z_star.values, [1, 1, 1, 0], atol=TOL))
    s3 = solve_game(sort_profile([-0.9, 0.6], 0.6))
    checks.append(abs(s3.value - 0.75) <= TOL)
    checks.append(np.allclose(s3.g_star.values, [-1, 1], atol=TOL))
    # Oracle re-verification before trusting the frozen numbers.
    checks.append(abs(enumerate_game_value([1.0, 0.8, 0.5, 0.2], 0.5) - 0.6) <= TOL)
    checks.append(abs(enumerate_game_value([1.0, 0.8, 0.6, 0.2], 0.6) - 0.75) <= TOL)
    checks.append(abs(enumerate_game_value([-0.9, 0.6], 0.6) - 0.75) <= TOL)
    report(3, all(checks), f"FIX-1/FIX-2/FIX-3 frozen values, {sum(checks)}/12 checks")


def test_criterion_4_value_lower_bound_and_gap():
    ok = True
    for votes, lam, _ in BATCH:
        profile = sort_profile(votes, lam)
        value = game_value(profile)
        bound = solve_game(profile).lower_bound
        ok &= value >= bound - TOL
        gap = (1.0 / profile.pivot - 1.0) * (lam - profile.head / profile.n)
        ok &= abs((value - bound) - gap) <= TOL
    report(4, ok, "V >= lam + mean top-margin disagreement, gap identity to 1e-9")


def test_criterion_5_abstain_value_bounds_and_grid():
    start = time.perf_counter()
    ok = True
    grid_checked = 0
    for votes, lam, alpha in BATCH:
        profile = sort_profile(votes, lam)
        solution = solve_abstain(profile, alpha)
        exact, lower, upper = solution.value_exact, solution.value_lower, solution.value_upper
        if solution.trivial:
            ok &= exact == alpha
        else:
            ok &= lower - TOL <= exact <= upper + TOL
        if profile.n <= 4:
            grid_checked += 1
            grid = grid_abstain_value(votes, lam, alpha, step=0.02)
            ok &= abs(grid - exact) <= profile.n * 0.02 / 2 + TOL
    elapsed = time.perf_counter() - start
    report(
        5,
        ok and elapsed < 60.0,
        f"abstain value in bounds on 200 instances, grid agreement on "
        f"{grid_checked} instances at step 0.02, runtime {elapsed:.2f}s (< 60s)",
    )


def _integral_binding_instances():
    yield np.array([1.0, 0.8, 0.6, 0.2]), 3  # FIX-2 binds at v = 3
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        votes = rng.uniform(-1, 1, n)
        magnitudes = np.sort(np.abs(votes))[::-1]
        v_bind = int(rng.integers(1, n + 1))
        if magnitudes[:v_bind].sum() <= 0:
            continue
        yield votes, v_bind


def test_criterion_6_near_optimal_strategy():
    ok = True
    alpha = 0.25
    for votes, lam, a in BATCH:
        profile = sort_profile(votes, lam)
        v = find_threshold(profile)
        probs = p_alg(profile, min(a, 0.45))
        top = np.abs(votes) >= profile.pivot
        ok &= bool(np.count_nonzero(top) >= v and np.all(probs[top] == 0.0))
        if np.all(profile.abs_sorted > 0):
            keys = np.abs(profile.votes) / (1.0 - probs)
            at_or_below = np.abs(votes) <= profile.pivot
            ok &= bool(np.allclose(keys[at_or_below], profile.pivot, atol=TOL))
    matched = 0
    for votes, v_bind in _integral_binding_instances():
        magnitudes = np.sort(np.abs(votes))[::-1]
        lam = magnitudes[:v_bind].sum() / len(votes)
        profile = sort_profile(votes, lam)
        if find_threshold(profile) != v_bind:
            continue
        sol = solve_game(profile)
        loss = abstain_loss(sol.g_star, p_alg(profile, alpha), alpha, sol.z_star)
        formula = solve_abstain(profile, alpha).loss_formula
        ok &= abs(loss - formula) <= TOL
        matched += 1
    fix2 = sort_profile([1.0, 0.8, 0.6, 0.2], 0.6)
    sol2 = solve_game(fix2)
    loss2 = abstain_loss(sol2.g_star, p_alg(fix2, alpha), alpha, sol2.z_star)
    formula2 = solve_abstain(fix2, alpha).loss_formula
    ok &= abs(loss2 - 1 / 12) <= TOL and abs(formula2 - 1 / 12) <= TOL
    report(
        6,
        ok and matched >= 20,
        f"strategy zero through v, flat reweighted keys beyond v, loss == "
        f"formula on {matched} integral-binding instances incl. FIX-2 (both 0.0833333)",
    )


def test_criterion_7_abstain_fraction_bound():
    ok = True
    for votes, lam, alpha in BATCH:
        profile = sort_profile(votes, lam)
        probs = p_alg(profile, min(alpha, 0.45))
        v = find_threshold(profile)
        tail_ratio = profile.abs_sorted[v:].sum() / profile.abs_sorted[v - 1]
        ok &= probs.mean() <= 1 - lam - tail_ratio / profile.n + TOL
    report(7, ok, "mean abstain probability within 1 - lam - tail-ratio bound on 200 instances")


def test_criterion_8_pac_bayes_numerics():
    uniform = WeightVector(np.full(8, 0.125))
    prior = WeightVector(np.full(8, 0.125))
    eps_value = epsilon(PacBayesParams(m=2000, delta=0.05), kl_discrete(uniform, prior))
    ok = abs(eps_value - 0.106254) <= 1e-5
    lam_value = lambda_hat(0.1, eps_value)
    ok &= abs(lam_value - 0.587492) <= 1e-5

    rng = np.random.default_rng(8)
    p_samples = rng.uniform(0, 1, 10_000)
    q_samples = rng.uniform(1e-9, 1 - 1e-9, 10_000)
    pinsker = all(
        kl_bernoulli(p, q) >= 2 * (p - q) ** 2 - 1e-12
        for p, q in zip(p_samples, q_samples)
    )
    ok &= pinsker

    ms = (50, 200, 1000, 5000)
    deltas = (0.01, 0.05, 0.2, 0.5)
    posteriors = [
        WeightVector(w / w.sum())
        for w in (np.ones(4), np.array([2.0, 1, 1, 1]), np.array([5.0, 1, 1, 1]))
    ]
    q0 = WeightVector(np.full(4, 0.25))
    monotone = True
    kls = [kl_discrete(q, q0) for q in posteriors]
    for delta, kl in itertools.product(deltas, kls):
        values = [epsilon(PacBayesParams(m=m, delta=delta), kl) for m in ms]
        monotone &= all(a > b for a, b in zip(values, values[1:]))
    for m, kl in itertools.product(ms, kls):
        values = [epsilon(PacBayesParams(m=m, delta=d), kl) for d in deltas]
        monotone &= all(a > b for a, b in zip(values, values[1:]))
    for m, delta in itertools.product(ms, deltas):
        values = [epsilon(PacBayesParams(m=m, delta=delta), kl) for kl in kls]
        monotone &= kls == sorted(kls) and all(a < b for a, b in zip(values, values[1:]))
    ok &= monotone
    report(
        8,
        ok,
        f"epsilon(2000) = {eps_value:.6f} (0.106254 +- 1e-5), lambda_hat = "
        f"{lam_value:.6f} (0.587492 +- 1e-5), Pinsker on 10^4 pairs, monotone grids",
    )


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_criterion_9_end_to_end(tmp_path, capsys):
    def gen(m, sub):
        out = tmp_path / sub
        code, manifest = _run_cli(
            capsys,
            "gen",
            "--seed", "7",
            "--train-size", str(m),
            "--test-size", "64",
            "--hypotheses", "16",
            "--base-error", "0.1",
            "--out", str(out),
            "--canonical",
        )
        assert code == 0
        return manifest["files"]

    def pipeline(files, out_name):
        out = tmp_path / out_name
        code, _ = _run_cli(
            capsys,
            "pipeline",
            "--train-pred", files["train_pred"],
            "--train-labels", files["train_labels"],
            "--test-pred", files["test_pred"],
            "--posterior", "uniform",
            "--delta", "0.05",
            "--canonical",
            "--out", str(out),
        )
        assert code == 0
        return out

    files = gen(2000, "m2000")
    first = pipeline(files, "r1.json")
    second = pipeline(files, "r2.json")
    payload = json.loads(first.read_text())
    validate(payload, PIPELINE_REPORT_SCHEMA)
    ok = first.read_bytes() == second.read_bytes()
    ok &= payload["bound_report"]["degenerate"] is False
    ok &= 0.45 <= payload["bound_report"]["lambda_hat"] <= 0.65
    ok &= len(payload["examples"]) == 64

    small = gen(100, "m100")
    degen = json.loads(pipeline(small, "r3.json").read_text())
    validate(degen, PIPELINE_REPORT_SCHEMA)
    ok &= degen["bound_report"]["degenerate"] is True and degen["fallback"] is True
    ok &= degen["game_solution"] is None
    ok &= all(e["prediction"] == e["vote"] for e in degen["examples"])
    report(
        9,
        ok,
        f"gen(seed 7) -> pipeline: lambda_hat = "
        f"{payload['bound_report']['lambda_hat']:.4f} non-degenerate, schema-valid, "
        f"byte-identical reruns; m=100 variant falls back to the averaged prediction",
    )


def test_criterion_10_discrepancy_logging(tmp_path, capsys):
    votes_file = tmp_path / "fix1.csv"
    votes_file.write_text("vote\n1.0\n0.8\n0.5\n0.2\n", encoding="utf-8")
    code, payload = _run_cli(
        capsys,
        "abstain",
        "--votes", str(votes_file),
        "--lambda", "0.5",
        "--alpha", "0.25",
        "--canonical",
    )
    assert code == 0
    ok = payload["loss_formula"] == 0.0875
    ok &= payload["loss_vs_z_star"] == 0.1625
    ok &= payload["oracle_worst_case_loss"] == 0.1925

    # Re-verify each figure independently of the report.
    profile = sort_profile([1.0, 0.8, 0.5, 0.2], 0.5)
    sol = solve_game(profile)
    probs = p_alg(profile, 0.25)
    ok &= abs(solve_abstain(profile, 0.25).loss_formula - 0.0875) <= TOL
    direct_loss = float(
        np.mean(probs * 0.25 + 0.5 * (1 - probs) * (1 - sol.g_star.values * sol.z_star.values))
    )
    ok &= abs(direct_loss - 0.1625) <= TOL
    worst = worst_case_abstain_loss(profile, sol.g_star, probs, 0.25)
    ok &= abs(worst - 0.1925) <= TOL
    value_exact = solve_abstain(profile, 0.25).value_exact
    ok &= abs(value_exact - 0.1484375) <= TOL
    ok &= worst >= value_exact - TOL
    # Deliberately NOT asserted: worst == loss_formula.  The oracle's worst
    # case exceeds the stated figure here; all three are reported side by side.
    report(
        10,
        ok,
        "FIX-1 report carries loss_formula 0.0875, loss vs z* 0.1625, oracle "
        "worst case 0.1925; worst case >= exact value 0.1484375; no equality asserted",
    )
