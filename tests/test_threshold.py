"""The threshold rule behind v and w, checked against exact rational sums.

Every threshold is the smallest count k whose leading margins sum to at least
``cover_floor(need)``, four ulps below need = target / scale, with the target
computed in floats exactly as the solvers compute it; the fraction at k is
(need - head) / |a_k| clipped to [0, 1].  Here the sums are evaluated with
``fractions.Fraction``, so a fast prefix sum that rounds the wrong way at a
near-tie would show.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from votebound import model, solve_abstain, solve_game, sort_profile
from votebound.cli import main
from votebound.errors import InfeasibleConstraint
from votebound.model import _BLOCK, cover_floor, threshold_index

from test_golden import library_votes
from test_model import sorted_magnitudes

EPS = np.finfo(float).eps


def exact_rule(magnitudes, target: float, scale: float = 1.0) -> tuple[int, Fraction, Fraction]:
    """(k, exact head sum, exact fraction at k) by the rule, over Fraction prefix sums."""
    need = target / scale
    prefix = list(accumulate(map(Fraction, magnitudes)))
    k = bisect_left(prefix, Fraction(cover_floor(need))) + 1
    head = prefix[k - 2] if k > 1 else Fraction(0)
    if k > len(prefix):
        return k, head, Fraction(1)
    return k, head, min(max((Fraction(need) - head) / Fraction(magnitudes[k - 1]), 0), 1)


def exact_abstain(profile, alpha: float) -> tuple[int, Fraction]:
    """(w, exact value_exact) by the rule, for the budget the solver forms in floats."""
    budget = profile.lam - (1.0 - 2.0 * alpha) * profile.total / profile.n
    w, _, fraction = exact_rule(profile.abs_sorted, profile.n * budget, 2.0 * alpha)
    if w > profile.v:
        # The rule's search stops at v, where w always lies in exact arithmetic.
        w, fraction = profile.v, Fraction(1)
    return w, Fraction(alpha) * (profile.n - w + 1 - fraction) / profile.n


@st.composite
def vote_sets(draw):
    """Votes with zeros, repeated magnitudes and (often) exact prefix hits."""
    n = draw(st.integers(min_value=1, max_value=10_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "generic", "repeated"]))
    if shape == "grid":
        # A few levels k/denominator: heavy ties and zeros.
        levels = draw(st.integers(min_value=1, max_value=40))
        denominator = draw(st.sampled_from([levels, 8, 20, 3 * levels]))
        votes = rng.integers(-levels, levels + 1, n) / max(denominator, levels)
    else:
        votes = rng.uniform(-1.0, 1.0, n)
        if shape == "repeated":
            votes[rng.integers(0, n, n // 2)] = votes[0]
            votes[rng.integers(0, n, n // 4)] = 0.0
    magnitudes = np.sort(np.abs(votes))[::-1]
    if magnitudes[0] == 0.0:
        votes[0] = magnitudes[0] = 0.5
    # Exact hit: lam puts n*lam on a prefix sum, up to the rounding of the
    # division and product; otherwise anywhere in the feasible range.
    j = draw(st.integers(min_value=1, max_value=n))
    hit = float(sum(map(Fraction, magnitudes[:j])))
    mean = float(np.abs(votes).mean())
    lam = draw(st.sampled_from([hit / n, mean * draw(st.floats(0.01, 1.0))]))
    return votes, max(min(lam, mean), 1e-12), hit


def feasible_profile(votes, lam):
    try:
        return sort_profile(votes, lam)
    except InfeasibleConstraint:
        return None


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(data=vote_sets())
@SETTINGS
def test_v_matches_exact_rule(data):
    votes, lam, _ = data
    v, head, fraction = exact_rule(np.sort(np.abs(votes))[::-1], votes.size * lam)
    if v > votes.size:
        # lam at the float mean |vote| can sit above the exact one.
        with pytest.raises(InfeasibleConstraint):
            sort_profile(votes, lam)
        return
    profile = sort_profile(votes, lam)
    assert profile.v == v
    assert profile.head == float(head)
    assert abs(profile.fraction - fraction) <= EPS
    assert profile.total == float(sum(map(Fraction, profile.abs_sorted)))


@given(data=vote_sets(), alpha=st.floats(min_value=0.01, max_value=0.49))
@SETTINGS
def test_w_matches_exact_rule(data, alpha):
    votes, lam, _ = data
    profile = feasible_profile(votes, lam)
    if profile is None:
        return
    solution = solve_abstain(profile, alpha)
    if solution.trivial:
        return
    w, value = exact_abstain(profile, alpha)
    assert solution.w == w
    assert abs(solution.value_exact - value) <= 4 * EPS


@given(data=vote_sets(), step=st.integers(min_value=-12, max_value=12))
@SETTINGS
def test_helper_decides_targets_a_few_ulps_around_a_prefix_sum(data, step):
    votes, _, hit = data
    magnitudes = np.sort(np.abs(votes))[::-1]
    target = hit
    for _ in range(abs(step)):
        target = float(np.nextafter(target, np.inf if step > 0 else -np.inf))
    k, head, fraction, total, tail = threshold_index(magnitudes, target)
    expected_k, expected_head, expected_fraction = exact_rule(magnitudes, target)
    prefix = list(accumulate(map(Fraction, magnitudes)))
    assert k == expected_k
    assert head == float(expected_head)
    assert abs(fraction - expected_fraction) <= EPS
    assert total == float(prefix[-1])
    assert tail.hex() == float(prefix[-1] - prefix[min(k, magnitudes.size) - 1]).hex()


def test_helper_reports_uncovered_target():
    magnitudes = np.array([0.5, 0.25])
    assert threshold_index(magnitudes, 0.75 + 1e-9) == (3, 0.75, 1.0, 0.75, 0.0)
    assert threshold_index(magnitudes, 0.75) == (2, 0.5, 1.0, 0.75, 0.0)
    assert threshold_index(magnitudes, 0.625) == (2, 0.5, 0.5, 0.75, 0.0)
    assert threshold_index(magnitudes, 0.25) == (1, 0.0, 0.5, 0.75, 0.25)
    # Within four ulps above the sum the target is covered, with a full pivot.
    assert threshold_index(magnitudes, 0.75 + 4 * EPS * 0.75) == (2, 0.5, 1.0, 0.75, 0.0)
    assert threshold_index(magnitudes, 0.75 + 16 * EPS * 0.75)[0] == 3


def sorted_pool(kind: str, size: int) -> np.ndarray:
    """Nonincreasing margins: subnormal, one long run of equal values, or many binades."""
    rng = np.random.default_rng(size)
    if kind == "subnormal":  # half below 2**-1022, half in the least normal binade
        values = np.ldexp(rng.uniform(0.0, 2.0, size), -1022)
    elif kind == "equal":
        values = np.full(size, 0.1)
    else:
        values = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1000, 1, size))
    return np.sort(values)[::-1]


@pytest.mark.parametrize("kind", ["subnormal", "equal", "binades"])
@pytest.mark.parametrize("size", [1, 2, 8, 64, 511, 512, 513, 5000])
@pytest.mark.parametrize("cut", ["zero", "size", "binade"])
def test_one_pass_sums_match_exact_rationals(kind, size, cut):
    # One integer pass split around k - 1 forms the sums at every size, and each
    # must be the exact rational sum rounded once.
    magnitudes = sorted_pool(kind, size)
    prefix = list(accumulate(map(Fraction, magnitudes)))
    exponents = magnitudes.view(np.int64) >> 52
    edges = np.flatnonzero(exponents[1:] != exponents[:-1]) + 1
    # The first binade boundary, or the middle of the one run of equal margins.
    boundary = int(edges[0]) if edges.size else size // 2
    need = {
        "zero": float(magnitudes[0]) / 2,
        "size": 2.0 * float(prefix[-1]),
        "binade": float(prefix[boundary]),
    }[cut]
    k, head, fraction, total, tail = threshold_index(magnitudes, need)
    expected_k, expected_head, expected_fraction = exact_rule(magnitudes, need)
    assert k == expected_k
    # A boundary margin below half an ulp of the sum before it (the binade pools at
    # sizes 2 and 8) leaves need covered by that sum, so k falls before the boundary.
    absorbed = cut == "binade" and 0 < boundary and cover_floor(need) <= prefix[boundary - 1]
    if not absorbed:
        assert k - 1 == {"zero": 0, "size": size, "binade": boundary}[cut]
    assert head.hex() == float(expected_head).hex()
    assert total.hex() == float(prefix[-1]).hex()
    assert tail.hex() == float(prefix[-1] - prefix[min(k, size) - 1]).hex()
    assert abs(fraction - expected_fraction) <= EPS


def gen_votes(tmp_path, capsys, n=10_000, h=32) -> np.ndarray:
    """Uniform-weight votes on the test predictions ``gen`` writes at seed 1: levels k/h."""
    argv = ["gen", "--seed", "1", "--train-size", "10", "--test-size", str(n)]
    assert main(argv + ["--hypotheses", str(h), "--base-error", "0.1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return np.loadtxt(tmp_path / "test_predictions.csv", delimiter=",", skiprows=1).mean(axis=1)


@pytest.mark.parametrize("source", ["511", "512", "513", "library", "gen"])
def test_profile_tail_is_the_correctly_rounded_sum_after_the_pivot(source, tmp_path, capsys):
    if source == "library":
        votes = library_votes()
    elif source == "gen":
        votes = gen_votes(tmp_path, capsys)
    else:
        votes = np.random.default_rng(int(source)).uniform(-1.0, 1.0, int(source))
    mean = math.fsum(np.abs(votes)) / votes.size
    for lam in (0.01, 0.3, mean / 2, mean):
        profile = sort_profile(votes, lam)
        assert profile.tail == math.fsum(profile.abs_sorted[profile.v :])


@pytest.mark.parametrize("seed", range(20))
def test_lambda_on_a_float_prefix_mean_picks_that_prefix(seed):
    # lam = (float sum of the top k)/n misses the exact prefix sum by a few ulps at
    # n = 10^5; a rule relative to n*lam must still pick v = k.
    rng = np.random.default_rng(seed)
    n = 100_000
    votes = rng.uniform(-1.0, 1.0, n)
    k = int(rng.integers(1, n + 1))
    lam = float(np.sort(np.abs(votes))[::-1][:k].sum()) / n
    assert sort_profile(votes, lam).v == k


def tiny_margin_profiles(count, seed):
    """Margins uniform(-1, 1) x 10^U(-12, 0), n = 2..200, lam on a prefix sum or below it.

    n*lam often lies far below 1e-12, where an absolute tie slack swamps the sums.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 201))
        votes = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 0.0, n)
        magnitudes = np.sort(np.abs(votes))[::-1]
        hit = float(sum(map(Fraction, magnitudes[: int(rng.integers(1, n + 1))])))
        yield sort_profile(votes, hit / n * (1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)))


def test_tiny_margin_games_solve_exactly():
    for profile in tiny_margin_profiles(500, seed=21):
        solution = solve_game(profile)
        v, _, fraction = exact_rule(profile.abs_sorted, profile.n * profile.lam)
        assert solution.v == v
        assert abs(solution.value - (v - 1 + fraction) / profile.n) <= 4 * EPS


def test_tiny_margin_abstain_solves_exactly():
    for profile in tiny_margin_profiles(250, seed=13):
        for alpha in (0.01, 0.1, 0.25, 0.4, 0.49, 0.4999):
            solution = solve_abstain(profile, alpha)
            if solution.trivial:
                continue
            w, value = exact_abstain(profile, alpha)
            assert solution.w == w
            assert abs(solution.value_exact - value) <= 4 * EPS


def floor_at(value: float) -> float:
    """A target whose ``cover_floor`` is ``value``, or the nearest float to one."""
    target = value / (1.0 - 4.0 * EPS)
    around = [target]
    for _ in range(4):  # four floats either side
        around = [np.nextafter(around[0], -np.inf), *around, np.nextafter(around[-1], np.inf)]
    return float(next((t for t in around if cover_floor(t) == value), target))


@given(
    magnitudes=sorted_magnitudes(
        st.one_of(
            st.integers(1, 3 * _BLOCK + 1),
            st.sampled_from([_BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK + 1]),
        )
    ),
    tie=st.tuples(st.sampled_from([_BLOCK, 2 * _BLOCK]), st.integers(0, 40)),
)
# Equal margins sum exactly in floats, so the floor can equal a block's prefix sum exactly.
@example(magnitudes=np.full(3 * _BLOCK + 1, 0.75), tie=(_BLOCK, 0))
# One zero margin and a target of 0: k = 1 with a zero pivot and a zero remainder.
@example(magnitudes=np.zeros(1), tie=(_BLOCK, 0))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_record_is_exact_across_blocks(magnitudes, tie):
    # k's block is found by exact block sums; every k, and every sum formed from the block
    # sums and the pass over k's block, must be the exact rule's, on block edges included.
    edge, width = tie
    if width and magnitudes.size > edge:  # a run of equal margins across a block edge
        start, end = max(edge - width, 0), min(edge + width, magnitudes.size)
        magnitudes[start:end] = magnitudes[end - 1]
    prefix = list(accumulate(map(Fraction, magnitudes)))
    counts = (1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, magnitudes.size)
    edges = [float(prefix[k - 1]) for k in counts if k <= magnitudes.size]
    # Each edge's prefix sum as the target, and a target whose floor is that sum when one exists.
    targets = edges + [floor_at(edge) for edge in edges]
    targets += [float(prefix[-1]) * 0.5, 2.0 * float(prefix[-1]) + 1.0]  # mid-run; k = size + 1
    for target in targets:
        k, head, fraction, total, tail = threshold_index(magnitudes, target)
        assert k == bisect_left(prefix, Fraction(cover_floor(target))) + 1
        assert head.hex() == math.fsum(magnitudes[: k - 1]).hex()
        assert total.hex() == math.fsum(magnitudes).hex()
        assert tail.hex() == math.fsum(magnitudes[k:]).hex()
        if k > magnitudes.size:
            assert fraction == 1.0
        else:
            # A remainder <= 0 takes fraction 0; only it can meet a zero k-th margin.
            remainder = Fraction(target) - (prefix[k - 2] if k > 1 else 0)
            exact = remainder / Fraction(magnitudes[k - 1]) if remainder > 0 else 0
            assert abs(fraction - min(exact, 1)) <= EPS
    assert threshold_index(magnitudes, targets[-1])[0] == magnitudes.size + 1


def test_mixed_scale_profile_passes_each_margin_about_once(monkeypatch):
    # 1000 margins of 1 and the rest 1e-13, with n*lam in the middle of the tiny run: a float
    # cumsum over all n cannot bracket k there, so each bisection step must pass over k's block
    # only, not over a whole prefix.
    n = 1_000_000
    votes = np.full(n, 1e-13)
    votes[:1000] = 1.0
    handed = []
    block_sums = model._block_sums

    def counted(block, *args):
        handed.append(block.size)
        return block_sums(block, *args)

    monkeypatch.setattr(model, "_block_sums", counted)
    profile = sort_profile(votes, (1000 + 1e-13 * (n - 1000) / 2) / n)
    assert 1000 < profile.v < n
    assert sum(handed) <= n + 16 * _BLOCK


@pytest.mark.parametrize("kind", ["uniform", "tied", "tiny"])
def test_record_scales_exactly_by_powers_of_two(kind):
    # Margins and lam times 2**-k scale n*lam exactly, so every decision must keep its bits
    # and every sum must scale by exactly 2**-k, through the walk over all 62 blocks.
    rng = np.random.default_rng(36)
    n = 1_000_000
    if kind == "uniform":
        votes = rng.uniform(-1.0, 1.0, n)
    elif kind == "tied":
        votes = rng.integers(-16, 17, n) / 16.0  # 33 levels
    else:
        votes = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 0.0, n)
    lam, alpha = 0.6 * float(np.abs(votes).mean()), 0.25
    profile = sort_profile(votes, lam)
    game, abstain = solve_game(profile), solve_abstain(profile, alpha)
    assert profile.v > _BLOCK and not abstain.trivial
    for k in (1, 7, 29):
        scaled = sort_profile(np.ldexp(votes, -k), math.ldexp(lam, -k))
        scaled_game, scaled_abstain = solve_game(scaled), solve_abstain(scaled, alpha)
        assert (scaled.v, scaled_abstain.w) == (profile.v, abstain.w)
        assert scaled.fraction.hex() == profile.fraction.hex()
        assert scaled_abstain.value_exact.hex() == abstain.value_exact.hex()
        assert scaled_game.value.hex() == game.value.hex()
        assert scaled_game.g_star.values.tobytes() == game.g_star.values.tobytes()
        for name in ("head", "total", "tail", "pivot"):
            expected = math.ldexp(getattr(profile, name), -k)
            assert getattr(scaled, name).hex() == expected.hex(), name
