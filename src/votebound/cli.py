"""Command-line surface: solve, abstain, pipeline, verify, gen.

Exit codes: 0 success, 1 certification failure, 2 domain/validation error,
3 parse/dimension error, 4 I/O error.  Errors are reported as JSON objects
with ``error`` (a stable slug) and ``message``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abstain import abstain_loss, solve_abstain
from .errors import (
    DegenerateAbstain,
    DegenerateBound,
    DimensionError,
    Infeasible,
    InfeasibleConstraint,
    InfiniteDivergence,
    InvalidCost,
    VoteboundError,
)
from .game import solve_game
from .model import EnsembleMatrix, LabeledSample, WeightVector, compute_votes, sort_profile
from .oracle import ENUM_MAX_N, certify_batch, certify_instance, worst_case_abstain_loss
from .pacbayes import (
    BoundReport,
    PacBayesParams,
    abstain_mistake_bounds,
    epsilon,
    error_probability_bound,
    exp_weights_posterior,
    gibbs_train_error,
    kl_bound_train,
    kl_discrete,
    lambda_hat,
)

class ParseError(VoteboundError):
    """An input file could not be parsed."""

    code = "parse_error"


class ValidationError(VoteboundError):
    """A command argument is outside its allowed range."""

    code = "validation_error"


_EXIT_CODES = {
    ParseError: 3,
    DimensionError: 3,
    ValidationError: 2,
    InfeasibleConstraint: 2,
    DegenerateBound: 2,
    DegenerateAbstain: 2,
    InvalidCost: 2,
    InfiniteDivergence: 2,
    Infeasible: 2,
}


def _round_floats(obj):
    """Round reals to 12 significant digits so reports are byte-stable."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_round_floats(value) for value in obj]
    return obj


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_round_floats(payload), indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _tool_meta(payload: dict, canonical: bool) -> dict:
    if not canonical:
        payload["tool"] = {"name": "votebound", "version": __version__}
    return payload


def _read_votes(path: str) -> np.ndarray:
    rows = _read_csv(path, expected_header=["vote"])
    try:
        return np.array([float(row[0]) for row in rows])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: votes must be one real per row") from exc


def _read_csv(path: str, expected_header=None) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if expected_header is not None and header != expected_header:
        raise ParseError(f"{path}: expected header {','.join(expected_header)}")
    return rows[1:]


def _read_predictions(path: str) -> np.ndarray:
    rows = _read_csv(path)
    try:
        grid = np.array([[int(cell) for cell in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{path}: prediction cells must be -1 or 1") from exc
    if grid.ndim != 2 or grid.size == 0:
        raise ParseError(f"{path}: no prediction rows")
    return grid


def _read_labels(path: str) -> np.ndarray:
    rows = _read_csv(path, expected_header=["label"])
    try:
        return np.array([int(row[0]) for row in rows], dtype=float)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: labels must be -1 or 1, one per row") from exc


def _read_weights(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON") from exc
    if not isinstance(payload, dict) or "weights" not in payload:
        raise ParseError(f'{path}: expected an object with a "weights" array')
    weights = np.asarray(payload["weights"], dtype=float)
    prior = payload.get("prior")
    return weights, None if prior is None else np.asarray(prior, dtype=float)


def _posterior(spec: str, sample: LabeledSample) -> tuple[WeightVector, WeightVector]:
    """Resolve a posterior spec; the prior defaults to uniform."""
    h = sample.num_hypotheses
    uniform_prior = WeightVector(np.full(h, 1.0 / h), role="prior")
    if spec == "uniform":
        return WeightVector(np.full(h, 1.0 / h)), uniform_prior
    if spec.startswith("exp:"):
        try:
            eta = float(spec[4:])
        except ValueError as exc:
            raise ValidationError(f"bad exponential-weights spec {spec!r}") from exc
        if eta < 0:
            raise ValidationError("eta must be nonnegative")
        return exp_weights_posterior(sample, eta), uniform_prior
    weights, prior = _read_weights(spec)
    try:
        posterior = WeightVector(weights)
        q0 = uniform_prior if prior is None else WeightVector(prior, role="prior")
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return posterior, q0


def _solution_payload(profile, solution) -> dict:
    return {
        "n": profile.n,
        "lambda": profile.lam,
        "v": solution.v,
        "value": solution.value,
        "lower_bound": solution.lower_bound,
        "g_star": list(solution.g_star.values),
        "z_star": list(solution.z_star.values),
    }


def cmd_solve(args) -> int:
    votes = _read_votes(args.votes)
    profile = sort_profile(votes, args.lam)
    solution = solve_game(profile)
    _emit(_tool_meta(_solution_payload(profile, solution), args.canonical), args.out)
    return 0


def cmd_abstain(args) -> int:
    if args.alpha is None or args.alpha <= 0:
        raise InvalidCost("abstain cost must be positive")
    votes = _read_votes(args.votes)
    profile = sort_profile(votes, args.lam)
    solution = solve_game(profile)
    abstain = solve_abstain(profile, args.alpha)
    payload = {
        "n": profile.n,
        "lambda": profile.lam,
        "alpha": abstain.alpha,
        "v": solution.v,
        "game_value": solution.value,
        "trivial": abstain.trivial,
        "w": abstain.w,
        "budget": abstain.budget,
        "value_exact": abstain.value_exact,
        "value_lower": abstain.value_lower,
        "value_upper": abstain.value_upper,
        "value_closed_form": abstain.value_closed_form,
        "p_alg": list(abstain.p_alg.probs),
        "loss_formula": abstain.loss_formula,
        "loss_vs_z_star": abstain_loss(solution.g_star, abstain.p_alg, solution.z_star),
        "loss_no_abstain": abstain.loss_no_abstain,
        "loss_abstain": abstain.loss_abstain,
        "v2": abstain.v2,
    }
    if profile.n <= ENUM_MAX_N:
        z_worst, worst = worst_case_abstain_loss(
            profile, solution.g_star, abstain.p_alg, abstain.alpha
        )
        payload["oracle_worst_case_loss"] = worst
        payload["z_worst"] = list(z_worst.values)
    else:
        payload["oracle_worst_case_loss"] = None
        payload["oracle_note"] = (
            f"exact nature best response is computed only for n <= {ENUM_MAX_N}"
        )
    _emit(_tool_meta(payload, args.canonical), args.out)
    return 0


def cmd_pipeline(args) -> int:
    sample = _load_sample(args.train_pred, args.train_labels)
    test = _load_matrix(args.test_pred)
    if test.num_hypotheses != sample.num_hypotheses:
        raise DimensionError(
            f"train has {sample.num_hypotheses} hypotheses, test has {test.num_hypotheses}"
        )
    if not 0.0 < args.delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    if args.alpha is not None and args.alpha <= 0:
        raise InvalidCost("abstain cost must be positive")
    posterior, prior = _posterior(args.posterior, sample)
    params = PacBayesParams(m=sample.num_examples, delta=args.delta)

    gibbs = gibbs_train_error(sample, posterior)
    divergence = kl_discrete(posterior, prior)
    eps = epsilon(params, posterior, prior)
    lam_hat = lambda_hat(gibbs, eps)
    budget = kl_bound_train(sample, posterior, prior, args.delta)
    report = BoundReport(
        gibbs_train_error=gibbs,
        kl_posterior_prior=divergence,
        epsilon=eps,
        lambda_hat=lam_hat,
        error_bound=None,
        abstain_bound=None,
        mistake_bound=None,
        degenerate=lam_hat <= 0.0,
    )

    votes = compute_votes(test, posterior)
    game_json = None
    abstain_json = None
    predictions = votes
    probs = np.zeros(test.num_examples)

    if not report.degenerate:
        profile = sort_profile(votes, lam_hat)
        solution = solve_game(profile)
        predictions = solution.g_star.values
        raw = error_probability_bound(profile, report, args.delta)
        bounds = (None, None)
        abstain = None
        if args.alpha is not None:
            abstain = solve_abstain(profile, args.alpha)
            probs = abstain.p_alg.probs
            if args.alpha < 0.5:
                bounds = abstain_mistake_bounds(profile, report, args.delta)
        report = dataclasses.replace(
            report, error_bound=raw, abstain_bound=bounds[0], mistake_bound=bounds[1]
        )
        game_json = {
            "v": solution.v,
            "value": solution.value,
            "lower_bound": solution.lower_bound,
            "g_star": list(solution.g_star.values),
            "z_star": list(solution.z_star.values),
        }
        if abstain is not None:
            abstain_json = {
                "alpha": abstain.alpha,
                "trivial": abstain.trivial,
                "w": abstain.w,
                "budget": abstain.budget,
                "value_exact": abstain.value_exact,
                "value_lower": abstain.value_lower,
                "value_upper": abstain.value_upper,
                "value_closed_form": abstain.value_closed_form,
                "p_alg": list(abstain.p_alg.probs),
                "loss_formula": abstain.loss_formula,
                "loss_no_abstain": abstain.loss_no_abstain,
                "loss_abstain": abstain.loss_abstain,
                "v2": abstain.v2,
            }

    raw = report.error_bound
    payload = {
        "bound_report": {
            "m": sample.num_examples,
            "delta": args.delta,
            "posterior": args.posterior,
            "gibbs_train_error": report.gibbs_train_error,
            "kl_posterior_prior": report.kl_posterior_prior,
            "epsilon": report.epsilon,
            "lambda_hat": report.lambda_hat,
            "train_kl_budget": budget,
            "error_bound_raw": raw,
            "error_bound_clipped": None if raw is None else min(max(raw, 0.0), 1.0),
            "abstain_bound": report.abstain_bound,
            "mistake_bound": report.mistake_bound,
            "degenerate": report.degenerate,
        },
        "game_solution": game_json,
        "abstain_solution": abstain_json,
        "examples": [
            {
                "index": i,
                "vote": float(votes[i]),
                "prediction": float(predictions[i]),
                "abstain_probability": float(probs[i]),
                "label": int(np.sign(predictions[i])),
            }
            for i in range(test.num_examples)
        ],
        "fallback": report.degenerate,
        "seed": args.seed,
    }
    _emit(_tool_meta(payload, args.canonical), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.nmax > ENUM_MAX_N:
        raise ValidationError(f"nmax must be at most {ENUM_MAX_N}")
    if args.count < 1:
        raise ValidationError("count must be at least 1")

    if args.votes is not None:
        if args.lam is None:
            raise ValidationError("--lambda is required with --votes")
        votes = _read_votes(args.votes)
        if votes.size > ENUM_MAX_N:
            raise ValidationError(f"oracle certification is capped at n = {ENUM_MAX_N}")
        check = certify_instance(votes, args.lam, args.alpha)
        del check["deviations"], check["grid_excess"]
        payload = {"instances_checked": 1, **check}
        _emit(_tool_meta(payload, args.canonical), args.out)
        return 0 if payload["ok"] else 1

    summary = certify_batch(count=args.count, seed=args.seed, nmax=args.nmax)
    _emit(_tool_meta(summary, args.canonical), args.out)
    return 0 if summary["ok"] else 1


def cmd_gen(args) -> int:
    if args.train_size < 1 or args.test_size < 1 or args.hypotheses < 1:
        raise ValidationError("sizes must be positive")
    if not 0.0 < args.base_error < 0.5:
        raise ValidationError("base error must lie strictly inside (0, 0.5)")
    if args.out is None:
        raise ValidationError("--out directory is required")

    rng = np.random.default_rng(args.seed)
    m, n, h = args.train_size, args.test_size, args.hypotheses
    train_labels = rng.integers(0, 2, m) * 2 - 1
    test_labels = rng.integers(0, 2, n) * 2 - 1
    rates = np.clip(
        rng.uniform(0.8 * args.base_error, 1.2 * args.base_error, h), 1e-6, 0.499
    )
    train_pred = train_labels[:, None] * np.where(rng.random((m, h)) < rates, -1, 1)
    test_pred = test_labels[:, None] * np.where(rng.random((n, h)) < rates, -1, 1)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "train_pred": out_dir / "train_predictions.csv",
        "train_labels": out_dir / "train_labels.csv",
        "test_pred": out_dir / "test_predictions.csv",
    }
    _write_predictions(files["train_pred"], train_pred)
    _write_labels(files["train_labels"], train_labels)
    _write_predictions(files["test_pred"], test_pred)

    manifest = {
        "seed": args.seed,
        "train_size": m,
        "test_size": n,
        "hypotheses": h,
        "base_error": args.base_error,
        "files": {key: str(path) for key, path in files.items()},
    }
    _emit(_tool_meta(manifest, args.canonical), None)
    return 0


def _write_predictions(path: Path, grid: np.ndarray) -> None:
    header = ",".join(f"h{j + 1}" for j in range(grid.shape[1]))
    lines = [header]
    lines += [",".join(str(int(cell)) for cell in row) for row in grid]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_labels(path: Path, labels: np.ndarray) -> None:
    lines = ["label"] + [str(int(y)) for y in labels]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_sample(pred_path: str, labels_path: str) -> LabeledSample:
    predictions = _read_predictions(pred_path)
    labels = _read_labels(labels_path)
    try:
        return LabeledSample(predictions=predictions, labels=labels)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _load_matrix(path: str) -> EnsembleMatrix:
    try:
        return EnsembleMatrix(_read_predictions(path))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votebound",
        description=(
            "Aggregate an ensemble of binary classifiers over an unlabeled test "
            "set into minimax confidence-rated (optionally abstaining) "
            "predictions with PAC-Bayes guarantees."
        ),
    )
    parser.add_argument("--version", action="version", version=f"votebound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument(
            "--canonical",
            action="store_true",
            help="suppress environment metadata for byte-stable output",
        )

    p_solve = sub.add_parser("solve", help="solve the prediction game for a votes file")
    p_solve.add_argument("--votes", required=True, help="CSV with header 'vote'")
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_abst = sub.add_parser("abstain", help="solve the abstaining game")
    p_abst.add_argument("--votes", required=True)
    p_abst.add_argument("--lambda", dest="lam", type=float, required=True)
    p_abst.add_argument("--alpha", type=float, required=True, help="abstain cost")
    common(p_abst)
    p_abst.set_defaults(func=cmd_abstain)

    p_pipe = sub.add_parser(
        "pipeline", help="train-to-test pipeline: posterior, bounds, game solution"
    )
    p_pipe.add_argument("--train-pred", required=True)
    p_pipe.add_argument("--train-labels", required=True)
    p_pipe.add_argument("--test-pred", required=True)
    p_pipe.add_argument(
        "--posterior",
        default="uniform",
        help="'uniform', 'exp:<eta>', or a weights JSON file",
    )
    p_pipe.add_argument("--delta", type=float, default=0.05)
    p_pipe.add_argument("--alpha", type=float, default=None)
    p_pipe.add_argument("--seed", type=int, default=None, help="recorded in the report")
    common(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_verify = sub.add_parser("verify", help="certify closed forms against the oracles")
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--nmax", type=int, default=6)
    p_verify.add_argument("--votes", help="certify this single instance instead")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_verify.add_argument("--alpha", type=float, default=None)
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a synthetic train/test dataset")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--train-size", type=int, required=True)
    p_gen.add_argument("--test-size", type=int, required=True)
    p_gen.add_argument("--hypotheses", type=int, required=True)
    p_gen.add_argument("--base-error", type=float, required=True)
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VoteboundError as exc:
        code = _EXIT_CODES.get(type(exc), 2)
        sys.stdout.write(
            json.dumps({"error": exc.code, "message": str(exc)}) + "\n"
        )
        return code
    except ValueError as exc:
        # Domain-invalid numeric input (votes outside the box, bad weights).
        sys.stdout.write(
            json.dumps({"error": "validation_error", "message": str(exc)}) + "\n"
        )
        return 2
    except OSError as exc:
        sys.stdout.write(json.dumps({"error": "io_error", "message": str(exc)}) + "\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
