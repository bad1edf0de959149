"""Command-line surface: solve, abstain, pipeline, verify, gen.

Exit codes: 0 success, 1 certification failure, 2 domain/validation error
(including a result that is not a finite real), 3 parse/dimension error, 4 I/O
error, 5 internal error.  Errors are reported as JSON objects with ``error``
(a stable slug) and ``message``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abstain import abstain_loss, solve_abstain
from .errors import DimensionError, InvalidCost, VoteboundError
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


def _json(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)`` with reals rounded to 12 significant digits.

    A 1-D array is formatted once per distinct value, keyed on its bits (so
    -0.0 and 0.0 stay apart), and a structured array is written as a list of
    records, one per row.  A NaN or infinite real cannot be written as JSON.
    """
    inner = pad + "  "
    if isinstance(obj, (float, np.floating)):
        if not abs(obj) <= sys.float_info.max:
            raise ValidationError(f"the report holds a non-finite real ({float(obj)})")
        return repr(float(f"{float(obj):.12g}"))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, np.ndarray) and obj.dtype.names:
        fields = ",\n".join(f"{inner}  {json.dumps(name)}: %s" for name in obj.dtype.names)
        columns = [_json_texts(obj[name]) for name in obj.dtype.names]
        items = [f"{{\n{fields}\n{inner}}}" % row for row in zip(*columns)]
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
        items = _json_texts(obj)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json(value, inner) for value in obj]
    else:
        return json.dumps(obj)
    return "[\n" + inner + f",\n{inner}".join(items) + f"\n{pad}]" if items else "[]"


def _json_texts(column: np.ndarray) -> list[str]:
    """``_json`` of each entry of a 1-D array, computed once per distinct value."""
    keys, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    distinct = keys.view(column.dtype).tolist()
    # Integers need neither rounding nor a finiteness check.
    texts = list(map(str if column.dtype.kind in "iu" else _json, distinct))
    return np.array(texts, object)[inverse].tolist()


def _emit(payload: dict, args, out: str | None) -> None:
    """Write the report as JSON, with tool metadata unless --canonical."""
    if not args.canonical:
        payload["tool"] = {"name": "votebound", "version": __version__}
    text = _json(payload) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_csv(path: str, header: list[str] | None, dtype) -> np.ndarray:
    """The cells under a checked header line, one row per line.

    ``header=None`` expects the prediction header ``h1,...,hH``.  Every row
    must hold exactly the header's cell count, each cell parsing as ``dtype``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            names = [name.strip().strip('"') for name in handle.readline().split(",")]
            if names != (header or [f"h{j + 1}" for j in range(len(names))]):
                raise ParseError(f"{path}: expected header {','.join(header or ['h1..hH'])}")
            # loadtxt skips empty lines, and only warns when no other line is left.
            first = next((line for line in handle if line != "\n"), None)
            if first is None:
                raise ParseError(f"{path}: no data rows")
            cells = np.loadtxt(
                itertools.chain([first], handle),
                delimiter=",", dtype=dtype, ndmin=2, quotechar='"', comments=None,
            )
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8") from exc
    except ValueError as exc:  # a cell that does not parse, or a ragged row
        detail = str(exc).split(";")[0]  # drop numpy's hint about usecols
        raise ParseError(f"{path}: rows must hold {dtype.__name__} cells ({detail})") from exc
    if cells.shape[1] != len(names):
        raise ParseError(f"{path}: every row must hold the header's {len(names)} cells")
    return cells


def _read_votes(path: str) -> np.ndarray:
    return _read_csv(path, ["vote"], float)[:, 0]


def _read_weights(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "weights" not in payload:
        raise ParseError(f'{path}: expected an object with a "weights" array')
    prior = payload.get("prior")
    try:
        weights = np.asarray(payload["weights"], dtype=float)
        return weights, None if prior is None else np.asarray(prior, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f'{path}: "weights" and "prior" must be arrays of reals') from exc


def _posterior(spec: str, sample: LabeledSample) -> tuple[WeightVector, WeightVector]:
    """Resolve a posterior spec; the prior defaults to uniform."""
    h = sample.num_hypotheses
    uniform_prior = WeightVector(np.full(h, 1.0 / h), role="prior")
    if spec == "uniform":
        return WeightVector(np.full(h, 1.0 / h)), uniform_prior
    if spec.startswith("exp:"):
        return exp_weights_posterior(sample, float(spec[4:])), uniform_prior
    weights, prior = _read_weights(spec)
    posterior = WeightVector(weights)
    return posterior, uniform_prior if prior is None else WeightVector(prior, role="prior")


def _record(solution) -> dict:
    """A solution's fields in declaration order, with domain vectors unwrapped."""
    fields = {field.name: getattr(solution, field.name) for field in dataclasses.fields(solution)}
    return {key: getattr(v, "values", getattr(v, "probs", v)) for key, v in fields.items()}


def cmd_solve(args) -> int:
    profile = sort_profile(_read_votes(args.votes), args.lam)
    payload = {"n": profile.n, "lambda": profile.lam, **_record(solve_game(profile))}
    _emit(payload, args, args.out)
    return 0


def cmd_abstain(args) -> int:
    if args.alpha <= 0:
        raise InvalidCost("abstain cost must be positive")
    profile = sort_profile(_read_votes(args.votes), args.lam)
    solution = solve_game(profile)
    abstain = solve_abstain(profile, args.alpha)
    loss_vs_z_star = abstain_loss(solution.g_star, abstain.p_alg, solution.z_star)
    record = _record(abstain)
    payload = {
        "n": profile.n,
        "lambda": profile.lam,
        "alpha": record.pop("alpha"),
        "v": solution.v,
        "game_value": solution.value,
    }
    for key, value in record.items():
        payload[key] = value
        if key == "loss_formula":
            payload["loss_vs_z_star"] = loss_vs_z_star
    if profile.n <= ENUM_MAX_N:
        z_worst, payload["oracle_worst_case_loss"] = worst_case_abstain_loss(
            profile, solution.g_star, abstain.p_alg, abstain.alpha
        )
        payload["z_worst"] = z_worst.values
    else:
        note = f"exact nature best response is computed only for n <= {ENUM_MAX_N}"
        payload.update(oracle_worst_case_loss=None, oracle_note=note)
    _emit(payload, args, args.out)
    return 0


def cmd_pipeline(args) -> int:
    sample = LabeledSample(
        predictions=_read_csv(args.train_pred, None, int),
        labels=_read_csv(args.train_labels, ["label"], int)[:, 0],
    )
    test = EnsembleMatrix(_read_csv(args.test_pred, None, int))
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
    game_json = abstain_json = None
    predictions = votes
    probs = np.zeros(test.num_examples)

    if not report.degenerate:
        profile = sort_profile(votes, lam_hat)
        solution = solve_game(profile)
        predictions = solution.g_star.values
        raw = error_probability_bound(profile, report, args.delta)
        bounds = (None, None)
        if args.alpha is not None:
            abstain = solve_abstain(profile, args.alpha)
            probs = abstain.p_alg.probs
            abstain_json = _record(abstain)
            if args.alpha < 0.5:
                bounds = abstain_mistake_bounds(profile, report, args.delta)
        report = dataclasses.replace(
            report, error_bound=raw, abstain_bound=bounds[0], mistake_bound=bounds[1]
        )
        game_json = _record(solution)

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
        "examples": np.rec.fromarrays(
            [np.arange(len(votes)), votes, predictions, probs, np.sign(predictions).astype(int)],
            names="index,vote,prediction,abstain_probability,label",
        ),
        "fallback": report.degenerate,
        "seed": args.seed,
    }
    _emit(payload, args, args.out)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.nmax <= ENUM_MAX_N:
        raise ValidationError(f"nmax must lie in [1, {ENUM_MAX_N}]")
    if args.count < 1:
        raise ValidationError("count must be at least 1")

    if args.votes is None:
        payload = certify_batch(count=args.count, seed=args.seed, nmax=args.nmax)
    else:
        if args.lam is None:
            raise ValidationError("--lambda is required with --votes")
        votes = _read_votes(args.votes)
        if votes.size > ENUM_MAX_N:
            raise ValidationError(f"oracle certification is capped at n = {ENUM_MAX_N}")
        payload = {"instances_checked": 1, **certify_instance(votes, args.lam, args.alpha)}
        del payload["deviations"], payload["grid_excess"]
    _emit(payload, args, args.out)
    return 0 if payload["ok"] else 1


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
    pred_header = ",".join(f"h{j + 1}" for j in range(h))
    files = {}
    for key, name, cells, header in (
        ("train_pred", "train_predictions.csv", train_pred, pred_header),
        ("train_labels", "train_labels.csv", train_labels, "label"),
        ("test_pred", "test_predictions.csv", test_pred, pred_header),
    ):
        files[key] = out_dir / name
        np.savetxt(files[key], cells, fmt="%d", delimiter=",", header=header, comments="")

    manifest = {
        "seed": args.seed,
        "train_size": m,
        "test_size": n,
        "hypotheses": h,
        "base_error": args.base_error,
        "files": {key: str(path) for key, path in files.items()},
    }
    _emit(manifest, args, None)
    return 0


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


def _fail(error: str, exc: Exception | str, code: int) -> int:
    sys.stdout.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VoteboundError as exc:
        return _fail(exc.code, exc, 3 if isinstance(exc, (ParseError, DimensionError)) else 2)
    except ValueError as exc:
        # Domain-invalid numeric input (votes outside the box, bad weights).
        return _fail("validation_error", exc, 2)
    except OSError as exc:
        return _fail("io_error", exc, 4)
    except Exception as exc:  # a defect: still one JSON error line, never a traceback
        return _fail("internal_error", f"{type(exc).__name__}: {exc}", 5)


if __name__ == "__main__":
    sys.exit(main())
