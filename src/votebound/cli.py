"""Command-line surface: solve, abstain, pipeline, verify, gen.

Exit codes: 0 success, 1 certification failure, 2 domain/validation error
(including a result that is not a finite real), 3 parse/dimension error, 4 I/O
error, 5 internal error.  Errors are reported as JSON objects with ``error``
(a stable slug) and ``message``; a stdout closed by its reader gives 4 and no
output at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abstain import abstain_loss, solve_abstain
from .errors import DimensionError, VoteboundError
from .game import solve_game
from .model import (
    EnsembleMatrix,
    LabeledSample,
    WeightVector,
    _require_cost,
    compute_votes,
    sort_profile,
)
from .oracle import certify_batch, certify_instance, worst_case_abstain_loss
from .pacbayes import (
    PacBayesParams,
    epsilon,
    exp_weights_posterior,
    gibbs_train_error,
    kl_bound_train,
    kl_discrete,
    lambda_hat,
    probability_bounds,
)


# Rows formatted per text part of a report, and per write of a gen CSV.
_WRITE_ROWS = 8192


class ParseError(VoteboundError):
    """An input file could not be parsed."""

    code = "parse_error"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # an argument error ends as one JSON line, like any other
        raise ValueError(f"{self.prog}: {message}")


def _text(x, path: str) -> str:
    """The JSON text of a real (rounded to 12 significant digits), bool or integer scalar."""
    if isinstance(x, (float, np.floating)):
        if not abs(x) <= sys.float_info.max:
            raise ValueError(f"non-finite real ({float(x)}) at {path[1:]}")
        return repr(float(f"{float(x):.12g}"))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(int(x))


def _json(obj, pad: str = "", path: str = "") -> list[str]:
    """The text parts of ``json.dumps(obj, indent=2)``, reals rounded to 12 significant digits.

    Joined, the parts are the report.  A 1-D numeric array and a structured
    array (a list of records, one per row) are formatted once per distinct
    value and joined ``_WRITE_ROWS`` rows to a part (see ``_json_rows``).
    A NaN or infinite real is refused, named by its key path.
    """
    inner = pad + "  "
    if isinstance(obj, (float, np.floating, bool, np.bool_, int, np.integer)):
        return [_text(obj, path)]
    if isinstance(obj, np.ndarray) and (
        obj.dtype.names or (obj.ndim == 1 and obj.dtype.kind in "biuf")
    ):
        return _json_rows(obj, pad, path)
    if isinstance(obj, dict):
        items = [
            (f"\n{inner}{json.dumps(k)}: ", _json(v, inner, f"{path}.{k}")) for k, v in obj.items()
        ]
        opening, closing = "{", f"\n{pad}}}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [(f"\n{inner}", _json(value, inner, path)) for value in obj]
        opening, closing = "[", f"\n{pad}]"
    else:
        return [json.dumps(obj)]
    if not items:
        return [opening + closing[-1]]
    parts = [opening]
    for key, value in items:
        parts += [key, *value, ","]
    parts[-1] = closing
    return parts


def _json_rows(table: np.ndarray, pad: str, path: str) -> list[str]:
    """``_json`` of a 1-D numeric array, or of a structured array as a list of records.

    Each column's distinct values, keyed on their bits (so -0.0 and 0.0 stay
    apart), are formatted once, together with the text around them in a row:
    the row separator, the record's braces and the field's key line.
    Gathered back into one object array of rows by columns, the texts are
    joined ``_WRITE_ROWS`` rows to a part.
    """
    if table.size == 0:
        return ["[]"]
    inner, names = pad + "  ", table.dtype.names
    if names is None:
        columns, befores, after = [(table, path)], [f",\n{inner}"], ""
    else:
        columns = [(table[name], f"{path}.{name}") for name in names]
        keys = [f"\n{inner}  {json.dumps(name)}: " for name in names]
        befores = [f",\n{inner}{{{keys[0]}", *("," + key for key in keys[1:])]
        after = f"\n{inner}}}"
    cells = np.empty((table.size, len(columns)), dtype=object)
    for c, ((column, where), before) in enumerate(zip(columns, befores)):
        bits, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
        end = after if c == len(columns) - 1 else ""
        values = bits.view(column.dtype).tolist()
        # Integers need neither rounding nor a finiteness check.
        texts = map(str, values) if column.dtype.kind in "iu" else (_text(x, where) for x in values)
        cells[:, c] = np.array([before + text + end for text in texts], object)[inverse]
    cells[0, 0] = cells[0, 0][1:]  # no separator before the first row
    blocks = range(0, table.size, _WRITE_ROWS)
    rows = ("".join(cells[i : i + _WRITE_ROWS].ravel().tolist()) for i in blocks)
    return ["[", *rows, f"\n{pad}]"]


def _emit(payload: dict, args, out: str | None) -> None:
    """Write the report as JSON, with tool metadata unless --canonical.

    The whole report is formatted before the first byte is written, so a
    non-finite real leaves no partial report and no ``--out`` file.  Its
    parts are then written in turn, and never joined into one string.
    """
    if not args.canonical:
        payload["tool"] = {"name": "votebound", "version": __version__}
    parts = _json(payload)
    parts.append("\n")
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            stream.writelines(parts)
    else:
        sys.stdout.writelines(parts)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


def _read_csv(path: str, header: list[str] | None, dtype) -> np.ndarray:
    """The cells under a checked header line, one row per line.

    ``header=None`` expects the prediction header ``h1,...,hH``.  Every row
    must hold exactly the header's cell count, each cell parsing as ``dtype``;
    an integer cell past ``dtype``'s range does not parse.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            cells = f"integer cells from {info.min} to {info.max}"
        else:
            cells = f"{dtype.__name__} cells"
        raise ParseError(f"{path}: rows must hold {cells} ({detail})") from exc
    if cells.shape[1] != len(names):
        raise ParseError(f"{path}: every row must hold the header's {len(names)} cells")
    return cells


def _read_votes(path: str) -> np.ndarray:
    return _read_csv(path, ["vote"], float)[:, 0]


def _reals(value) -> bool:
    """True for one flat list of JSON numbers; a string, bool, null or nested list is not one."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    )


def _read_weights(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or not UTF-8
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "weights" not in payload:
        raise ParseError(f'{path}: expected an object with a "weights" array')
    weights, prior = payload["weights"], payload.get("prior")
    message = f'{path}: "weights" and "prior" must be flat arrays of reals'
    if not (_reals(weights) and (prior is None or _reals(prior))):
        raise ParseError(message)
    try:  # an integer past the float range
        weights = np.asarray(weights, dtype=float)
        return weights, None if prior is None else np.asarray(prior, dtype=float)
    except OverflowError as exc:
        raise ParseError(message) from exc


def _posterior(spec: str, sample: LabeledSample) -> tuple[WeightVector, WeightVector]:
    """Resolve a posterior spec; the prior defaults to uniform."""
    h = sample.num_hypotheses
    uniform = WeightVector(np.full(h, 1.0 / h))
    if spec == "uniform":
        return uniform, uniform
    if spec.startswith("exp:"):
        return exp_weights_posterior(sample, float(spec[4:])), uniform
    weights, prior = _read_weights(spec)
    return WeightVector(weights), uniform if prior is None else WeightVector(prior)


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
    profile = sort_profile(_read_votes(args.votes), args.lam)
    solution = solve_game(profile)
    abstain = solve_abstain(profile, args.alpha)
    record = _record(abstain)
    payload = {
        "n": profile.n,
        "lambda": profile.lam,
        "alpha": record.pop("alpha"),
        "v": solution.v,
        "game_value": solution.value,
        **record,
        "loss_vs_z_star": abstain_loss(solution.g_star, abstain.p_alg, solution.z_star),
        "oracle_worst_case_loss": worst_case_abstain_loss(profile, solution.g_star, abstain.p_alg),
    }
    _emit(payload, args, args.out)
    return 0


def cmd_pipeline(args) -> int:
    sample = LabeledSample(
        predictions=_read_csv(args.train_pred, None, np.int8),
        labels=_read_csv(args.train_labels, ["label"], np.int8)[:, 0],
    )
    test = EnsembleMatrix(_read_csv(args.test_pred, None, np.int8))
    if test.num_hypotheses != sample.num_hypotheses:
        raise DimensionError(
            f"train has {sample.num_hypotheses} hypotheses, test has {test.num_hypotheses}"
        )
    params = PacBayesParams(m=sample.num_examples, delta=args.delta)
    posterior, prior = _posterior(args.posterior, sample)

    gibbs = gibbs_train_error(sample, posterior)
    divergence = kl_discrete(posterior, prior)
    eps = epsilon(params, divergence)
    lam_hat = lambda_hat(gibbs, eps)
    degenerate = lam_hat <= 0.0

    votes = compute_votes(test, posterior)
    del test  # the n x H matrix is not needed past the votes
    game_json = abstain_json = raw = abstain_bound = mistake_bound = None
    predictions = votes
    probs = np.zeros(votes.size)

    if not degenerate:
        profile = sort_profile(votes, lam_hat)
        solution = solve_game(profile)
        predictions = solution.g_star.values
        raw, abstain_bound, mistake_bound = probability_bounds(profile, gibbs, eps, params.delta)
        if args.alpha is not None:
            abstain = solve_abstain(profile, args.alpha)
            probs = abstain.p_alg.probs
            abstain_json = _record(abstain)
        # The bounds hold for the abstaining p_alg (w is set), not the all-abstain strategy.
        if args.alpha is None or abstain.w is None:
            abstain_bound = mistake_bound = None
        game_json = _record(solution)

    payload = {
        "bound_report": {
            "m": params.m,
            "delta": params.delta,
            "posterior": args.posterior,
            "gibbs_train_error": gibbs,
            "kl_posterior_prior": divergence,
            "epsilon": eps,
            "lambda_hat": lam_hat,
            "train_kl_budget": kl_bound_train(params, divergence),
            "error_bound_raw": raw,
            "error_bound_clipped": None if raw is None else min(max(raw, 0.0), 1.0),
            "abstain_bound": abstain_bound,
            "mistake_bound": mistake_bound,
            "degenerate": degenerate,
        },
        "game_solution": game_json,
        "abstain_solution": abstain_json,
        "examples": np.rec.fromarrays(
            [np.arange(len(votes)), votes, predictions, probs, np.sign(predictions).astype(int)],
            names="index,vote,prediction,abstain_probability,label",
        ),
        "fallback": degenerate,
        "seed": args.seed,
    }
    _emit(payload, args, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.nmax < 1:
        raise ValueError("nmax must be at least 1")
    if args.count < 1:
        raise ValueError("count must be at least 1")
    if args.seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    if args.votes is None:
        if args.alpha is not None or args.lam is not None:
            raise ValueError("--alpha and --lambda apply only with --votes")
        payload = certify_batch(count=args.count, seed=args.seed, nmax=args.nmax)
    else:
        if args.lam is None:
            raise ValueError("--lambda is required with --votes")
        profile = sort_profile(_read_votes(args.votes), args.lam)
        abstain = None if args.alpha is None else solve_abstain(profile, args.alpha)
        report, _, _ = certify_instance(profile, solve_game(profile), abstain)
        payload = {"instances_checked": 1, **report}
    _emit(payload, args, args.out)
    return 0 if payload["ok"] else 1


# Entry b holds the cells of byte b's bits, most significant first, as np.packbits packs them.
_SIGN_TEXTS = [",".join(cells) for cells in itertools.product(("-1", "1"), repeat=8)]


def _write_signs(path: Path, blocks, header: str) -> None:
    """Write ``header``, then each row of the boolean row blocks as ``1``/``-1`` cells.

    Cells are joined by ``,`` and every row ends in a newline: the bytes of
    ``np.savetxt(path, cells, fmt="%d", delimiter=",", header=header,
    comments="")``, with the blocks stacked into ``cells``.  The header names
    each of the H columns.  Each run of eight cells is packed into a byte that
    picks its text from ``_SIGN_TEXTS``; the last ``H mod 8`` cells of a row
    take the first ``H mod 8`` cells of their byte's text.  Each block is
    formatted ``_WRITE_ROWS`` rows at a time.
    """
    tail = (header.count(",") + 1) % 8 or 8
    last = [",".join(text.split(",")[:tail]) + "\n" for text in _SIGN_TEXTS]
    table = np.array([text + "," for text in _SIGN_TEXTS] + last, dtype=object)
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        stream.write(header + "\n")
        for block in blocks:
            for start in range(0, len(block), _WRITE_ROWS):
                codes = np.packbits(block[start : start + _WRITE_ROWS], axis=1).astype(np.intp)
                codes[:, -1] += 256  # a row's last byte reads the texts that end the line
                stream.write("".join(table[codes].ravel().tolist()))


def _flips(rng, labels: np.ndarray, rates: np.ndarray):
    """Prediction rows in ``_WRITE_ROWS``-row blocks, each drawn when it is written.

    A cell is +1 where the label is +1 and the hypothesis does not flip it,
    or the reverse.  The Generator fills blocks in row order, so the cells
    are those of one whole ``rng.random((len(labels), len(rates)))`` draw.
    """
    for start in range(0, labels.size, _WRITE_ROWS):
        rows = labels[start : start + _WRITE_ROWS, None]
        yield rows ^ (rng.random((rows.shape[0], rates.size)) < rates)


def cmd_gen(args) -> int:
    if args.train_size < 1 or args.test_size < 1 or args.hypotheses < 1:
        raise ValueError("sizes must be positive")
    if args.seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not 0.0 < args.base_error < 0.5:
        raise ValueError("base error must lie strictly inside (0, 0.5)")

    rng = np.random.default_rng(args.seed)
    m, n, h = args.train_size, args.test_size, args.hypotheses
    train_labels = rng.integers(0, 2, m) == 1
    test_labels = rng.integers(0, 2, n) == 1
    rates = np.clip(
        rng.uniform(0.8 * args.base_error, 1.2 * args.base_error, h), 1e-6, 0.499
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_header = ",".join(f"h{j + 1}" for j in range(h))
    files = {}
    # Blocks are drawn as they are written, so every train flip is drawn before any test flip.
    for key, name, blocks, header in (
        ("train_pred", "train_predictions.csv", _flips(rng, train_labels, rates), pred_header),
        ("train_labels", "train_labels.csv", [train_labels[:, None]], "label"),
        ("test_pred", "test_predictions.csv", _flips(rng, test_labels, rates), pred_header),
    ):
        files[key] = out_dir / name
        _write_signs(files[key], blocks, header)

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
    parser = _ArgumentParser(
        prog="votebound",
        description=(
            "Aggregate an ensemble of binary classifiers over an unlabeled test "
            "set into minimax confidence-rated (optionally abstaining) "
            "predictions with PAC-Bayes guarantees."
        ),
    )
    parser.add_argument("--version", action="version", version=f"votebound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, **out):
        p.add_argument("--out", **{"help": "write the JSON report here instead of stdout", **out})
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
    common(p_gen, required=True, help="directory for the three CSVs; the manifest goes to stdout")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def _fail(error: str, exc: Exception | str, code: int) -> int:
    print(json.dumps({"error": error, "message": str(exc)}), flush=True)
    return code


def _run(argv) -> int:
    """The command's exit code; an error it raises is reported as one JSON line."""
    try:
        args = build_parser().parse_args(argv)  # --help and --version exit here
        if getattr(args, "alpha", None) is not None:
            _require_cost(args.alpha)  # before any file is read
        return args.func(args)
    except VoteboundError as exc:
        return _fail(exc.code, exc, 3 if isinstance(exc, (ParseError, DimensionError)) else 2)
    except ValueError as exc:
        # Argument and range errors, and domain-invalid input (votes outside the box).
        return _fail("validation_error", exc, 2)
    except OSError as exc:
        return _fail("io_error", exc, 4)
    except Exception as exc:  # a defect: still one JSON error line, never a traceback
        return _fail("internal_error", f"{type(exc).__name__}: {exc}", 5)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # The reader closed stdout, during the report or the error line: nothing more can
        # be written, and the flush at exit must not try again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


if __name__ == "__main__":
    sys.exit(main())
