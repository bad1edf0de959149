"""Byte-for-byte regression check of canonical CLI reports and library results.

Every case runs the CLI in-process with ``--canonical --out`` (or the library
solvers directly) and compares the bytes it writes against ``tests/golden/``:
small reports are stored whole, large ones as a sha256 in ``SHA256SUMS``.
``gen`` must rewrite the committed input data under ``golden/data`` byte for
byte (its manifest echoes the output paths, so only the files are compared).
The expected files are frozen; rewrite them only for an intended output
change, and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from votebound import solve_abstain, solve_game, sort_profile
from votebound.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = GOLDEN / "data"
SUMS = GOLDEN / "SHA256SUMS"
# Reports at most this large are stored whole; larger ones by digest only.
INLINE_MAX_BYTES = 8192

FIXTURES = {
    "fix1": ([1.0, 0.8, 0.5, 0.2], 0.5),
    "fix2": ([1.0, 0.8, 0.6, 0.2], 0.6),
    "fix3": ([-0.9, 0.6], 0.6),
}


def tied_votes() -> tuple[np.ndarray, float]:
    """64 votes on the grid k/8 (zeros and heavy ties), built from integers.

    lambda makes the top-20 margins hit n*lambda exactly: every quantity is
    dyadic, so the threshold sits on an exact tie of the prefix sum.
    """
    k = (np.arange(64) * 5) % 17 - 8
    votes = k / 8.0
    top = np.sort(np.abs(k))[::-1][:20].sum()
    return votes, float(top) / 8.0 / 64.0


def mid_votes() -> tuple[np.ndarray, float]:
    """5000 votes on the grid k/20: 41 levels with exact ties and zeros."""
    k = (np.arange(5000) * 37) % 41 - 20
    return k / 20.0, 0.3


def library_votes() -> np.ndarray:
    """2e5 generic (non-dyadic) votes from a Lehmer sequence, no RNG."""
    k = (np.arange(1, 200_001, dtype=np.int64) * 48271) % 2147483647
    return k / 1073741823.5 - 1.0


VOTE_SETS = {
    **{name: (np.array(v), lam) for name, (v, lam) in FIXTURES.items()},
    "tied": tied_votes(),
    "mid": mid_votes(),
}


def _write_votes(path: Path, votes) -> str:
    path.write_text("vote\n" + "".join(f"{x!r}\n" for x in map(float, votes)), "utf-8")
    return str(path)


def _cases() -> dict[str, object]:
    """Case name -> argv builder taking a scratch directory."""
    cases = {}

    def votes_argv(command, name, *extra):
        def build(tmp: Path):
            votes, lam = VOTE_SETS[name]
            path = _write_votes(tmp / f"{name}.csv", votes)
            return [command, "--votes", path, "--lambda", repr(lam), *extra]

        return build

    for name in VOTE_SETS:
        cases[f"solve_{name}"] = votes_argv("solve", name)
        for alpha in ("0.05", "0.25", "0.5", "0.7"):
            cases[f"abstain_{name}_a{alpha}"] = votes_argv("abstain", name, "--alpha", alpha)
    for name in FIXTURES:
        cases[f"verify_{name}"] = votes_argv("verify", name, "--alpha", "0.25")
    cases["verify_fix1_game_only"] = votes_argv("verify", "fix1")
    cases["verify_batch_300_n8"] = lambda tmp: ["verify", "--count", "300", "--nmax", "8"]

    def pipeline(posterior, alpha):
        def build(tmp: Path):
            argv = [
                "pipeline",
                "--train-pred", str(DATA / "train_predictions.csv"),
                "--train-labels", str(DATA / "train_labels.csv"),
                "--test-pred", str(DATA / "test_predictions.csv"),
                "--posterior", posterior,
                "--seed", "7",
            ]
            return argv + (["--alpha", alpha] if alpha else [])

        return build

    for posterior in ("uniform", "exp:3"):
        for alpha in ("0.1", "0.25", "0.6", None):
            tag = posterior.replace(":", "")
            cases[f"pipeline_{tag}_a{alpha or 'none'}"] = pipeline(posterior, alpha)
    return cases


CASES = _cases()


def render_cli(case: str, tmp: Path) -> bytes:
    out = tmp / "report.json"
    code = main(CASES[case](tmp) + ["--canonical", "--out", str(out)])
    assert code == 0, f"{case} exited {code}"
    return out.read_bytes()


def render_library() -> bytes:
    """repr of every scalar plus sha256 of g*, z*, p_alg bytes at n = 2e5."""
    votes = library_votes()
    profile = sort_profile(votes, 0.3)
    game = solve_game(profile)
    lines = [f"game v={game.v!r} value={game.value!r} lower_bound={game.lower_bound!r}"]
    arrays = [game.g_star.values, game.z_star.values]
    for alpha in (0.25, 0.45):
        ab = solve_abstain(profile, alpha)
        scalars = (
            "trivial", "w", "budget", "value_exact", "value_lower", "value_upper",
            "value_closed_form", "loss_formula", "loss_no_abstain",
        )
        lines.append(f"abstain alpha={alpha!r} " + " ".join(
            f"{key}={getattr(ab, key)!r}" for key in scalars
        ))
        arrays.append(ab.p_alg.probs)
    for label, array in zip(("g_star", "z_star", "p_alg_0.25", "p_alg_0.45"), arrays):
        raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
        lines.append(f"{label} sha256={hashlib.sha256(raw).hexdigest()}")
    return ("\n".join(lines) + "\n").encode()


def _read_sums() -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text("utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        sums[name] = digest
    return sums


def _check(name: str, produced: bytes) -> None:
    inline = GOLDEN / name
    if inline.exists():
        assert produced == inline.read_bytes(), f"{name} differs from its golden file"
    else:
        expected = _read_sums()[name]
        assert hashlib.sha256(produced).hexdigest() == expected, f"{name} digest differs"


@pytest.mark.parametrize("case", sorted(CASES))
def test_canonical_report_is_byte_identical(case, tmp_path):
    _check(f"{case}.json", render_cli(case, tmp_path))


def test_library_digest_is_bit_identical():
    _check("library_2e5.txt", render_library())


@pytest.mark.parametrize("name", ["train_predictions.csv", "train_labels.csv", "test_predictions.csv"])
def test_gen_reproduces_the_committed_data(name, tmp_path, capsys):
    """gen with the arguments that made tests/golden/data rewrites it byte for byte."""
    argv = [
        "gen", "--seed", "7", "--train-size", "1000", "--test-size", "400",
        "--hypotheses", "12", "--base-error", "0.1", "--canonical", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def _write_all() -> None:
    import tempfile

    outputs = {"library_2e5.txt": render_library()}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs[f"{case}.json"] = render_cli(case, Path(tmp))
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    sums = []
    for name, produced in sorted(outputs.items()):
        if len(produced) <= INLINE_MAX_BYTES:
            (GOLDEN / name).write_bytes(produced)
        else:
            sums.append(f"{hashlib.sha256(produced).hexdigest()}  {name}\n")
    SUMS.write_text("".join(sums), "utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write_all()
