"""votebound benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a votebound checkout:

    python3 bench/run.py --workload pipeline-100k --seed 1 --seconds 30 --trace 0

The package is always the checkout's own ``src/`` tree, never an installed
copy: CLI operations run ``python -m votebound.cli`` with that ``src/`` on
PYTHONPATH, and in-process operations import it from there.  BLAS threads are
capped at the number of usable CPUs.

Load is a closed loop with one client: one process issues one operation, waits
for it to end, checks its output outside the timed region, and issues the
next, until ``--seconds`` of operation time have been measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
traced run that reports the per-layer metrics: it alternates untraced and
traced in-process operations (``cli.main(argv)`` for CLI workloads), with
spans recorded around the package's public functions (see ``spans.py``).

Standard output: the run context (versions, machine, sizes, seed, sha256 of
the canonical output), one line per metric with its unit, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.

Seeds: the default is 1.  Seed 20150115 is held out: no tuning of the
benchmark used it, so use it to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (BLAS reads the thread cap when numpy loads)

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20150115
SETUP_REPS = 3
IMPORT_REPS = 5
RUN_BUDGET_S = 150.0
LAYERS = ("model", "pacbayes", "game", "abstain", "oracle")
TOL = 1e-9

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


class Proc(NamedTuple):
    wall: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str


def spawn(argv: list[str], work: Path, timeout: float) -> Proc:
    """Run a child to completion; its peak RSS comes from wait4."""
    out_path = work / "child.out"
    err_path = work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return Proc(
        wall,
        usage.ru_maxrss / 1024.0,
        child.returncode,
        out_path.read_bytes(),
        err_path.read_bytes().decode(errors="replace"),
    )


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _load_votebound():
    """Import the checkout's package, refusing any other copy."""
    if not (SRC / "votebound" / "__init__.py").is_file():
        raise SystemExit(f"bench: no votebound package under {SRC}")
    sys.path.insert(0, str(SRC))
    import votebound
    import votebound.cli

    if Path(votebound.__file__).resolve().parent != SRC / "votebound":
        raise SystemExit(f"bench: imported votebound from {votebound.__file__}")
    return votebound


# ---------------------------------------------------------------------------
# Output checks, made outside the timed region by routes independent of the
# code under test.


def _compact(node):
    """The same JSON value with every array reduced to its distinct items."""
    if isinstance(node, dict):
        return {key: _compact(value) for key, value in node.items()}
    if isinstance(node, list):
        distinct = {}
        for item in node:
            distinct.setdefault(json.dumps(item, sort_keys=True), item)
        return [_compact(item) for item in distinct.values()]
    return node


def schema_problems(report: dict, schema: dict) -> list[str]:
    """Validate a pipeline report against its published schema.

    The schema constrains arrays only through ``items``, which it checks one
    item at a time, so validating each distinct item once is equivalent and
    takes milliseconds instead of seconds at 1e5 examples.  Example indices
    make every item distinct, so they are checked here and then blanked.
    """
    import jsonschema

    examples = report.get("examples")
    problems = []
    if isinstance(examples, list):
        indices = [e.get("index") if isinstance(e, dict) else None for e in examples]
        if indices != list(range(len(examples))) or any(type(i) is not int for i in indices):
            problems.append("example indices are not 0..n-1")
        report = dict(report, examples=[dict(e, index=0) if isinstance(e, dict) else e for e in examples])
    validator = jsonschema.Draft202012Validator(schema)
    problems += [f"schema: {error.message[:200]}" for error in validator.iter_errors(_compact(report))]
    return problems


def _close(a: float, b: float, what: str) -> list[str]:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= TOL:
        return []
    return [f"{what}: {a!r} != {b!r}"]


def _load_grid(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int8, ndmin=2)


def check_pipeline(report_bytes: bytes, data: dict, delta: float, alpha: float, schema: dict) -> list[str]:
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = schema_problems(report, schema)
    if problems:
        return problems
    game = report["game_solution"]
    abstain = report["abstain_solution"]
    if report["fallback"] or game is None or abstain is None:
        return ["expected a nondegenerate run with game and abstain solutions"]

    # lambda_hat from the CSVs: uniform posterior, so KL to the uniform prior is 0.
    train, labels, test = data["train"], data["labels"], data["test"]
    m, h = train.shape
    weights = np.full(h, 1.0 / h)
    gibbs = (1.0 - math.fsum(labels * (train @ weights)) / m) / 2.0
    eps = math.sqrt((2.0 / m) * math.log(2.0 * (m + 1) / delta))
    lam = 1.0 - 2.0 * gibbs - 2.0 * eps
    problems += _close(report["bound_report"]["lambda_hat"], lam, "lambda_hat")

    votes = test @ weights
    z = np.asarray(game["z_star"], dtype=float)
    g = np.asarray(game["g_star"], dtype=float)
    if z.size != votes.size or g.size != votes.size:
        return problems + ["g_star/z_star length differs from the test set"]
    problems += _close(math.fsum(z * votes) / votes.size, lam, "mean z*.a vs lambda_hat")
    problems += _close(math.fsum(g * z) / votes.size, game["value"], "mean g*.z* vs value")
    problems += _close(abstain["alpha"], alpha, "alpha")
    return problems


def exact_threshold(votes: np.ndarray, lam: float) -> tuple[int, float]:
    """Threshold v and game value from np.sort, settled by exact fsum prefixes."""
    n = votes.size
    magnitudes = np.sort(np.abs(votes))[::-1]
    target = n * lam
    start = max(int(np.searchsorted(np.cumsum(magnitudes), target)) - 2, 1)
    while start > 1 and math.fsum(magnitudes[: start - 1]) >= target:
        start -= 1
    v = next(k for k in range(start, n + 1) if math.fsum(magnitudes[:k]) >= target)
    head = math.fsum(magnitudes[: v - 1])
    return v, (v - 1) / n + (lam - head / n) / float(magnitudes[v - 1])


def check_solve(votes: np.ndarray, lam: float, alpha: float, result) -> list[str]:
    game, abstain = result
    n = votes.size
    v, value = exact_threshold(votes, lam)
    problems = [] if game.v == v else [f"v: {game.v} != {v}"]
    problems += _close(game.value, value, "value")
    problems += _close(math.fsum(game.z_star.values * votes) / n, lam, "z* binding")
    trivial_edge = 0.5 * (1.0 - n * lam / math.fsum(np.abs(votes)))
    if not alpha > trivial_edge or abstain.trivial or abstain.w is None:
        problems.append("abstain regime is not the nontrivial one")
    return problems


def solve_digest(result) -> str:
    """sha256 of the library result, bit for bit (scalars by repr, arrays as float64)."""
    game, abstain = result
    digest = hashlib.sha256()
    for array in (game.g_star.values, game.z_star.values, abstain.p_alg.probs):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    scalars = [getattr(game, k, None) for k in ("v", "value", "lower_bound")]
    scalars += [
        getattr(abstain, k, None)
        for k in (
            "trivial", "w", "budget", "value_exact", "value_lower", "value_upper",
            "loss_formula", "loss_no_abstain", "loss_abstain", "v2",
        )
    ]
    digest.update(repr(scalars).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each one prepares its inputs from the seed, runs one op in a
# fresh process or in-process, and checks an op's output.


class CliWorkload:
    """An op is one ``votebound`` CLI command writing its report with --out."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.report = work / "report.json"

    def setup_argv(self) -> list[str]:
        return _python("-c", "import votebound.cli")

    def prepare(self) -> None:
        """Load what the checks need, once the set-up child has made the inputs."""

    def op_argv(self) -> list[str]:
        raise NotImplementedError

    def run_subprocess(self, timeout: float):
        self.report.unlink(missing_ok=True)
        proc = spawn(_python("-m", "votebound.cli", *self.op_argv()), self.work, timeout)
        output = self.report.read_bytes() if self.report.exists() else b""
        return proc.wall, proc.rss_mb, (proc.code, output), proc.stderr

    def run_inprocess(self, vb, tracer=None):
        self.report.unlink(missing_ok=True)
        start = perf_counter()
        if tracer is None:
            code = vb.cli.main(self.op_argv())
        else:
            with tracer.installed(), tracer.span("cli.main"):
                code = vb.cli.main(self.op_argv())
        wall = perf_counter() - start
        return wall, (code, self.report.read_bytes() if self.report.exists() else b"")

    def digest(self, output) -> str:
        return hashlib.sha256(output[1]).hexdigest()

    def bytes_out(self, output) -> int:
        return len(output[1])

    def check(self, output) -> list[str]:
        code, report = output
        if code != 0:
            return [f"exit code {code}"]
        return self.check_report(report)


class Pipeline(CliWorkload):
    name = "pipeline-100k"
    why = (
        "What a user runs to certify an ensemble. Time is almost all CLI CSV parse "
        "and JSON emit, little is solver; the uniform posterior gives 33 tied vote values."
    )
    alpha = 0.25
    delta = 0.05

    def __init__(self, seed, work, train=20000, test=100000, hypotheses=32, base_error=0.1):
        super().__init__(seed, work)
        self.sizes = {"train_size": train, "test_size": test, "hypotheses": hypotheses, "base_error": base_error}
        self.items = test
        self.data_dir = work / "data"

    def setup_argv(self):
        return _python(
            "-m", "votebound.cli", "gen", "--seed", str(self.seed),
            "--train-size", str(self.sizes["train_size"]),
            "--test-size", str(self.sizes["test_size"]),
            "--hypotheses", str(self.sizes["hypotheses"]),
            "--base-error", str(self.sizes["base_error"]),
            "--out", str(self.data_dir), "--canonical",
        )

    def prepare(self):
        self.data = {
            "train": _load_grid(self.data_dir / "train_predictions.csv").astype(float),
            "labels": np.loadtxt(self.data_dir / "train_labels.csv", skiprows=1, ndmin=1),
            "test": _load_grid(self.data_dir / "test_predictions.csv").astype(float),
        }

    def op_argv(self):
        return [
            "pipeline",
            "--train-pred", str(self.data_dir / "train_predictions.csv"),
            "--train-labels", str(self.data_dir / "train_labels.csv"),
            "--test-pred", str(self.data_dir / "test_predictions.csv"),
            "--alpha", str(self.alpha), "--canonical", "--out", str(self.report),
        ]

    def check_report(self, report):
        from votebound.schema import PIPELINE_REPORT_SCHEMA

        return check_pipeline(report, self.data, self.delta, self.alpha, PIPELINE_REPORT_SCHEMA)


class Verify(CliWorkload):
    name = "verify-batch"
    why = (
        "Oracle-bound: thousands of model/game/abstain calls at n <= 8, so fixed "
        "per-call cost added for large-n speed shows here."
    )

    def __init__(self, seed, work, count=500, nmax=8):
        super().__init__(seed, work)
        self.sizes = {"count": count, "nmax": nmax}
        self.items = count

    def op_argv(self):
        return [
            "verify", "--count", str(self.sizes["count"]), "--nmax", str(self.sizes["nmax"]),
            "--seed", str(self.seed), "--canonical", "--out", str(self.report),
        ]

    def check_report(self, report):
        try:
            summary = json.loads(report)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = [] if summary.get("ok") is True else ["ok is not true"]
        if summary.get("instances_checked") != self.sizes["count"]:
            problems.append(f"instances_checked {summary.get('instances_checked')!r}")
        return problems


class Solve:
    """An op is the library path sort_profile + solve_game + solve_abstain."""

    name = "solve-1m"
    why = (
        "The library solver path on 1e6 untied continuous votes: all model/game/abstain, "
        "no CLI; the opposite tie structure to the pipeline."
    )
    lam = 0.3
    alpha = 0.25

    def __init__(self, seed, work, n=1_000_000):
        self.seed = seed
        self.work = work
        self.sizes = {"n": n, "lambda": self.lam, "alpha": self.alpha}
        self.items = n
        self._make = f"import numpy as np, votebound as vb; votes = np.random.default_rng({seed}).uniform(-1.0, 1.0, {n})"
        self._op = f"p = vb.sort_profile(votes, {self.lam}); vb.solve_game(p); vb.solve_abstain(p, {self.alpha})"

    def setup_argv(self):
        return _python("-c", self._make)

    def prepare(self):
        self.votes = np.random.default_rng(self.seed).uniform(-1.0, 1.0, self.sizes["n"])

    def peak_rss_mb(self, timeout):
        proc = spawn(_python("-c", f"{self._make}; {self._op}"), self.work, timeout)
        if proc.code != 0:
            raise RuntimeError(proc.stderr)
        return proc.rss_mb

    def run_inprocess(self, vb, tracer=None):
        def op():
            profile = vb.sort_profile(self.votes, self.lam)
            return vb.solve_game(profile), vb.solve_abstain(profile, self.alpha)

        start = perf_counter()
        if tracer is None:
            result = op()
        else:
            with tracer.installed():
                result = op()
        return perf_counter() - start, result

    def digest(self, output):
        return solve_digest(output)

    def bytes_out(self, output):
        return 0

    def check(self, output):
        return check_solve(self.votes, self.lam, self.alpha, output)


WORKLOADS = {w.name: w for w in (Pipeline, Solve, Verify)}

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.read_s": "s", "cli.emit_s": "s", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "cli.import_s": "s", "pacbayes.s": "s", "model.votes_s": "s", "model.profile_s": "s",
    "model.profile.calls": "count", "model.compensated_cumsum.elements": "count",
    "game.s": "s", "game.find_threshold.calls": "count", "abstain.s": "s",
    "abstain.inner_s": "s", "oracle.self_s": "s", "oracle.enumerate_s": "s",
    "oracle.lp_s": "s", "oracle.grid_s": "s", "oracle.instances": "count",
    "trace.overhead_s": "s",
}


class Run:
    """Op accounting for one benchmark run: every op is checked and counted."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.start)

    def more(self, busy: float) -> bool:
        return self.attempted == 0 or (busy < self.seconds and self.remaining() > 0)

    def record(self, output, error: str = "") -> None:
        """Check one op: fully until one output passes, then by its digest."""
        self.attempted += 1
        if error:
            problems = [error]
        else:
            digest = self.workload.digest(output)
            if self.reference is None:
                try:
                    problems = self.workload.check(output)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
                if not problems:
                    self.reference = digest
            else:
                problems = [] if digest == self.reference else ["output differs from the checked output"]
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in problems]


def set_up(workload, run: Run, reps: int) -> list[float]:
    """Wall seconds of fresh processes that import the package and make the inputs."""
    walls = []
    for _ in range(reps):
        proc = spawn(workload.setup_argv(), workload.work, run.remaining())
        if proc.code != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr}")
        walls.append(proc.wall)
    workload.prepare()
    return walls


def run_untraced(workload, vb, seconds: float) -> tuple[Run, dict]:
    run = Run(workload, seconds)
    setup = set_up(workload, run, SETUP_REPS)

    walls, rss = [], []
    while run.more(sum(walls)):
        if isinstance(workload, CliWorkload):
            wall, rss_mb, output, stderr = workload.run_subprocess(run.remaining())
            rss.append(rss_mb)
            run.record(output, "" if output[0] == 0 else f"exit {output[0]}: {stderr[-500:]}")
        else:
            try:
                wall, output = workload.run_inprocess(vb)
                run.record(output)
            except Exception:
                wall = 0.0
                run.record(None, traceback.format_exc(limit=3))
        walls.append(wall)
    if not rss:
        rss.append(workload.peak_rss_mb(run.remaining()))
    metrics = {
        "setup_s": median(setup),
        "op_s.p50": median(walls),
        "items_per_s": workload.items * len(walls) / sum(walls) if sum(walls) > 0 else 0.0,
        "peak_rss_mb": median(rss),
    }
    return run, metrics


def import_seconds(work: Path, timeout: float) -> float:
    code = (
        "import time; t = time.perf_counter(); import votebound.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = spawn(_python("-c", code), work, timeout)
    if proc.code != 0:
        raise RuntimeError(proc.stderr)
    return float(proc.stdout)


def run_traced(workload, vb, seconds: float) -> tuple[Run, dict, list]:
    run = Run(workload, seconds)
    set_up(workload, run, 1)
    imports = [import_seconds(workload.work, run.remaining()) for _ in range(IMPORT_REPS)]
    tracer = spans.Tracer("votebound", LAYERS)
    plain, traced, sizes = [], [], []
    while run.more(sum(plain) + sum(traced)):
        # Alternate which side of the pair runs first, so order effects cancel.
        for sink in (plain, traced) if len(traced) % 2 == 0 else (traced, plain):
            tracer.op = len(traced)
            try:
                wall, output = workload.run_inprocess(vb, tracer if sink is traced else None)
                run.record(output)
                if sink is traced:
                    sizes.append(workload.bytes_out(output))
            except Exception:
                wall = 0.0
                run.record(None, traceback.format_exc(limit=3))
            sink.append(wall)
    per_op = [
        spans.op_metrics([s for s in tracer.spans if s.op == op]) for op in range(len(traced))
    ]
    metrics = {name: median(m[name] for m in per_op) for name in per_op[0]}
    metrics["cli.bytes_out"] = median(sizes) if sizes else 0
    metrics["cli.import_s"] = median(imports)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return run, {name: metrics[name] for name in PER_LAYER_UNITS}, tracer.spans


def context(workload, seed: int, vb, output_sha256) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "sizes": workload.sizes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "votebound": getattr(vb, "__version__", None),
        "nproc": NPROC,
        "blas_threads": NPROC,
        "cpu": cpu,
        "load": "closed loop, one client",
        "output_sha256": output_sha256,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out to confirm claims)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vb = _load_votebound()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            run, metrics, recorded = run_traced(workload, vb, args.seconds)
            units = PER_LAYER_UNITS
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as f:
                for span in recorded:
                    f.write(json.dumps(span._asdict()) + "\n")
        else:
            run, metrics = run_untraced(workload, vb, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"votebound bench: {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print("context " + json.dumps(context(workload, args.seed, vb, run.reference)))
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    print(f"ops = {run.attempted} (closed loop, one client)")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} ratio ({run.failed} of {run.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
