"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: resolve-rank3, resolve-mixed, certify, glue (see README.md).  One
client runs the workload's operations back to back, single-threaded, and each
operation's output passes the correctness gate before the next starts.  Every
lru cache of qres is cleared before each operation, so each one starts from
the state a fresh ``qres`` process has.

``--trace 0`` sets up once, then times passes over the operations in fresh
worker processes, one at a time, until ``--seconds`` have passed, and reports
the end-to-end metrics from per-operation medians of the pooled samples, each
scaled by its worker's speed on the reference workload (``reference.py``).
``--trace 1`` runs every operation untraced and then with every qres layer
wrapped in spans, pass after pass, and reports the per-layer metrics; the
spans are written to ``.bench_build/perfbench/spans-<workload>-<seed>.csv``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path[:0] = [p for p in (str(ROOT), str(SRC)) if p not in sys.path]

IMPORT_ERROR: ImportError | None = None
try:
    from perfbench import reference, tracing, workloads
except ImportError as exc:  # no program next to the benchmark
    reference = tracing = workloads = None
    IMPORT_ERROR = exc

# set-up is repeated this many times per run and its median reported; the
# certify set-up resolves every input, so it runs once
SETUP_REPEATS = {"certify": 1}
DEFAULT_SETUP_REPEATS = 3

# share of each op's time spent timing the reference workload after it
REFERENCE_SHARE = 0.15
# a --trace 0 run times its ops in fresh processes, each for this share of
# --seconds (at least one pass)
WORKERS = 5
WORKER_TIMEOUT_S = 170

END_TO_END = ("setup_s", "wall_s", "max_op_s", "peak_rss_mb")
COMMAND_UNITS = {"glue_samples_per_s": "1/s", "fail_share": "ratio"}


class Runner:
    """Runs operations one at a time from a cleared-cache state and keeps score.

    With a ``tracer`` installed, spans recorded while an op's output is
    checked are dropped, and ``stats`` reads the caches before they are
    cleared for the next op.  With ``reference`` a list, the reference
    workload is timed into it after each op, for 15 % of the op's time.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.caches = tracing.lru_caches()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.stats = None
        self.reference: list[float] | None = None

    def execute(self, op) -> float:
        tracing.clear_caches(self.caches)
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = op.run()
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            self._fail(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}", exc)
            return elapsed
        elapsed = time.perf_counter() - start
        if self.reference is not None:
            reference.sample(self.reference, REFERENCE_SHARE * elapsed)
        mark = None
        if self.tracer is not None:
            self.stats.add()
            mark = len(self.tracer.spans)
        try:
            op.check(outcome)
        except workloads.GateError as exc:
            self._fail(f"{op.kind} {op.label}: {exc}", None)
        except Exception as exc:  # a malformed output is a gate failure too
            self._fail(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}", exc)
        if mark is not None:
            self.tracer.spans.truncate(mark)
        return elapsed

    def _fail(self, message: str, exc) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def timed(self, seconds: float) -> list[list[float]]:
        """Cycle through the ops for ``seconds``, at least one whole pass.

        After the first pass, an op whose last time would carry the run past
        ``seconds`` ends it.
        """
        samples: list[list[float]] = [[] for _ in self.ops]
        start = time.perf_counter()
        for op, times in zip(self.ops, samples):
            times.append(self.execute(op))
        while True:
            for op, times in zip(self.ops, samples):
                if time.perf_counter() - start + times[-1] > seconds:
                    return samples
                times.append(self.execute(op))


def command_metrics(ops, medians: list[float], runner: Runner) -> dict[str, float]:
    """Per-command totals of one pass, from per-operation times."""
    by_kind = {kind: 0.0 for kind in ("resolve", "classify", "replay", "glue")}
    for op, t in zip(ops, medians):
        by_kind[op.kind] += t
    samples = sum(op.samples for op in ops)
    return {
        "resolve_s": by_kind["resolve"],
        "classify_s": by_kind["classify"],
        "replay_s": by_kind["replay"],
        "glue_samples_per_s": samples / by_kind["glue"] if by_kind["glue"] else 0.0,
        "fail_share": runner.failed / runner.attempted,
    }


def setup(workload: str, seed: int, workdir: Path, smoke: bool, repeats: int):
    """Builds the inputs ``repeats`` times; returns the ops and the median time."""
    times, ops = [], None
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        ops = workloads.build(workload, seed, workdir, smoke)
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        started: float | None = None) -> dict:
    """One benchmark run; ``started`` is when the process began, for set-up time."""
    started = time.perf_counter() if started is None else started
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - started

    workdir = BUILD / f"work-{workload}-{os.getpid()}"
    try:
        repeats = SETUP_REPEATS.get(workload, DEFAULT_SETUP_REPEATS)
        ops, build_s = setup(workload, seed, workdir, smoke, repeats)
        runner = Runner(ops)
        if trace:
            metrics = traced_metrics(runner, seconds, BUILD / f"spans-{workload}-{seed}.csv")
            report = {name: (metrics[name], unit) for name, unit, _ in tracing.PER_LAYER}
        else:
            timing = timed_in_workers(runner, workload, seed, seconds, workdir, smoke)
            medians = [statistics.median(s) for s in timing.scaled]
            setup_s = import_s + build_s
            report = {
                "setup_s": (setup_s * timing.scale, "s"),
                "wall_s": (sum(medians), "s"),
                "max_op_s": (max(medians), "s"),
                "peak_rss_mb": (timing.rss_mb, "MB"),
            }
            for name, value in command_metrics(ops, medians, runner).items():
                report[name] = (value, COMMAND_UNITS.get(name, "s"))
            raw = [statistics.median(s) for s in timing.raw]
            report["unscaled.setup_s"] = (setup_s, "s")
            report["unscaled.wall_s"] = (sum(raw), "s")
            report["unscaled.max_op_s"] = (max(raw), "s")
            report["reference_s"] = (reference.REFERENCE_S / timing.scale, "s")
            report["workers"] = (timing.workers, "count")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in report.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    for message in runner.errors:
        print(f"gate failure: {message}")
    reported = {name for name, _, _ in tracing.PER_LAYER} if trace else set(END_TO_END)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items() if name in reported},
    }


@dataclass
class Timing:
    """Per-op time samples pooled over the worker processes of one run."""

    raw: list[list[float]]
    scaled: list[list[float]]  # each worker's samples times its speed scale
    scale: float  # median of the workers' speed scales
    workers: int
    rss_mb: float  # largest peak resident memory of a worker


def timed_in_workers(runner: Runner, workload: str, seed: int, seconds: float,
                     workdir: Path, smoke: bool) -> Timing:
    """Times the ops in fresh worker processes, one after another; at least
    one worker runs, and after it, no worker starts that would carry the run
    past ``seconds`` by more than half the last worker's time.

    Each worker gets ``seconds / WORKERS``, runs at least one whole pass and
    times the reference workload after every op.  Its samples are scaled by
    ``REFERENCE_S`` over its median reference time.  Fresh processes average
    out the speed offset one process keeps for its whole life, which differs
    between the reference and qres; the scales remove the machine's drift
    between and within workers.  Gate results are added to ``runner``.
    """
    n = len(runner.ops)
    raw: list[list[float]] = [[] for _ in range(n)]
    scaled: list[list[float]] = [[] for _ in range(n)]
    scales, rss = [], 0.0
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds / WORKERS), "--worker", str(workdir)]
    argv += ["--smoke"] if smoke else []
    start = time.perf_counter()
    worker_s = 0.0
    while not scales or time.perf_counter() - start + worker_s / 2 <= seconds:
        began = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        scale = reference.REFERENCE_S / statistics.median(out["reference"])
        for i, samples in enumerate(out["samples"]):
            raw[i] += samples
            scaled[i] += [t * scale for t in samples]
        scales.append(scale)
        rss = max(rss, out["rss_mb"])
        runner.attempted += out["attempted"]
        runner.failed += out["failed"]
        runner.errors += out["errors"][: 20 - len(runner.errors)]
        worker_s = time.perf_counter() - began
    return Timing(raw, scaled, statistics.median(scales), len(scales), rss)


def worker(workload: str, seed: int, seconds: float, workdir: Path, smoke: bool) -> dict:
    """One worker process: the ops from the inputs set-up wrote to ``workdir``,
    timed for ``seconds`` with the reference workload after each."""
    runner = Runner(workloads.build(workload, seed, workdir, smoke, reuse=True))
    runner.reference = []
    samples = runner.timed(seconds)
    return {
        "samples": samples,
        "reference": runner.reference,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Passes until ``seconds`` have passed, at least one; each op runs
    untraced and then traced, so the overhead is measured in pairs."""
    tracer = tracing.Tracer()
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        runner.stats = tracing.CacheStats(runner.caches)
        lo = len(tracer.spans)
        untraced, traced = [], []
        for op in runner.ops:
            untraced.append(runner.execute(op))
            runner.tracer = tracer
            tracer.install()
            try:
                traced.append(runner.execute(op))
            finally:
                tracer.uninstall()
                runner.tracer = None
        metrics = tracing.layer_metrics(tracer.spans, lo, len(tracer.spans))
        metrics.update(runner.stats.metrics())
        metrics.update({f"cmd.{k}": v for k, v in command_metrics(runner.ops, untraced, runner).items()})
        metrics["trace.overhead_s"] = sum(traced) - sum(untraced)
        per_pass.append(metrics)
    tracer.write(spans_path)
    metrics = tracing.median_metrics(per_pass)
    metrics["cmd.fail_share"] = runner.failed / runner.attempted
    return metrics


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny subset of the workload, for testing the benchmark itself")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; qres resolve checks its replay with assert", file=sys.stderr)
        return 2
    if workloads is None or not (SRC / "qres" / "__init__.py").is_file():
        print(f"error: cannot load qres from {SRC}: {IMPORT_ERROR if workloads is None else 'missing'}",
              file=sys.stderr)
        return 2
    if args.worker is not None:
        result = worker(args.workload, args.seed, args.seconds, args.worker, args.smoke)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, started)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    # a terminated run exits through SystemExit, so the running worker is
    # killed and waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(started=START))
