"""Benchmark of the dmabeam CLI: end-to-end metrics, or per-layer metrics.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
src/ directory.  Workloads are defined in workloads.py.

--trace 0 reports, per workload:
  wall_s       median seconds of one pass, corrected for machine speed
               (see calibrate below); imports are done before timing and
               the correctness check runs outside the timed region
  setup_s      median seconds from a fresh interpreter to ready: import
               dmabeam.cli, load and resolve the workload's scenario file
  peak_rss_mb  peak resident memory of a fresh process running one pass
The error rate (failed / attempted passes) is the "failed" and
"attempted" of the result line; a pass fails on a nonzero exit, an
uncaught exception, or an output that fails the correctness check.

--trace 1 times untraced passes, then installs the wrappers of
tracing.py and times traced passes, and reports per-layer metrics
(calls, self time, raised exceptions, distinct-argument ratios), the
import time, output size, NaN cells, and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it records the environment and the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Scenario files and CLI outputs go under the checkout, not the system
# temporary directory: the benchmark reads and writes only inside its
# checkout.  The directory is removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 7        # fresh interpreters per run for setup_s
IMPORT_REPEATS = 3       # fresh interpreters per traced run for cli.import_s
MIN_TIMED_PASSES = 3
MIN_TRACE_PASSES = 2     # each of untraced and traced, in a traced run
BINARY_SPOT_ROWS = 2     # binary-wide rows re-solved by oracle.enumerate_binary
CHILD_TIMEOUT_S = 150

UNITS = {"calls": "count", "raised": "count", "self_s": "s",
         "distinct_ratio": "ratio", "import_s": "s", "output_bytes": "bytes",
         "nan_cells": "count", "overhead_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------ machine speed

# On a shared virtual machine the CPU speed drifts by up to 2x within
# seconds, which no median over passes can remove.  So a timed pass is
# cut into segments by a calibration run before it, every
# SAMPLE_INTERVAL_S during it (from a SIGALRM handler) and after it.  Each
# segment is reported at nominal speed, segment_s / (mean of its two
# calibrations), and calibration time is excluded.  The calibration uses
# no dmabeam code, so a change to the program moves the corrected time as
# it moves the raw time; raw medians go into the record line.
# Fresh-interpreter times (setup_s) are not corrected: they track the
# calibration poorly.
#
# The calibration mixes two loops with equal weight.  Scalar Python with
# tiny arrays alone tracked the rate and gain-sweep passes, but not
# binary-wide's products of large 0/1 matrices; adding a loop of such
# products tracked all four workloads about as well or better (per-pass
# spread, 0.4 s segments).  TINY_NOMINAL_S is the tiny loop's median on
# the 2-vCPU Xeon VM the benchmark was written on; BULK_NOMINAL_S keeps
# the median ratio of the two loops' times measured there.
TINY_LOOPS, TINY_NOMINAL_S = 4000, 0.026
BULK_CHUNKS, BULK_ROWS, BULK_NOMINAL_S = 12, 8192, 0.0070
SAMPLE_INTERVAL_S = 0.4


def calibrate() -> float:
    """Machine slowness, 1.0 at nominal speed: the mean of the time ratios
    of a tiny-array loop and a bulk-array loop to their nominal times."""
    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    idx = np.arange(16.0)
    for i in range(TINY_LOOPS):
        x = np.sin(idx * (0.001 * i)) * np.exp(1j * idx)
        acc += abs(complex(x.sum())) ** 2
        acc += math.fsum((i * 0.5, acc * 1e-9, float(i % 7)))
    tiny_s = time.perf_counter() - start

    start = time.perf_counter()
    shifts = np.arange(15, -1, -1)
    weights = np.exp(1j * np.arange(16.0))
    for k in range(BULK_CHUNKS):
        rows = np.arange(k * BULK_ROWS, (k + 1) * BULK_ROWS, dtype=np.int64)
        values = np.abs(((rows[:, None] >> shifts) & 1) @ weights) ** 2
        acc += float(values[int(np.argmax(values))])
    bulk_s = time.perf_counter() - start
    return 0.5 * (tiny_s / TINY_NOMINAL_S + bulk_s / BULK_NOMINAL_S)


class SpeedSampler:
    """Times a region in calibrated segments; see the comment above.

    With ``interval=None`` the region is one segment, calibrated before
    and after only: traced passes use that, so that no calibration runs
    inside a span.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.segments = []       # (seconds, calibration before, calibration after)

    def __enter__(self):
        self._calibration = calibrate()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum=None, frame=None):
        end = time.perf_counter()
        after = calibrate()
        self.segments.append((end - self._start, self._calibration, after))
        self._calibration = after
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    @property
    def raw_s(self) -> float:
        return sum(seconds for seconds, _, _ in self.segments)

    @property
    def corrected_s(self) -> float:
        return sum(seconds / (0.5 * (before + after))
                   for seconds, before, after in self.segments)


# ------------------------------------------------------------- environment

def _environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "dmabeam")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# ----------------------------------------------------------------- children

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _setup_child(scenario: str):
    """(setup_s, import_s) of one fresh interpreter."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                           "setup", scenario], cwd=ROOT, env=_child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line:
        raise BenchError(f"setup child exited with code {code}")
    return setup_s, json.loads(line)["import_s"]


def _rss_child(name: str, variant: int, scenario: str, out_dir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "rss", name,
         str(variant), scenario, out_dir],
        cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"rss child exited with code {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -------------------------------------------------------------- one workload

class WorkloadRun:
    """Passes of one workload on one seed, with their verdicts."""

    def __init__(self, name: str, seed: int, work: str):
        import dmabeam.cli
        import checks
        import workloads

        self.cli, self.checks, self.workloads = dmabeam.cli, checks, workloads
        self.name, self.seed = name, seed
        self.workload = workloads.WORKLOADS[name]
        self.variant = workloads.variant_of(seed)
        self.work = work
        self.scenario = workloads.write_scenario(self.workload, self.variant, work)
        self.design = dmabeam.cli._resolve(
            dmabeam.cli.load_scenario(self.scenario))[0]
        self.reference = checks.load_reference(name, self.variant)
        self.attempted = 0
        self.failed = 0
        self.pass_stats = []      # {"nan_cells", "output_bytes"} per checked pass
        self.raw = {}             # uncorrected medians, for the record line
        self.sample_interval = SAMPLE_INTERVAL_S

    def _out_dir(self) -> str:
        return os.path.join(self.work, f"pass-{self.attempted}")

    def _verdict(self, outcome, out_dir: str) -> None:
        """Check one pass outside the timed region and count it."""
        self.attempted += 1
        problems = [outcome.error] if outcome.error else []
        if any(code != 0 for code in outcome.exit_codes):
            problems.append(f"exit codes {outcome.exit_codes}")
        if os.path.isdir(out_dir):
            try:
                outputs = self.checks.read_outputs(out_dir, outcome.stdout)
                problems += self.checks.check_pass(self.name, outputs,
                                                   self.reference, self.design)
                if self.name == "binary-wide" and not self.pass_stats:
                    rows = random.Random(self.seed).sample(
                        range(len(outputs["gain_sweep.csv"]["rows"])),
                        BINARY_SPOT_ROWS)
                    problems += self.checks.spot_check_binary(
                        outputs, self.design, sorted(rows))
                self.pass_stats.append(self.checks.stats(outputs, out_dir))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            shutil.rmtree(out_dir)
        else:
            problems.append("no output directory")
        if problems:
            self.failed += 1
            sys.stderr.write(f"{self.name}: pass {self.attempted} failed:\n  "
                             + "\n  ".join(problems[:10]) + "\n")

    def timed_pass(self, tracer=None, pass_id=None) -> SpeedSampler:
        out_dir = self._out_dir()
        argvs = self.workloads.pass_argvs(self.workload, self.variant,
                                          self.scenario, out_dir)
        main = self.cli.main          # looked up now: wrapped when tracing
        if tracer is not None:
            tracer.begin_pass(pass_id)
        try:
            with SpeedSampler(self.sample_interval) as timing:
                outcome = self.workloads.run_pass(main, argvs)
        finally:
            if tracer is not None:
                tracer.end_pass()
        self._verdict(outcome, out_dir)
        return timing

    def timed_passes(self, seconds: float, minimum: int, tracer=None):
        """Lists of raw and corrected pass times."""
        raw, corrected = [], []
        deadline = time.perf_counter() + seconds
        while len(raw) < minimum or time.perf_counter() < deadline:
            timing = self.timed_pass(tracer, pass_id=len(raw))
            raw.append(timing.raw_s)
            corrected.append(timing.corrected_s)
        return raw, corrected

    def rss_pass(self) -> float:
        out_dir = self._out_dir()
        result = _rss_child(self.name, self.variant, self.scenario, out_dir)
        self._verdict(self.workloads.PassOutcome(
            exit_codes=result["exit_codes"], stdout=result["stdout"],
            error=result["error"]), out_dir)
        return result["peak_rss_mb"]


def end_to_end(run: WorkloadRun, seconds: float) -> dict:
    setups = [_setup_child(run.scenario)[0] for _ in range(SETUP_REPEATS)]
    peak_rss = run.rss_pass()
    raw, walls = run.timed_passes(seconds, MIN_TIMED_PASSES)
    run.raw = {"wall_s": statistics.median(raw)}
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }


def per_layer(run: WorkloadRun, seconds: float) -> dict:
    import tracing

    imports = [_setup_child(run.scenario)[1] for _ in range(IMPORT_REPEATS)]
    run.sample_interval = None        # keep calibrations out of the spans
    untraced_raw, untraced = run.timed_passes(seconds / 2, MIN_TRACE_PASSES)

    tracer = tracing.Tracer()
    tracer.install()
    missed = tracer.unwrapped_bindings()
    if missed:
        raise BenchError(f"tracer left originals bound at: {', '.join(missed)}")
    first_traced = len(run.pass_stats)
    try:
        traced_raw, traced = run.timed_passes(seconds / 2, MIN_TRACE_PASSES,
                                              tracer)
    finally:
        tracer.uninstall()

    per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
    for name in tracing.EXPECTED_CALLS[run.name]:
        if any(m[f"{name}.calls"] == 0 for m in per_pass):
            raise BenchError(f"{name} was never called in a traced "
                             f"{run.name} pass")
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        middle = statistics.median if _unit(key) == "s" else statistics.median_low
        metrics[key] = (middle(values), _unit(key), len(values))
    stats = run.pass_stats[first_traced:] or run.pass_stats
    metrics["cli.import_s"] = (statistics.median(imports), "s", len(imports))
    metrics["cli.output_bytes"] = (stats[0]["output_bytes"], "bytes", len(stats))
    metrics["cli.nan_cells"] = (stats[0]["nan_cells"], "count", len(stats))
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s",
        len(traced) + len(untraced))
    run.raw = {"untraced_wall_s": statistics.median(untraced_raw),
               "traced_wall_s": statistics.median(traced_raw)}
    return metrics


def _unit(key: str) -> str:
    return UNITS[key.rsplit(".", 1)[1]]


# --------------------------------------------------------------------- main

def _parse(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input variant; 0 is the reference setup")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(rows) -> None:
    print(f"{'workload':22} {'metric':48} {'value':>14} {'unit':6} samples")
    for workload, key, (value, unit, samples) in rows:
        print(f"{workload:22} {key:48} {value:14.6g} {unit:6} {samples}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "dmabeam", "__init__.py")):
        sys.stderr.write(f"error: no dmabeam package under {SRC}\n")
        return 2
    # One BLAS thread, set before NumPy loads, here and in every child.  On
    # a 2-vCPU machine a second OpenBLAS thread busy-waits on the shared
    # core: binary-wide's matrix products used twice the CPU for the same
    # wall time, and their times followed the other core's load, which
    # calibrate() cannot see.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import dmabeam
    if os.path.dirname(os.path.abspath(dmabeam.__file__)) != \
            os.path.join(SRC, "dmabeam"):
        sys.stderr.write(f"error: imported dmabeam from {dmabeam.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    rows, runs = [], []
    try:
        for name in names:
            run = WorkloadRun(name, args.seed, work)
            measure = per_layer if args.trace else end_to_end
            metrics = measure(run, args.seconds)
            rows += [(name, key, value) for key, value in metrics.items()]
            rows.append((name, "error_rate",
                         (run.failed / run.attempted, "ratio", run.attempted)))
            runs.append((name, run, metrics))
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    _print_table(rows)
    single = len(runs) == 1
    record = {"seed": args.seed, "variant": workloads.variant_of(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "workloads": {name: {"passes": run.attempted,
                                   "failed": run.failed, "raw": run.raw}
                            for name, run, _ in runs},
              "environment": _environment()}
    print(json.dumps({"record": record}, sort_keys=True))
    attempted = sum(run.attempted for _, run, _ in runs)
    failed = sum(run.failed for _, run, _ in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {(key if single else f"{name}.{key}"): {"value": value,
                                                          "unit": unit}
                    for name, _, metrics in runs
                    for key, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
