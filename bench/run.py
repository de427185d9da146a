#!/usr/bin/env python3
"""End-to-end benchmark of the newtonspec command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-check --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single caller: it
calls ``newtonspec.cli.main(argv)`` in-process for one generated
(input, command) pair at a time, captures stdout, checks it, and starts
the next call when the previous one has returned.  No pair runs twice in
a process, as no input repeats in a workload's stream (workloads.py).

A run makes a fixed set of calls: the first whole passes of the
workload's stream that took about ``--seconds`` at the commit that
defined the benchmark (``Workload.pass_seconds``), in the order the seed
gives them.  Every commit and every seed thus make the same calls, and
medians and tails compare like with like; a faster program finishes the
run sooner.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same calls with timing wrappers around the public functions of every
module (layertrace.py), prints the per-layer metrics, and writes the
spans to ``bench/out/trace-<workload>-<seed>.json``; a fresh process
then makes the calls untraced to measure the tracing overhead.

Every call is checked: its exit code and the sha256 of its stdout must
equal those stored for its arguments in ``bench/reference/<workload>.json``
(written by capture_reference.py).  A call the reference does not hold,
in a run longer than the captured one, must exit 0 and, for ``check``,
print only PASS and SKIP lines.  A call fails when it does not pass the
check, raises, or runs past ``CALL_CAP_S``.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 when no call failed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
TRACE_OUT = BENCH / "out"

CALL_CAP_S = 30.0        # per-call wall-clock cap; a slower call fails
SETUP_SAMPLES = 5        # set-up processes timed for setup_s


class CallTimeout(BaseException):
    """Raised by SIGALRM in a call that runs past the cap.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it.
    """


def on_alarm(signum, frame):
    raise CallTimeout


def import_package():
    if not (SRC / "newtonspec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'newtonspec'} not found; run from the root of a "
                 "newtonspec checkout")
    sys.path[:0] = [p for p in (str(SRC), str(BENCH)) if p not in sys.path]
    import newtonspec.cli  # noqa: F401  (imported for timing with set-up)
    import workloads

    return workloads


class Setup:
    """Import the package, make the run's inputs, load the reference.

    ``setup_s`` times this in fresh processes.
    """

    def __init__(self, workload_name: str, seed: int, seconds: float):
        workloads = import_package()
        if workload_name not in workloads.WORKLOADS:
            sys.exit(f"error: unknown workload {workload_name!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.calls = workloads.run_calls(self.workload, seed, seconds)
        with open(REFERENCE / f"{workload_name}.json", encoding="utf-8") as fh:
            self.reference = {tuple(argv): (code, digest)
                              for argv, code, digest in json.load(fh)["calls"]}


def timed_call(argv):
    """Run one CLI call under the cap.

    Returns (seconds, exit code, stdout, stderr, error); the exit code is
    None and error says why when the call raised or ran past the cap.
    """
    from newtonspec import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, error = cli.main(list(argv)), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        code, error = None, f"ran past the {CALL_CAP_S:g} s cap"
    except (Exception, SystemExit) as exc:
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), error


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(argv, code, stdout, expected):
    """None when the call's output is right, else the reason it is not.

    ``expected`` is the stored (exit code, stdout sha256) of the call, or
    None when the reference does not hold it.
    """
    if expected is not None:
        if (code, stdout_digest(stdout)) != tuple(expected):
            return f"exit {code} / stdout digest differ from the reference"
        return None
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if not lines:
        return "empty stdout"
    if argv[0] == "check":
        bad = [ln for ln in lines[:-1] if not ln.startswith(("PASS ", "SKIP "))]
        if bad or lines[-1] != "all checks passed":
            return f"check did not pass: {(bad or lines[-1:])[0]}"
    return None


class Run:
    """Outcome of the calls one process made."""

    def __init__(self):
        self.seconds = []      # wall time of every attempted call
        self.failures = []     # (index, argv, reason)

    def call(self, index, argv, expected):
        elapsed, code, stdout, stderr, error = timed_call(argv)
        self.seconds.append(elapsed)
        if error is None:
            error = check_output(argv, code, stdout, expected)
            if error is not None and stderr:
                error += f"; stderr: {stderr.strip()[:200]}"
        if error is not None:
            self.failures.append((index, argv, error))

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def run_calls(setup: Setup, tracer=None) -> tuple:
    """Make the run's calls; returns (Run, wall seconds of the loop)."""
    run = Run()
    start = time.perf_counter()
    for index, argv in enumerate(setup.calls):
        if tracer is not None:
            tracer.request = index
        run.call(index, argv, setup.reference.get(tuple(argv)))
    return run, time.perf_counter() - start


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` calls beyond it."""
    return (100 * (count - 10)) // count if count > 10 else 100


def nearest_rank(sorted_values, percentile: int):
    return sorted_values[max(1, -(-len(sorted_values) * percentile // 100)) - 1]


def _child(mode: str, setup: Setup) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         "--workload", setup.workload.name, "--seed", str(setup.seed),
         "--seconds", str(setup.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def measure_setup(setup: Setup) -> float:
    """Median wall time of fresh processes that only do the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = _child("setup", setup)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return statistics.median(samples)


def _report_failures(run: Run) -> None:
    for index, argv, reason in run.failures[:10]:
        print(f"FAILED call {index} ({' '.join(argv[:1] + argv[2:])} on {argv[1]!r}): {reason}",
              file=sys.stderr)


def end_to_end(setup: Setup) -> dict:
    run, wall = run_calls(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = measure_setup(setup)
    _report_failures(run)

    times = sorted(run.seconds)
    n = len(times)
    pct = tail_percentile(n)
    metrics = {
        "calls_per_s": ((n - len(run.failures)) / wall, "1/s"),
        "call_p50_ms": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # Printed but not in the result line: the tail is the time of about one
    # call, so it carries the host's second-to-second noise unaveraged.
    print(f"call_tail_ms {nearest_rank(times, pct) * 1000:.6g} ms (p{pct} of {n} calls)")
    print(f"fail_ratio {len(run.failures) / n:.6g} ({len(run.failures)} of {n} calls)")
    return _result(run, metrics)


def traced(setup: Setup) -> dict:
    from layertrace import METRIC_UNITS, Tracer

    name = setup.workload.name
    tracer = Tracer()
    tracer.install()
    try:
        run, _ = run_calls(setup, tracer)
    finally:
        tracer.uninstall()
    _report_failures(run)

    # the same calls untraced, in a fresh process so no call repeats here
    done = _child("calls", setup)
    if done.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {done.stderr.strip()}")
    untraced = json.loads(done.stdout.splitlines()[-1])
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = sum(run.seconds) - untraced["total_s"]
    run.failures += [(None, [], reason) for reason in untraced["failures"]]

    TRACE_OUT.mkdir(exist_ok=True)
    with open(TRACE_OUT / f"trace-{name}-{setup.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": setup.seed, **tracer.dump()}, fh)
    metrics = {name: (values[name], METRIC_UNITS[name]) for name in METRIC_UNITS}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return _result(run, metrics)


def _result(run: Run, metrics: dict) -> dict:
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name (workloads.py)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the call order")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length at the commit that defined the benchmark; "
                             "sets how many calls a run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--child", choices=("setup", "calls"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, on_alarm)

    setup = Setup(args.workload, args.seed, args.seconds)
    if args.child == "calls":
        run, _ = run_calls(setup)
        print(json.dumps({"total_s": sum(run.seconds),
                          "failures": [reason for _, _, reason in run.failures]}))
    if args.child:
        return 0
    result = traced(setup) if args.trace else end_to_end(setup)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
