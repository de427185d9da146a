#!/usr/bin/env python3
"""Store the reference outputs of the benchmark workloads.

Usage, from the root of a checkout:

    python3 bench/capture_reference.py [--seconds 60] [WORKLOAD ...]

Makes the calls of a run of ``--seconds`` of each named workload (all by
default), which covers every run up to that length whatever its seed,
and writes the argv, exit code and stdout sha256 of every call to
``bench/reference/<workload>.json``.  A call that does not pass the
benchmark's own output check is not stored and makes the script exit 1.
Capture only at a commit whose outputs are known to be right: the
benchmark then fails any call whose output differs.
"""

import argparse
import json
import sys
import time

import run as bench


def capture(name: str, seconds: float) -> bool:
    workloads = bench.import_package()
    workload = workloads.WORKLOADS[name]
    calls = []
    spent = 0.0
    for index, argv in enumerate(workloads.run_calls(workload, 1, seconds)):
        elapsed, code, stdout, stderr, error = bench.timed_call(argv)
        spent += elapsed
        error = error or bench.check_output(argv, code, stdout, None)
        if error is not None:
            print(f"{name}: call {index} fails, nothing stored: {error} {stderr}", file=sys.stderr)
            return False
        calls.append([argv, code, bench.stdout_digest(stdout)])
    bench.REFERENCE.mkdir(exist_ok=True)
    with open(bench.REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "calls": calls}, fh, indent=0)
        fh.write("\n")
    print(f"{name}: stored {len(calls)} calls ({spent:.1f} s of calls)")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    bench.signal.signal(bench.signal.SIGALRM, bench.on_alarm)
    names = args.workloads or list(bench.import_package().WORKLOADS)
    start = time.perf_counter()
    ok = all([capture(name, args.seconds) for name in names])
    print(f"done in {time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
