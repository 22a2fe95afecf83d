"""The benchmark's own test.  Run from the root of a ladderkit checkout:

    python3 ladderbench/selftest.py [--seed S] [workload ...]

It checks, for each named workload (default: all four), that

1. two traced passes with the same seed give identical call counts and size
   sums, so any change in a count is a change in the program;
2. for verify-paper, the run_suite report the benchmark obtains, with
   tracing off and with tracing on, is byte-identical (json_bytes) to a
   plain run_suite(seed=S) run in a fresh process, so the benchmark does
   not change what it measures.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from harness import Sampler  # noqa: E402

PLAIN_SUITE = (
    "import hashlib, sys; sys.path.insert(0, 'src');"
    "from ladderkit.verify import json_bytes, run_suite;"
    "print(hashlib.sha256(json_bytes(run_suite(seed=int(sys.argv[1])))).hexdigest())"
)


def _digest(report) -> str:
    from ladderkit.verify import json_bytes

    return hashlib.sha256(json_bytes(report)).hexdigest()


def traced_counts(workload, seed: int, sampler):
    import tracing

    rec = tracing.Recorder()
    with rec.installed():
        p = run.run_pass(workload, seed, sampler, on_item=rec.set_input)
    return tracing.count_metrics(rec), p


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    sampler = Sampler()
    failures = []
    with sampler.running():
        run._load_ladderkit(sampler)
        from workloads import WORKLOADS

        for name in args.workloads or list(WORKLOADS):
            workload = WORKLOADS[name]
            first, p1 = traced_counts(workload, args.seed, sampler)
            second, p2 = traced_counts(workload, args.seed, sampler)
            ok = first == second and first
            print(f"{name}: traced counts repeat: {'ok' if ok else 'FAIL'} ({len(first)} counters)")
            if not ok:
                diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second) if first.get(k) != second.get(k)}
                failures.append(f"{name}: counts differ {diff}")
            for p in (p1, p2):
                failures += [f"{name}: check failed {f}" for f in p.checks.failed]
            if name == "verify-paper":
                # the child process gets no SIGALRM: the timer is per process
                plain = subprocess.run(
                    [sys.executable, "-c", PLAIN_SUITE, str(args.seed)], capture_output=True, text=True, check=True
                ).stdout.strip()
                untraced = run.run_pass(workload, args.seed, sampler)
                same = {"untraced": _digest(untraced.output) == plain, "traced": _digest(p1.output) == plain}
                print(f"{name}: report bytes equal to plain run_suite(seed={args.seed}): {same}")
                failures += [f"{name}: {kind} report differs from plain run_suite" for kind, ok in same.items() if not ok]
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
