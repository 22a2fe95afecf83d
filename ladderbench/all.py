"""Run every workload once untraced and once traced, and print all metrics.

Run from the root of a ladderkit checkout:

    python3 ladderbench/all.py [--seed S] [--seconds N]

Each run is a separate process (ladderbench/run.py), one after another.  The
tables of every run are printed, then one line per run with its fail_ratio.
Exit code 0 when every output check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    summary = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                summary.append((workload, trace, None))
                print(proc.stderr, file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            summary.append((workload, trace, result["failed"] / result["attempted"]))
    print()
    for workload, trace, ratio in summary:
        shown = "run failed" if ratio is None else f"fail_ratio {ratio}"
        print(f"{workload:16s} trace={trace} {shown}")
    return 0 if all(r == 0 for _, _, r in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
