"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a ladderkit checkout:

    python3 ladderbench/spread.py --workload ladder-towers --seeds 0-9 [--json out.json]

For every end-to-end metric, and for the raw (uncalibrated) wall seconds,
it prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median, next to the bound in BENCHMARK.json.  With
--json it then makes one traced run at the first seed and writes a record:
the machine, the spreads, the per-layer metrics and the call counts (also
split into set-up and timed phase).  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(Path(f".bench_out/{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__, "platform": platform.platform()}


def traced_record(workload: str, seed: int, seconds: int) -> dict:
    result, details = run_once(workload, seed, seconds, 1)
    timed_calls: dict = {}
    for input_id, calls in details["calls_by_input"].items():
        if input_id != "setup":
            for name, n in calls.items():
                timed_calls[name] = timed_calls.get(name, 0) + n
    return {
        "seed": seed,
        "correct": result["correct"],
        "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        "counts": details["counts"],
        "timed_phase_calls": dict(sorted(timed_calls.items())),
        "setup_calls": details["calls_by_input"].get("setup", {}),
        "spans": details["spans"],
    }


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        result, details = run_once(args.workload, seed, args.seconds, 0)
        runs.append({"seed": seed, "result": result, "raw_wall_s": details["info"]["raw_wall_s"][0]})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    out = {"workload": args.workload, "machine": machine(), "seconds": args.seconds, "seeds": [r["seed"] for r in runs], "metrics": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in bounds:
        out["metrics"][name] = summary([r["result"]["metrics"][name]["value"] for r in runs])
    out["metrics"]["raw_wall_s (uncalibrated)"] = summary([r["raw_wall_s"] for r in runs])
    out["all_correct"] = all(r["result"]["correct"] for r in runs)
    print(f"{'metric':28s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name, s in out["metrics"].items():
        bound = bounds.get(name)
        print(f"{name:28s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:8.4f} {bound if bound is not None else '':>6}")
    print("all correct:", out["all_correct"])
    if args.json:
        out["traced"] = traced_record(args.workload, runs[0]["seed"], args.seconds)
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
