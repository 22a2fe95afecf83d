"""ladderkit benchmark: one workload, closed loop, one caller, one process.

Run from the root of a ladderkit checkout:

    python3 ladderbench/run.py --workload verify-paper --seed 0 --seconds 30 --trace 0

--trace 0 runs one pass over the workload's inputs, then starts another
(with fresh inputs) as long as it is expected, at the mean pass time so far,
to end within --seconds; it reports the end-to-end metrics as medians over
passes.  --trace 1 runs one untraced pass and one
traced pass and reports the per-layer metrics and the tracing overhead.

A readable table goes to standard output first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Details (every pass's
raw and calibrated times and probe durations, failed checks, and for
--trace 1 the counts and the spans) are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
MIN_SETUPS = 5
EXTRA_SETUP_BUDGET_S = 1.5


def _load_ladderkit(sampler):
    """Import ladderkit from ./src of the current directory, and only there."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "ladderkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no ladderkit sources at {src}/ladderkit; run from the root of a ladderkit checkout")
    sys.path.insert(0, str(src))
    from harness import Timing

    timing = Timing("import", sampler)
    ladderkit = timing.call("import", importlib.import_module, "ladderkit")
    timing.call("import", importlib.import_module, "ladderkit.verify")
    if Path(ladderkit.__file__).resolve().parent != src / "ladderkit":
        raise SystemExit(f"error: imported ladderkit from {ladderkit.__file__}, not from {src}")
    return timing


def run_pass(workload, seed: int, sampler, on_item=None):
    from harness import Checks, Clock, PassRecord

    clock = Clock(sampler, on_item)
    checks = Checks()
    with clock.item("setup") as it:
        try:
            inputs = it.call("setup", workload.setup, seed)
        except Exception as exc:
            checks.error("setup", exc)
            inputs = None
    output = None if inputs is None else workload.run(inputs, clock, checks, seed)
    return PassRecord(clock.timings[0], clock.timings[1:], checks, output)


def run_setup(workload, seed: int, sampler):
    """Time the workload's set-up alone (inputs are dropped)."""
    from harness import Timing

    timing = Timing("setup", sampler)
    timing.call("setup", workload.setup, seed)
    return timing


def _pass_json(p) -> dict:
    return {
        "setup_cal_s": p.setup.cal_s,
        "wall_cal_s": p.wall_s,
        "raw_wall_s": p.raw_wall_s,
        "items": [
            {"name": t.name, "parts_raw_s": t.parts, "factor": t.factor, "cal_s": t.cal_s}
            for t in [p.setup] + p.items
        ],
        "probe_samples_s": p.probes,
        "failed_checks": p.checks.failed,
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seed: int, seconds: float, sampler, import_timing):
    passes = []
    start = time.perf_counter()
    # another pass starts only if, at the mean pass time so far, it ends within `seconds`
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(workload, seed, sampler))
    timed = [p for p in passes if p.items]
    # cheap set-ups are repeated on their own so setup_s is a median of several
    setups = [p.setup for p in passes]
    extra_s = 0.0
    while len(setups) < MIN_SETUPS and extra_s + setups[-1].raw_s < EXTRA_SETUP_BUDGET_S:
        setups.append(run_setup(workload, seed, sampler))
        extra_s += setups[-1].raw_s
    metrics = {
        "setup_s": (import_timing.cal_s + _median([t.cal_s for t in setups]), "s"),
        "wall_s": (_median([p.wall_s for p in timed]), "s"),
        "max_item_s": (_median([p.max_item.cal_s for p in timed]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {}
    for command in ("verify_paper", "ladder", "gorenstein", "stratifying"):
        values = [p.command_s(command) for p in timed]
        if any(values):
            info[f"{command}_s"] = (_median(values), "s")
    info["raw_wall_s"] = (_median([p.raw_wall_s for p in timed]), "s")
    info["probe_s"] = (_median([x for p in passes for x in p.probes]), "s")
    info["import_s"] = (import_timing.cal_s, "s")
    info["passes"] = (len(passes), "count")
    info["setups"] = (len(setups), "count")
    if timed:
        slowest = [p.max_item.name for p in timed]
        info["max_item"] = (max(set(slowest), key=slowest.count), "name")
    details = {"passes": [_pass_json(p) for p in passes]}
    return passes, metrics, info, details


def traced(workload, seed: int, sampler):
    import tracing
    from ladderkit.verify import json_bytes

    plain = run_pass(workload, seed, sampler)
    rec = tracing.Recorder()
    with rec.installed():
        traced_pass = run_pass(workload, seed, sampler, on_item=rec.set_input)
    passes = [plain, traced_pass]
    if workload.name == "verify-paper":
        same = plain.output is not None and traced_pass.output is not None and json_bytes(plain.output) == json_bytes(traced_pass.output)
        traced_pass.checks.check("report bytes identical with tracing on", same)
    factors = {t.name: t.factor for t in [traced_pass.setup] + traced_pass.items}
    metrics = tracing.layer_metrics(rec, factors)
    criteria = {t.name: t.cal_s for t in plain.items}
    metrics["verify.context.s"] = (criteria.get("context", 0.0), "s")
    for i in range(1, 11):
        metrics[f"verify.c{i}.s"] = (criteria.get(f"c{i}", 0.0), "s")
    metrics["bench.raw_wall_s"] = (plain.raw_wall_s, "s")
    metrics["bench.probe_s"] = (_median(plain.probes), "s")
    overhead = (traced_pass.setup.cal_s + traced_pass.wall_s) - (plain.setup.cal_s + plain.wall_s)
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    spans_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    rec.write_spans(spans_file)
    details = {
        "passes": [_pass_json(p) for p in passes],
        "counts": tracing.count_metrics(rec),
        "calls_by_input": tracing.calls_by_input(rec),
        "spans_file": str(spans_file),
        "spans": len(rec.spans),
    }
    return passes, metrics, {}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    sys.path.insert(0, str(HERE))
    from harness import Sampler

    sampler = Sampler()
    with sampler.running():
        import_timing = _load_ladderkit(sampler)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        if args.trace:
            passes, metrics, info, details = traced(workload, args.seed, sampler)
        else:
            passes, metrics, info, details = measure(workload, args.seed, args.seconds, sampler, import_timing)

    attempted = sum(p.checks.attempted for p in passes)
    failed = sum(len(p.checks.failed) for p in passes)
    info["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{name:48s} {value!s:>24} {unit}")
    for p in passes:
        for f in p.checks.failed:
            print(f"FAILED {f['check']}: {f['detail']}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "metrics": metrics, "info": info, **details}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
