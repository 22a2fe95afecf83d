"""Record reference.json: the expected outputs the benchmark checks against,
and the calibration probe's reference duration.

Run from the root of a ladderkit checkout:

    python3 ladderbench/make_reference.py            # outputs only, keep probe_ref_s
    python3 ladderbench/make_reference.py --probe    # also re-measure probe_ref_s

The expected outputs are computed on the natural bases (no permutation) and
at vertex e1 of the cyclic algebras, so they are independent of the seeded
inputs the benchmark generates.  Re-run only where a change alters verdicts
on purpose, and say so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import harness  # noqa: E402
from ladderkit import Field, is_stratifying, ladder_report, spli_silp  # noqa: E402
from workloads import (  # noqa: E402
    CUTOFF,
    KXY_CUTOFF,
    MAX_STEPS,
    LadderTowers,
    Rational,
    Resolutions,
    cyclic_nakayama,
    gorenstein_key,
    stratifying_key,
    triangular,
    verdict_key,
    vertex_recollement,
)


def ladder_reference() -> dict:
    field = Field(101)
    recs = [(f"t{n}", vertex_recollement(triangular(n, field), n - 1)) for n in LadderTowers.TRIANGULAR]
    recs += [(f"cyclic{n}_{l}", vertex_recollement(cyclic_nakayama(n, l, field), 0)) for n, l in LadderTowers.CYCLIC]
    out = {}
    for name, rec in recs:
        rep = ladder_report(rec, MAX_STEPS, 0)
        out[name] = {"r": verdict_key(rep.r_verdict), "l": verdict_key(rep.l_verdict)}
    return out


def resolutions_reference() -> dict:
    out = {}
    for name, alg in Resolutions().corpus(Field(101)):
        k = len(alg.prim_idempotents)
        recs = [vertex_recollement(alg, i) for i in range(k)] if k > 1 else []
        gor = spli_silp(alg, KXY_CUTOFF if name == "kxy" else CUTOFF)
        out[name] = {"gorenstein": gorenstein_key(gor), "stratifying": [stratifying_key(is_stratifying(r, CUTOFF)) for r in recs]}
    return out


def rational_reference() -> dict:
    out = {}
    for name, alg, vertex in Rational().corpus(Field(None)):
        rec = vertex_recollement(alg, vertex)
        rep = ladder_report(rec, MAX_STEPS, 0)
        out[name] = {
            "r": verdict_key(rep.r_verdict),
            "l": verdict_key(rep.l_verdict),
            "gorenstein": gorenstein_key(spli_silp(alg, CUTOFF)),
            "stratifying": stratifying_key(is_stratifying(rec, CUTOFF)),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--probe", action="store_true", help="re-measure probe_ref_s (median of 20000 probe calls)")
    args = parser.parse_args()
    ref = dict(harness.REFERENCE)
    if args.probe:
        durations = []
        for _ in range(20000):
            t0 = time.perf_counter()
            harness.probe_once()
            durations.append(time.perf_counter() - t0)
        ref["probe_ref_s"] = statistics.median(durations)
    ref["ladder-towers"] = ladder_reference()
    ref["resolutions"] = resolutions_reference()
    ref["rational"] = rational_reference()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
