"""The built-in verification suite: the reference expectations for the
fixture corpus, one PASS/FAIL line each.

The suite is deterministic for a fixed seed; reports serialize to JSON with
sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .fixtures import load_fixture, parse_idempotent
from .homological import (
    gorenstein_projective_pools,
    is_stratifying,
    preservation_harness,
    spli_silp,
    stable_hom_dim,
)
from .ladder import height_cross_check, ladder_report
from .linalg import Field
from .modules import hom_profile
from .recollement import adjunction_mismatches, build_recollement, check_axioms

__all__ = ["run_suite", "suite_to_text", "json_bytes", "RECOLLEMENT_FIXTURES"]

RECOLLEMENT_FIXTURES = ["t2", "t3", "preproj-a2", "prop32-dual-numbers", "morita-square-k", "m2k", "ideal-chain"]

# frozen tower expectations, worked out by hand before the build
EXPECTED_TOWERS = {
    "t2": {"r": ([2, 2, 1, 1], [True, True, True, False]), "l": ([1, 1], [True, False])},
    "t3": {"r": ([3, 3, 1, 1], [True, True, True, False]), "l": ([1, 1], [True, False])},
}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def json_bytes(obj) -> bytes:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2).encode()


@dataclass
class _Ctx:
    field: Field
    seed: int
    max_steps: int
    cutoff: int
    recs: dict
    ladders: dict


def _context(seed: int, prime: int, max_steps: int, cutoff: int) -> _Ctx:
    field = Field(prime)
    recs = {}
    ladders = {}
    for name in RECOLLEMENT_FIXTURES:
        alg, default_e = load_fixture(name, field)
        rec = build_recollement(alg, parse_idempotent(alg, default_e))
        recs[name] = rec
        ladders[name] = ladder_report(rec, max_steps, seed)
    return _Ctx(field, seed, max_steps, cutoff, recs, ladders)


def _crit(number: int, description: str, ok: bool, details) -> dict:
    return {"criterion": number, "description": description, "status": "PASS" if ok else "FAIL", "details": details}


def _c1(ctx: _Ctx) -> dict:
    rep = ctx.ladders["prop32-dual-numbers"]
    lv, rv = rep.l_verdict, rep.r_verdict
    ok = lv.kind == "exact" and lv.n == 1 and rv.kind == "exact" and rv.n == 3
    return _crit(
        1,
        "block ring over the dual numbers: l-height Exact(1), r-height Exact(3)",
        ok,
        {"l": lv.to_json(), "r": rv.to_json()},
    )


def _c2(ctx: _Ctx) -> dict:
    rep = ctx.ladders["preproj-a2"]
    details = {"r": rep.r_verdict.to_json(), "l": rep.l_verdict.to_json()}
    ok = (
        rep.r_verdict.kind == "periodic_infinite"
        and rep.r_verdict.period == 3
        and rep.l_verdict.kind == "periodic_infinite"
        and rep.l_verdict.period == 3
    )
    if ok:
        rv = rep.r_verdict
        same = hom_profile(rep.r_rungs[rv.matched_rung].bimodule) == hom_profile(rep.r_rungs[rv.first_repeat_index].bimodule)
        details["matched_rung_profiles_equal"] = ok = same
    return _crit(2, "two-vertex self-injective fixture: infinite ladders of period 3 within 12 rungs", ok, details)


def _c3(ctx: _Ctx) -> dict:
    details = {}
    ok = True
    for name in ("t2", "t3"):
        rep = ctx.ladders[name]
        lv, rv = rep.l_verdict, rep.r_verdict
        bounds_ok = lv.meets(2) and rv.meets(4)
        dims_r = [r.dim for r in rep.r_rungs]
        flags_r = [r.projective for r in rep.r_rungs]
        dims_l = [r.dim for r in rep.l_rungs]
        flags_l = [r.projective for r in rep.l_rungs]
        exp = EXPECTED_TOWERS[name]
        frozen_ok = (dims_r, flags_r) == exp["r"] and (dims_l, flags_l) == exp["l"]
        details[name] = {
            "l": lv.to_json(),
            "r": rv.to_json(),
            "rung_dims_r": dims_r,
            "rung_dims_l": dims_l,
            "frozen_expectation_met": frozen_ok,
        }
        ok = ok and bounds_ok and frozen_ok
    return _crit(3, "triangular fixtures: l-height >= 2, r-height >= 4, frozen rung data reproduced", ok, details)


def _c4(ctx: _Ctx) -> dict:
    res = is_stratifying(ctx.recs["prop32-dual-numbers"], ctx.cutoff)
    return _crit(4, "block-ring idempotent ideal certified stratifying (multiplication iso, Tor vanishing)", res["status"] == "Yes", res)


def _c5(ctx: _Ctx) -> dict:
    per_fixture = {}
    ok = True
    for name, rec in ctx.recs.items():
        per_fixture[name] = check_axioms(rec)
        ok = ok and not per_fixture[name]["failures"]
    description = "recollement axiom suite on every indecomposable (canonical sequences, zero laws, adjunctions on all pairs)"
    return _crit(5, description, ok, per_fixture)


def _c6(ctx: _Ctx) -> dict:
    per_fixture = {}
    ok = True
    for name in ctx.recs:
        res = height_cross_check(ctx.ladders[name])
        per_fixture[name] = {"status": res["status"]}
        ok = ok and res["status"] == "PASS"
    return _crit(6, "every tower rung's projectivity verdict agrees with the Hom-exactness probe", ok, per_fixture)


def _c7(ctx: _Ctx) -> dict:
    field = ctx.field
    details = {}
    ok = True
    for name, expect_gdim_max in (("dual-numbers", 0), ("preproj-a2", 0), ("m2k", 0), ("t2", 1)):
        alg, _ = load_fixture(name, field)
        rep = spli_silp(alg, ctx.cutoff)
        good = rep.gorenstein == "yes" and rep.gdim is not None and rep.gdim <= expect_gdim_max
        if name in ("dual-numbers", "preproj-a2", "m2k"):
            good = good and rep.gdim == 0
        details[name] = rep.to_json()
        ok = ok and good
    return _crit(7, "Gorenstein suite: self-injective fixtures report Yes(0), triangular Yes(<=1)", ok, details)


def _c8(ctx: _Ctx) -> dict:
    per_fixture = {}
    ok = True
    for name, rec in ctx.recs.items():
        res = preservation_harness(rec, ctx.ladders[name], seed=ctx.seed, cutoff=ctx.cutoff)
        per_fixture[name] = {
            "status": res["status"],
            "pools": res["pools"],
            "clauses": [{"clause": c["clause"], "status": c["status"]} for c in res["clauses"]],
        }
        ok = ok and res["status"] == "PASS"
    return _crit(8, "Gorenstein preservation harness: zero failing clauses on every fixture", ok, per_fixture)


def _c9(ctx: _Ctx) -> dict:
    per_fixture = {}
    ok = True
    for name, rec in ctx.recs.items():
        rep = ctx.ladders[name]
        if not (rep.l_verdict.meets(2) and rep.r_verdict.meets(3)):
            per_fixture[name] = {"status": "SKIPPED", "reason": "needs l-height >= 2 and r-height >= 3"}
            continue
        xs, ys = gorenstein_projective_pools(rec, ctx.cutoff)
        found = adjunction_mismatches(rec.functor_l(), rec.functor_e(), xs, ys, stable_hom_dim)
        mismatches = [{"x": x, "y": y, "lhs": lhs, "rhs": rhs} for x, y, lhs, rhs in found]
        pairs = len(xs.modules) * len(ys.modules)
        good = pairs > 0 and not mismatches
        pools = {"corner": xs.to_json(), "middle": ys.to_json()}
        per_fixture[name] = {"status": "PASS" if good else "FAIL", "pools": pools, "pairs": pairs, "mismatches": mismatches}
        ok = ok and good
    description = "stable Hom adjunction dims agree on every pair of Gorenstein-projective indecomposables (corner, middle) per qualifying fixture"
    return _crit(9, description, ok, per_fixture)


def _determinism_payload(ctx: _Ctx) -> bytes:
    field = ctx.field
    payload = {}
    for name in ("t2", "prop32-dual-numbers"):
        alg, default_e = load_fixture(name, field)
        rec = build_recollement(alg, parse_idempotent(alg, default_e))
        rep = ladder_report(rec, ctx.max_steps, ctx.seed)
        payload[name] = {"ladder": rep.to_json(), "stratifying": is_stratifying(rec, ctx.cutoff)}
    return json_bytes(payload)


def _c10(ctx: _Ctx) -> dict:
    first = _determinism_payload(ctx)
    second = _determinism_payload(ctx)
    ok = first == second
    return _crit(10, "byte-identical JSON on repeated runs with the same seed", ok, {"bytes": len(first)})


def run_suite(seed: int = 0, prime: int = 101, max_steps: int = 12, cutoff: int = 8) -> dict:
    ctx = _context(seed, prime, max_steps, cutoff)
    criteria = [_c1, _c2, _c3, _c4, _c5, _c6, _c7, _c8, _c9, _c10]
    results = [c(ctx) for c in criteria]
    status = "PASS" if all(r["status"] == "PASS" for r in results) else "FAIL"
    return {
        "suite": "fixture verification",
        "version": __version__,
        "status": status,
        "seed": seed,
        "prime": prime,
        "max_steps": max_steps,
        "cutoff": cutoff,
        "criteria": results,
    }


def suite_to_text(report: dict) -> str:
    lines = [f"verification suite v{report['version']} (seed={report['seed']}, prime={report['prime']})"]
    for c in report["criteria"]:
        lines.append(f"[{c['status']}] {c['criterion']:2d}. {c['description']}")
    lines.append(f"overall: {report['status']}")
    return "\n".join(lines)
