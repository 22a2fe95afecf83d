"""Batch front-end: run recollement / ladder / homological pipelines on a
fixture or a JSON algebra spec and emit text plus optional JSON reports.

Exit codes: 0 success (all PASS), 1 verification failure, 2 input error,
3 field-restriction error (the radical needs char 0 or p > dim).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .algebra import Algebra, AlgebraError, FieldRestrictionError, Idempotent
from .fixtures import fixture_names, load_algebra_spec, parse_idempotent
from .homological import is_stratifying, lemma_checks, preservation_harness, spli_silp
from .ladder import ladder_report
from .recollement import build_recollement, check_axioms
from .verify import json_bytes, run_suite, suite_to_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_FIELD = 3


def _common_report(args, body: dict) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "prime": args.prime,
        "cutoff": args.cutoff,
        "max_steps": args.max_steps,
        **body,
    }


def _emit(args, report: dict, text: str) -> None:
    print(text)
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(json_bytes(report))
        print(f"json report written to {args.json}")


def _load(args) -> tuple[Algebra, Idempotent | None]:
    alg, default_e, _ = load_algebra_spec(args.algebra, default_prime=args.prime)
    espec = args.idempotent if args.idempotent is not None else default_e
    if espec is None:
        return alg, None
    return alg, parse_idempotent(alg, espec)


def _need_recollement(args):
    alg, idem = _load(args)
    if idem is None:
        raise AlgebraError(f"{args.algebra!r} needs --idempotent (no default nontrivial idempotent)")
    return build_recollement(alg, idem)


def _tower_table(rungs) -> str:
    lines = ["  rung  side           dim  projective"]
    for r in rungs:
        lines.append(f"  {r.index:4d}  {r.side_tested:13s} {r.dim:4d}  {'yes' if r.projective else 'NO'}")
    return "\n".join(lines)


def cmd_ladder(args) -> int:
    rec = _need_recollement(args)
    rep = ladder_report(rec, args.max_steps, args.seed)
    text = [
        f"algebra dim {rec.lam.dim}, corner dim {rec.gamma.dim}, quotient dim {rec.sigma.dim}",
        f"r-height: {rep.r_verdict.describe()}",
        _tower_table(rep.r_rungs),
        f"l-height: {rep.l_verdict.describe()}",
        _tower_table(rep.l_rungs),
    ]
    _emit(args, _common_report(args, {"command": "ladder", "report": rep.to_json()}), "\n".join(text))
    return EXIT_OK


def cmd_recollement(args) -> int:
    rec = _need_recollement(args)
    res = check_axioms(rec)
    status = "PASS" if not res["failures"] else "FAIL"
    body = {"command": "recollement", "status": status, "corner_dim": rec.gamma.dim, "quotient_dim": rec.sigma.dim, **res}
    pools = ", ".join(f"{p['modules']} {side} {'indecomposables' if p['certified'] else 'pool modules'}" for side, p in res["pools"].items())
    _emit(args, _common_report(args, body), f"recollement axioms on {pools}: {status}")
    return EXIT_OK if status == "PASS" else EXIT_FAIL


def cmd_stratifying(args) -> int:
    rec = _need_recollement(args)
    res = is_stratifying(rec, args.cutoff)
    text = f"stratifying: {res['status']}"
    if res["status"] == "Yes":
        text += f" (multiplication iso exact; Tor_1..{args.cutoff} all zero)"
    else:
        text += f" ({res['reason']})"
    _emit(args, _common_report(args, {"command": "stratifying", "result": res}), text)
    return EXIT_OK


def cmd_gorenstein(args) -> int:
    alg, _, _ = load_algebra_spec(args.algebra, default_prime=args.prime)
    rep = spli_silp(alg, args.cutoff)
    text = (
        f"spli = {rep.spli.describe()}, silp = {rep.silp.describe()}, "
        f"Gorenstein: {rep.describe()} (cutoff {args.cutoff})"
    )
    _emit(args, _common_report(args, {"command": "gorenstein", "report": rep.to_json()}), text)
    return EXIT_OK


def cmd_harness(args) -> int:
    rec = _need_recollement(args)
    rep = ladder_report(rec, args.max_steps, args.seed)
    harness = preservation_harness(rec, rep, seed=args.seed, cutoff=args.cutoff)
    lemmas = lemma_checks(rec, cutoff=args.cutoff)
    lines = [f"ladder: l {rep.l_verdict.describe()}, r {rep.r_verdict.describe()}"]
    for c in harness["clauses"]:
        lines.append(f"[{c['status']:7s}] {c['clause']}")
    lines.append(f"lemma checks: {lemmas['status']}")
    status = "PASS" if harness["status"] == "PASS" and lemmas["status"] == "PASS" else "FAIL"
    body = {"command": "harness", "status": status, "harness": harness, "lemma_checks": lemmas, "ladder": rep.to_json()}
    _emit(args, _common_report(args, body), "\n".join(lines))
    return EXIT_OK if status == "PASS" else EXIT_FAIL


def cmd_verify_paper(args) -> int:
    rep = run_suite(seed=args.seed, prime=args.prime, max_steps=args.max_steps, cutoff=args.cutoff)
    _emit(args, rep, suite_to_text(rep))
    return EXIT_OK if rep["status"] == "PASS" else EXIT_FAIL


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ladderkit",
        description="Idempotent recollements, adjoint-functor ladders and Gorenstein invariants by exact linear algebra.",
        epilog=f"built-in fixtures: {', '.join(fixture_names())}",
    )
    p.add_argument("--version", action="version", version=f"ladderkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_algebra=True, help=""):
        sp = sub.add_parser(name, help=help)
        if needs_algebra:
            sp.add_argument("--algebra", required=True, help="fixture name or path to a JSON algebra spec")
            sp.add_argument("--idempotent", default=None, help="e<i>, e<i>+e<j>, or a JSON coefficient vector")
        sp.add_argument("--max-steps", type=_at_least_one, default=12)
        sp.add_argument("--cutoff", type=_at_least_one, default=8)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--prime", type=int, default=101)
        sp.add_argument("--json", default=None, help="write the JSON report to this path")
        sp.set_defaults(fn=fn)
        return sp

    add("ladder", cmd_ladder, help="compute both towers and the height verdicts")
    add("recollement", cmd_recollement, help="verify the recollement axioms on every indecomposable where certified, else on modules with a simple top or socle")
    add("stratifying", cmd_stratifying, help="certify the idempotent ideal stratifying up to the cutoff")
    add("gorenstein", cmd_gorenstein, help="spli/silp bounds and the Gorenstein verdict")
    add("harness", cmd_harness, help="Gorenstein preservation harness and lemma checks")
    add("verify-paper", cmd_verify_paper, needs_algebra=False, help="run the built-in fixture verification suite")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FieldRestrictionError as exc:
        print(f"field-restriction error: {exc}", file=sys.stderr)
        return EXIT_FIELD
    except (AlgebraError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
