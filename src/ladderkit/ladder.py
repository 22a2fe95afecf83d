"""Bimodule towers and ladder heights.

The r-tower starts at M_0 = eL, the l-tower at Le; M_{j+1} is Hom of M_j
into the regular bimodule of the corner (even j) or of the whole algebra
(odd j), over left modules on the r-side and right modules on the l-side.
Rung j is tested for projectivity as a one-sided module over the corner
(even j) or the whole algebra (odd j).

One pass builds the rungs and decides the height as it goes.  The ladder
extends one more step precisely while the current rung is projective, so
the first non-projective rung j gives Exact(j + 1).  A projective rung is
compared with each earlier rung of the same parity, isomorphic as
bimodules; the first match proves the ladder is infinite and periodic, and
the tower ends there.  A tower with neither within the step budget gives
AtLeast(budget + 1).

The reported period counts the rungs strictly between the first recurring
pair: the tower e1.L -> L.e2 -> e2.L -> L.e1 -> e1.L of the two-vertex
self-injective quiver algebra recurs at rung 4 and is reported with period 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, opposite
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    bimodules_isomorphic,
    cover_sequence,
    hom_module,
    hom_space,
    is_projective,
    regular_bimodule,
)
from .recollement import RecollementData, _short_exact_failures

__all__ = [
    "TowerRung",
    "HeightVerdict",
    "LadderReport",
    "ladder_report",
    "height_cross_check",
]


@dataclass
class TowerRung:
    index: int
    bimodule: Bimodule
    side_tested: str  # left-gamma | left-lambda | right-gamma | right-lambda
    projective: bool

    @property
    def dim(self) -> int:
        return self.bimodule.dim

    def tested_module(self) -> Module:
        if self.side_tested.startswith("left"):
            return self.bimodule.left_restrict()
        return self.bimodule.right_restrict()

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "dim": self.dim,
            "side_tested": self.side_tested,
            "projective": self.projective,
        }


@dataclass
class HeightVerdict:
    """Exact(n) | AtLeast(n) | PeriodicInfinite(period, first_repeat_index).

    Exact(n) records the failing rung n-1.  PeriodicInfinite carries the
    matched earlier rung, the rung gap, and whether ruling out earlier repeats
    relied on randomized isomorphism tests.
    """

    kind: str  # "exact" | "at_least" | "periodic_infinite"
    n: Optional[int] = None
    failing_rung: Optional[int] = None
    period: Optional[int] = None
    first_repeat_index: Optional[int] = None
    matched_rung: Optional[int] = None
    rung_gap: Optional[int] = None
    confidence: Optional[str] = None  # "proved-No-impossible" | "randomized"
    seed: Optional[int] = None

    def meets(self, bound: int) -> bool:
        """Does the ladder provably reach height `bound`?"""
        return self.kind == "periodic_infinite" or self.n >= bound

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for k in ("n", "failing_rung", "period", "first_repeat_index", "matched_rung", "rung_gap", "confidence", "seed"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out

    def describe(self) -> str:
        if self.kind == "exact":
            return f"Exact({self.n})"
        if self.kind == "at_least":
            return f"AtLeast({self.n})"
        return f"PeriodicInfinite(period={self.period}, first_repeat={self.first_repeat_index}, {self.confidence})"


def _next_rung(rec: RecollementData, bimod: Bimodule, index: int, r_side: bool) -> Bimodule:
    """Hom of the current rung into the alternating regular bimodule.

    r-side: Hom over left modules; l-side: Hom over right modules, realized by
    flipping to the opposite algebras and flipping back.
    """
    even = index % 2 == 0
    target_alg = rec.gamma if even else rec.lam
    if r_side:
        out, _ = hom_module(bimod, regular_bimodule(target_alg))
        return out
    flipped = bimod.flip()
    out, _ = hom_module(flipped, regular_bimodule(opposite(target_alg)))
    return out.flip()


def _env_for(rec: RecollementData, index: int, r_side: bool) -> Algebra:
    """The enveloping algebra over which rung `index` is a bimodule."""
    even = index % 2 == 0
    if r_side:
        return rec.env_gl if even else rec.env_lg
    return rec.env_lg if even else rec.env_gl


def _tower(rec: RecollementData, max_steps: int, seed: int, r_side: bool) -> tuple[list[TowerRung], HeightVerdict]:
    """Build the tower one rung at a time and decide the height on the way."""
    rungs: list[TowerRung] = []
    current = rec.e_lambda if r_side else rec.lambda_e
    randomized = False
    for jp in range(max_steps):
        side = ("left-" if r_side else "right-") + ("gamma" if jp % 2 == 0 else "lambda")
        tested = current.left_restrict() if r_side else current.right_restrict()
        rungs.append(TowerRung(jp, current, side, is_projective(tested)))
        if not rungs[-1].projective:
            return rungs, HeightVerdict("exact", n=jp + 1, failing_rung=jp)
        env = _env_for(rec, jp, r_side)
        for j in range(jp % 2, jp, 2):
            res = bimodules_isomorphic(rungs[j].bimodule, current, env=env, seed=seed)
            if res.kind == "probably_no":
                randomized = True
            elif res.kind == "yes":
                return rungs, HeightVerdict(
                    "periodic_infinite",
                    period=jp - j - 1,
                    first_repeat_index=jp,
                    matched_rung=j,
                    rung_gap=jp - j,
                    confidence="randomized" if randomized else "proved-No-impossible",
                    seed=seed,
                )
        if jp + 1 < max_steps:
            current = _next_rung(rec, current, jp, r_side)
    return rungs, HeightVerdict("at_least", n=max_steps + 1, seed=seed)


@dataclass
class LadderReport:
    recollement: RecollementData
    r_rungs: list
    l_rungs: list
    r_verdict: HeightVerdict
    l_verdict: HeightVerdict
    max_steps: int
    seed: int

    def to_json(self) -> dict:
        lv, rv = self.l_verdict, self.r_verdict
        summed = None
        if lv.kind == "exact" and rv.kind == "exact":
            summed = lv.n + rv.n
        return {
            "max_steps": self.max_steps,
            "seed": self.seed,
            "r_tower": [r.to_json() for r in self.r_rungs],
            "l_tower": [r.to_json() for r in self.l_rungs],
            "r_height": rv.to_json(),
            "l_height": lv.to_json(),
            "summed_height_display": summed,
        }


def ladder_report(rec: RecollementData, max_steps: int = 12, seed: int = 0) -> LadderReport:
    r_rungs, rv = _tower(rec, max_steps, seed, r_side=True)
    l_rungs, lv = _tower(rec, max_steps, seed, r_side=False)
    return LadderReport(rec, r_rungs, l_rungs, rv, lv, max_steps, seed)


# -- independent oracle: Hom(M_j, -) exactness ---------------------------------


def _hom_functor_exact_on(m: Module, incl: ModuleMap, proj: ModuleMap) -> Optional[dict]:
    """Is 0 -> Hom(M,A) -> Hom(M,B) -> Hom(M,C) -> 0 exact for the short exact
    sequence (incl, proj)?  None if it is, else a witness record."""
    f = m.field
    ha, hb, hc = hom_space(m, incl.source), hom_space(m, incl.target), hom_space(m, proj.target)
    if not _short_exact_failures(ha.induced(hb, f, post=incl.matrix), hb.induced(hc, f, post=proj.matrix), f):
        return None
    return {"hom_dims": [len(ha), len(hb), len(hc)]}


def height_cross_check(report: LadderReport) -> dict:
    """Independent oracle: a finitely generated module M is projective iff
    Hom(M, -) is exact.  Each rung's tested one-sided module is probed on its
    own cover sequence 0 -> Omega(M) -> P -> M -> 0, which decides it: if M
    is projective every probe is exact, and if not, id_M does not lift
    through P -> M.  PASS iff every probe agrees with the stored verdict."""
    results = []
    for label, rungs in (("r", report.r_rungs), ("l", report.l_rungs)):
        for rung in rungs:
            m = rung.tested_module()
            witness = _hom_functor_exact_on(m, *cover_sequence(m))
            agreed = (witness is None) == rung.projective
            results.append(
                {
                    "tower": label,
                    "rung": rung.index,
                    "projective_verdict": rung.projective,
                    "hom_exact_on_probes": witness is None,
                    "agrees": agreed,
                    "witness": witness,
                }
            )
    status = "PASS" if all(r["agrees"] for r in results) else "FAIL"
    return {"status": status, "rungs": results}
