"""Bimodule towers and ladder heights.

The tower starts at eL (r-side) or Le (l-side) and alternates Hom into the
regular bimodule of the corner and of the whole algebra.  The ladder extends
one more step precisely while the current rung is projective on the tested
side, so the height verdict is Exact(j + 1) at the first non-projective rung
j.  If every rung up to the step budget is projective, the tower is scanned
for a recurring rung (same parity, isomorphic as bimodules); a recurrence
proves the ladder is infinite and periodic.

The reported period counts the rungs strictly between the first recurring
pair: the tower e1.L -> L.e2 -> e2.L -> L.e1 -> e1.L of the two-vertex
self-injective quiver algebra recurs at rung 4 and is reported with period 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, opposite
from .modules import (
    Bimodule,
    Module,
    bimodules_isomorphic,
    hom_module,
    hom_space,
    is_projective,
    projective_cover,
    random_short_exact_sequence,
    regular_bimodule,
    submodule,
)
from .linalg import kernel_basis, rref
from .recollement import RecollementData

__all__ = [
    "TowerRung",
    "HeightVerdict",
    "LadderReport",
    "r_tower",
    "l_tower",
    "r_height",
    "l_height",
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

    def at_least_height(self) -> int:
        """A height that the ladder provably reaches."""
        if self.kind == "exact":
            return self.n
        if self.kind == "at_least":
            return self.n
        return 10**9  # periodic: infinite

    def meets(self, bound: int) -> bool:
        return self.at_least_height() >= bound

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


def _tower(rec: RecollementData, max_steps: int, r_side: bool) -> list[TowerRung]:
    rungs: list[TowerRung] = []
    current = rec.e_lambda if r_side else rec.lambda_e
    for j in range(max_steps):
        if r_side:
            side = "left-gamma" if j % 2 == 0 else "left-lambda"
        else:
            side = "right-gamma" if j % 2 == 0 else "right-lambda"
        rung = TowerRung(j, current, side, projective=False)
        rung.projective = is_projective(rung.tested_module())
        rungs.append(rung)
        if not rung.projective:
            break
        if j + 1 < max_steps:
            current = _next_rung(rec, current, j, r_side)
    return rungs


def r_tower(rec: RecollementData, max_steps: int = 12) -> list[TowerRung]:
    """Rungs M_0 = eL, M_{j+1} = Hom into the alternating regular bimodule,
    tested as left corner-algebra modules (even j) and left modules over the
    whole algebra (odd j)."""
    return _tower(rec, max_steps, r_side=True)


def l_tower(rec: RecollementData, max_steps: int = 12) -> list[TowerRung]:
    """Mirror tower starting at Le with right-module projectivity tests."""
    return _tower(rec, max_steps, r_side=False)


def _env_for(rec: RecollementData, rung: TowerRung, r_side: bool) -> Algebra:
    even = rung.index % 2 == 0
    if r_side:
        return rec.env_gl if even else rec.env_lg
    return rec.env_lg if even else rec.env_gl


def _verdict(rec: RecollementData, rungs: list[TowerRung], max_steps: int, seed: int, r_side: bool) -> HeightVerdict:
    for rung in rungs:
        if not rung.projective:
            return HeightVerdict("exact", n=rung.index + 1, failing_rung=rung.index)
    randomized = False
    for jp in range(1, len(rungs)):
        for j in range(jp % 2, jp, 2):
            env = _env_for(rec, rungs[j], r_side)
            res = bimodules_isomorphic(rungs[j].bimodule, rungs[jp].bimodule, env=env, seed=seed)
            if res.kind == "probably_no":
                randomized = True
            elif res.kind == "yes":
                return HeightVerdict(
                    "periodic_infinite",
                    period=jp - j - 1,
                    first_repeat_index=jp,
                    matched_rung=j,
                    rung_gap=jp - j,
                    confidence="randomized" if randomized else "proved-No-impossible",
                    seed=seed,
                )
    return HeightVerdict("at_least", n=max_steps + 1, seed=seed)


def r_height(rec: RecollementData, max_steps: int = 12, seed: int = 0) -> HeightVerdict:
    return _verdict(rec, r_tower(rec, max_steps), max_steps, seed, r_side=True)


def l_height(rec: RecollementData, max_steps: int = 12, seed: int = 0) -> HeightVerdict:
    return _verdict(rec, l_tower(rec, max_steps), max_steps, seed, r_side=False)


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
    r_rungs = r_tower(rec, max_steps)
    l_rungs = l_tower(rec, max_steps)
    rv = _verdict(rec, r_rungs, max_steps, seed, r_side=True)
    lv = _verdict(rec, l_rungs, max_steps, seed, r_side=False)
    return LadderReport(rec, r_rungs, l_rungs, rv, lv, max_steps, seed)


# -- independent oracle: Hom(M_j, -) exactness ---------------------------------


def _hom_functor_exact_on(m: Module, sequences) -> Optional[dict]:
    """Check 0 -> Hom(M,A) -> Hom(M,B) -> Hom(M,C) -> 0 for each sequence;
    returns a witness record at the first failure, None if all stayed exact."""
    f = m.field
    for idx, (incl, proj) in enumerate(sequences):
        ha = hom_space(m, incl.source)
        hb = hom_space(m, incl.target)
        hc = hom_space(m, proj.target)
        rank_i = rref(ha.induced(hb, f, post=incl.matrix), f).rank
        rank_p = rref(hb.induced(hc, f, post=proj.matrix), f).rank
        ker_p = len(hb) - rank_p
        ok = rank_i == len(ha) and rank_p == len(hc) and ker_p == rank_i
        if not ok:
            return {"witness_index": idx, "hom_dims": [len(ha), len(hb), len(hc)]}
    return None


def height_cross_check(rec: RecollementData, report: LadderReport, samples: int = 30, seed: int = 0) -> dict:
    """Independent oracle: a rung is projective iff Hom(M_j, -) preserves
    short exact sequences.  Probes each rung's tested one-sided module on its
    own cover sequence (which detects non-projectivity for certain) plus
    random sequences.  PASS iff every probe agrees with the stored verdict."""
    rng = np.random.default_rng(seed)
    f = rec.field
    results = []
    for label, rungs in (("r", report.r_rungs), ("l", report.l_rungs)):
        for rung in rungs:
            m = rung.tested_module()
            a = m.algebra
            cover, surj = projective_cover(m)
            syz, incl0 = submodule(cover, kernel_basis(surj.matrix, f))
            sequences = [(incl0, surj)]
            for _ in range(samples):
                sequences.append(random_short_exact_sequence(a, rng))
            witness = _hom_functor_exact_on(m, sequences)
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
    return {"status": status, "rungs": results, "samples": samples, "seed": seed}
