"""Ext/Tor with cutoff, stratifying ideals, spli/silp, Gorenstein tests.

All dimensions that are genuinely infinite suprema are reported as Bound
values: Exact(n) when a syzygy vanished (so the value is known), otherwise
AtLeast(cutoff + 1).  Cutoff-qualified verdicts carry their cutoff in the
serialized reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, AlgebraError, opposite
from .linalg import Field, rref
from .modules import (
    Module,
    ModulePool,
    dual,
    hom_into_regular,
    hom_space,
    is_isomorphic,
    minimal_resolution,
    module_pool,
    projective_cover,
    projective_indecomposables,
    regular_module,
    simples,
    tensor_over,
)
from .recollement import (
    HomFunctor,
    RecollementData,
    TensorFunctor,
    adjunction_mismatches,
    applied_once,
    counit_e_r,
    counit_mu,
    probe_exactness,
    unit_e_l,
)
from .ladder import LadderReport

__all__ = [
    "Bound",
    "GorensteinReport",
    "GPVerdict",
    "ext_dim",
    "ext_dims",
    "tor_dim",
    "tor_dims",
    "projective_dimension",
    "injective_dimension",
    "is_stratifying",
    "spli_silp",
    "relative_gldim",
    "is_gorenstein_projective",
    "is_gorenstein_injective",
    "stable_hom_dim",
    "preservation_harness",
    "gorenstein_projective_pools",
    "lemma_checks",
]


@dataclass(frozen=True)
class Bound:
    """Exact(n) or AtLeast(n); Exact only when the computation terminated."""

    kind: str  # "exact" | "at_least"
    n: int

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    def describe(self) -> str:
        return f"{'Exact' if self.is_exact else 'AtLeast'}({self.n})"

    @staticmethod
    def maximum(bounds: list["Bound"]) -> "Bound":
        if not bounds:
            return Bound("exact", 0)
        n = max(b.n for b in bounds)
        kind = "exact" if all(b.is_exact for b in bounds) else "at_least"
        return Bound(kind, n)


def projective_dimension(m: Module, cutoff: int) -> Bound:
    kind, n = minimal_resolution(m, cutoff).pd_bound()
    return Bound(kind, n)


def injective_dimension(m: Module, cutoff: int) -> Bound:
    return projective_dimension(dual(m), cutoff)


# -- Ext ------------------------------------------------------------------------


def _homology_dims(dims: list[int], maps: list[np.ndarray], top: int, f: Field) -> list[int]:
    """Homology dimensions 0 .. top of a complex with terms of dimension dims
    and maps[j - 1] between terms j - 1 and j (either direction); terms past
    the last are zero.  Each map is ranked once."""
    ranks = [0] + [rref(d, f).rank for d in maps] + [0]
    return [dims[i] - ranks[i] - ranks[i + 1] if i < len(dims) else 0 for i in range(top + 1)]


def ext_dims(m: Module, n: Module, top: int) -> list[int]:
    """Dimensions of Ext^0 .. Ext^top via a minimal projective resolution of m
    and the induced Hom complex."""
    f = m.field
    res = minimal_resolution(m, top + 1)
    bases = [hom_space(p, n) for p in res.terms]
    # delta[j - 1]: Hom(P_{j-1}, n) -> Hom(P_j, n), j >= 1
    deltas = [bases[j - 1].induced(bases[j], f, pre=res.differentials[j].matrix) for j in range(1, len(bases))]
    return _homology_dims([len(b) for b in bases], deltas, top, f)


def ext_dim(m: Module, n: Module, i: int) -> int:
    """Exact dimension of Ext^i(m, n)."""
    return ext_dims(m, n, i)[i]


# -- Tor ------------------------------------------------------------------------


def tor_dims(m_right: Module, n_left: Module, top: int) -> list[int]:
    """Dimensions of Tor_0 .. Tor_top; m_right is a right module (a Module
    over the opposite algebra), n_left a left module over the same algebra."""
    f = m_right.field
    if not opposite(m_right.algebra).same_as(n_left.algebra):
        raise AlgebraError("Tor needs a right and a left module over the same algebra")
    res = minimal_resolution(n_left, top + 1)
    tens = [tensor_over(m_right, p) for p in res.terms]
    # partial[j - 1]: M (x) P_j -> M (x) P_{j-1}, j >= 1
    partials = [
        tens[j][1].induced(f, op_right=res.differentials[j].matrix, target=tens[j - 1][1]) for j in range(1, len(tens))
    ]
    return _homology_dims([t.dim for t, _ in tens], partials, top, f)


def tor_dim(m_right: Module, n_left: Module, i: int) -> int:
    return tor_dims(m_right, n_left, i)[i]


# -- stratifying ideals ------------------------------------------------------------


def is_stratifying(rec: RecollementData, cutoff: int = 8) -> dict:
    """LeL is stratifying iff multiplication Le (x)_G eL -> LeL is bijective
    and Tor_i^G(Le, eL) = 0 for i >= 1 (checked through the cutoff).

    Both conditions are evaluated and reported even when the first fails, so
    a No verdict names every obstruction found."""
    # the multiplication map Le (x)_G eL -> L is the counit mu at the regular module
    reg = regular_module(rec.lam)
    mult, tens = counit_mu(rec, reg, rec.functor_e().apply(reg))
    tensor_dim, ideal_dim, mult_rank = tens.module.dim, rec.ideal_rows.shape[0], mult.rank
    iso = tensor_dim == ideal_dim and mult_rank == tensor_dim
    tors = tor_dims(rec.lambda_e.right_restrict(), rec.e_lambda.left_restrict(), cutoff)
    witness = next((i for i in range(1, cutoff + 1) if tors[i] != 0), None)
    reasons = []
    if not iso:
        reasons.append("multiplication Le (x) eL -> LeL is not bijective")
    if witness is not None:
        reasons.append(f"Tor_{witness} over the corner is nonzero")
    return {
        "status": "Yes" if not reasons else "No",
        "cutoff": cutoff,
        "multiplication_iso": iso,
        "tensor_dim": tensor_dim,
        "ideal_dim": ideal_dim,
        "mult_rank": mult_rank,
        "tor_dims": tors,
        "tor_witness_degree": witness,
        "reason": "; ".join(reasons) if reasons else None,
    }


# -- spli / silp / Gorenstein -------------------------------------------------------


@dataclass(frozen=True)
class GorensteinReport:
    spli: Bound
    silp: Bound
    gorenstein: str  # "yes" | "unknown"
    gdim: Optional[int]
    cutoff: int
    injective_pds: tuple
    projective_ids: tuple

    def to_json(self) -> dict:
        return {
            "spli": self.spli.to_json(),
            "silp": self.silp.to_json(),
            "gorenstein": self.gorenstein,
            "gdim": self.gdim,
            "cutoff": self.cutoff,
            "injective_pds": [b.to_json() for b in self.injective_pds],
            "projective_ids": [b.to_json() for b in self.projective_ids],
        }

    def describe(self) -> str:
        if self.gorenstein == "yes":
            return f"Yes({self.gdim})"
        return f"Unknown(cutoff={self.cutoff})"

    def opposite(self) -> "GorensteinReport":
        """The opposite algebra's report: the same resolutions, sides swapped."""
        return GorensteinReport(self.silp, self.spli, self.gorenstein, self.gdim, self.cutoff, self.projective_ids, self.injective_pds)


def _gorenstein_report(a: Algebra, cutoff: int) -> GorensteinReport:
    injective_pds = tuple(projective_dimension(dual(p), cutoff) for p in projective_indecomposables(opposite(a)))
    projective_ids = tuple(injective_dimension(p, cutoff) for p in projective_indecomposables(a))
    spli = Bound.maximum(injective_pds)
    silp = Bound.maximum(projective_ids)
    if spli.is_exact and silp.is_exact:
        return GorensteinReport(spli, silp, "yes", max(spli.n, silp.n), cutoff, injective_pds, projective_ids)
    return GorensteinReport(spli, silp, "unknown", None, cutoff, injective_pds, projective_ids)


def spli_silp(a: Algebra, cutoff: int = 8) -> GorensteinReport:
    """spli = sup pd over injective indecomposables, silp = sup id over
    projective indecomposables; the suprema over all modules agree by
    additivity over direct sums.

    Computed once per algebra and cutoff and kept on the algebra; its
    opposite keeps the swapped report."""
    key = ("gorenstein", cutoff)
    if key not in a._derived:
        a._derived[key] = _gorenstein_report(a, cutoff)
        opposite(a)._derived.setdefault(key, a._derived[key].opposite())
    return a._derived[key]


def relative_gldim(rec: RecollementData, cutoff: int = 8) -> Bound:
    """sup of pd over the inflations of the simple quotient-algebra modules;
    bounds the sup over all quotient-side modules by induction on composition
    series."""
    if rec.sigma.dim == 0:
        return Bound("exact", 0)
    fi = rec.functor_i()
    bounds = []
    for s in simples(rec.sigma):
        inflated = fi.apply(s).module
        bounds.append(projective_dimension(inflated, cutoff))
    return Bound.maximum(bounds)


# -- Gorenstein projective / injective ----------------------------------------------


@dataclass(frozen=True)
class GPVerdict:
    status: str  # "yes" | "no"
    qualified: bool  # True when only cutoff-certified
    cutoff: int
    reason: Optional[str] = None

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    def to_json(self) -> dict:
        return {"status": self.status, "cutoff_qualified": self.qualified, "cutoff": self.cutoff, "reason": self.reason}


def is_gorenstein_projective(m: Module, cutoff: int = 8) -> GPVerdict:
    """Ext-vanishing against the regular module on both sides plus biduality.

    Reads the report spli_silp keeps for the algebra at this cutoff.  When it
    certifies the algebra Gorenstein with G-dim d, M is Gorenstein projective
    iff Ext^i(M, A) = 0 for 1 <= i <= d (Enochs & Jenda, Relative Homological
    Algebra, ch. 10-11), so only Ext^1 .. Ext^d are computed and the verdict
    is exact.  Verdict and reason are the full test's: id A = d, so a nonzero
    Ext^i(M, A) has i <= d and the first one is the same.  Otherwise the full
    test runs and a yes is cutoff-qualified.  A zero module is an exact yes.
    Kept on m per cutoff, and on the kept arrays a pool module wraps.
    """
    if cutoff not in m._gp_verdicts:
        m._gp_verdicts[cutoff] = _gp_verdict(m, cutoff)
    return m._gp_verdicts[cutoff]


def _gp_verdict(m: Module, cutoff: int) -> GPVerdict:
    if m.dim == 0:
        return GPVerdict("yes", False, cutoff)
    a = m.algebra
    f = m.field
    rep = spli_silp(a, cutoff)
    exact = rep.gorenstein == "yes"
    top = rep.gdim if exact else cutoff
    exts = ext_dims(m, regular_module(a), top) if top else [0]
    for i in range(1, top + 1):
        if exts[i] != 0:
            return GPVerdict("no", False, cutoff, reason=f"Ext^{i}(M, algebra) has dimension {exts[i]}")
    if exact:
        return GPVerdict("yes", False, cutoff)
    mt, hb1 = hom_into_regular(m)
    reg_op = regular_module(mt.algebra)
    exts_t = ext_dims(mt, reg_op, cutoff)
    for i in range(1, cutoff + 1):
        if exts_t[i] != 0:
            return GPVerdict("no", False, cutoff, reason=f"Ext^{i}(transpose dual, opposite algebra) nonzero")
    # biduality M -> Hom(Hom(M, A), A)
    hb2 = hom_space(mt, reg_op)
    bidual = hb2.coords(hb1.matrices.transpose(2, 1, 0), f).T  # column x: evaluation at x
    if not (len(hb2) == m.dim and rref(bidual, f).rank == m.dim):
        return GPVerdict("no", False, cutoff, reason="biduality map is not an isomorphism")
    return GPVerdict("yes", True, cutoff)


def is_gorenstein_injective(m: Module, cutoff: int = 8) -> GPVerdict:
    """Dual notion: M is Gorenstein injective iff D(M) is Gorenstein
    projective over the opposite algebra, tested against its kept report."""
    return is_gorenstein_projective(dual(m), cutoff)


# -- stable Hom ---------------------------------------------------------------------


def stable_hom_dim(m: Module, n: Module) -> int:
    """dim of Hom(m, n) modulo maps factoring through a projective.

    Maps factoring through any projective factor through the cover of n, so the
    factoring subspace is the image of composition with the cover surjection.
    """
    f = m.field
    hb = hom_space(m, n)
    if not len(hb):
        return 0
    cover, surj = projective_cover(n)
    hcov = hom_space(m, cover)
    return len(hb) - rref(hcov.induced(hb, f, post=surj.matrix), f).rank


# -- Theorem-style harnesses ---------------------------------------------------------


def preservation_harness(
    rec: RecollementData,
    ladder: LadderReport,
    samples: int = 4,
    seed: int = 0,
    cutoff: int = 8,
) -> dict:
    """Check, clause by clause, that designated functors preserve Gorenstein
    projectivity/injectivity whenever this fixture meets the clause's ladder
    hypotheses, plus the stable-Hom adjunction identities.  Clauses with
    unmet hypotheses are SKIPPED.  Each runs on the GP or GI modules of the pools
    of L and G (`samples` draws where not certified), naming them on failure.

    One table row per clause: its text, whether its hypotheses hold, and a
    check returning its failure records, run only when they hold.  A check
    two clauses share runs once, and each functor is applied once per
    module."""
    rng = np.random.default_rng(seed)
    lam, gam = rec.lam, rec.gamma
    lv, rv = ladder.l_verdict, ladder.r_verdict
    rep_lam, rep_gam = spli_silp(lam, cutoff), spli_silp(gam, cutoff)
    rel = relative_gldim(rec, cutoff)

    def gp(m):
        return is_gorenstein_projective(m, cutoff).is_yes

    def gi(m):
        return is_gorenstein_injective(m, cutoff).is_yes

    pool_lam, pool_gam = module_pool(lam, samples, rng), module_pool(gam, samples, rng)
    # each list is classified when a met clause first reads it
    gp_lam, gp_gam, gi_lam, gi_gam = (
        functools.cache(functools.partial(pool.where, test)) for pool, test in ((pool_lam, gp), (pool_gam, gp), (pool_lam, gi), (pool_gam, gi))
    )
    # each applied once per module, the values shared by all the checks
    fe, fl, fr = map(applied_once, (rec.functor_e(), rec.functor_l(), rec.functor_r()))
    r1 = HomFunctor(ladder.r_rungs[1].bimodule) if len(ladder.r_rungs) > 1 else None

    def preserves(functor, xs, predicate, label):
        return [
            {"module": name, "input_dim": m.dim, "output_dim": out.dim, "property": label}
            for name, m in xs.modules.items()
            if (out := functor.apply(m).module).dim and not predicate(out)
        ]

    def r1_r_iso():
        return [
            {"module": name, "input_dim": m.dim, "output_dim": back.dim, "property": "r1 r iso"}
            for name, m in gi_gam().modules.items()
            if not is_isomorphic(m, back := r1.apply(fr.apply(m).module).module, seed=seed).is_yes
        ]

    def stable(left, right, xs, ys, name):
        return [
            {"x": x, "y": y, "lhs": lhs, "rhs": rhs, "identity": f"stable ({name})"}
            for x, y, lhs, rhs in adjunction_mismatches(left, right, xs, ys, stable_hom_dim)
        ]

    corner_gp = functools.cache(lambda: preserves(fe, gp_lam(), gp, "GP over corner"))
    gdim_grows = rep_lam.gorenstein == rep_gam.gorenstein == "yes" and rep_gam.gdim > rep_lam.gdim
    table = [
        ("corner functor preserves Gorenstein projectives (relative gldim finite, r-height >= 2)",
         rel.is_exact and rv.meets(2),
         corner_gp),
        ("left adjoint preserves Gorenstein projectives (relative gldim finite, l- and r-height >= 2)",
         rel.is_exact and rv.meets(2) and lv.meets(2),
         lambda: preserves(fl, gp_gam(), gp, "GP over middle")),
        ("first upper adjoint preserves Gorenstein projectives (l-height >= 3)",
         lv.meets(3) and len(ladder.l_rungs) > 1,
         lambda: preserves(TensorFunctor(ladder.l_rungs[1].bimodule), gp_lam(), gp, "GP over corner")),
        ("corner functor preserves Gorenstein injectives (l-height >= 3)",
         lv.meets(3),
         lambda: preserves(fe, gi_lam(), gi, "GInj over corner")),
        ("corner G-dimension bounded by middle G-dimension (l-height >= 3)",
         lv.meets(3),
         lambda: [{"gdim_corner": rep_gam.gdim, "gdim_middle": rep_lam.gdim}] if gdim_grows else []),
        ("left adjoint preserves Gorenstein injectives, counit iso on them (l-height >= 4)",
         lv.meets(4),
         lambda: preserves(fl, gi_gam(), gi, "GInj over middle") + _iso_failures(rec, gi_gam(), unit_e_l, fl, "e_l")),
        ("corner functor preserves Gorenstein projectives (r-height >= 3)",
         rv.meets(3),
         corner_gp),
        ("first lower adjoint preserves Gorenstein injectives (r-height >= 3)",
         rv.meets(3) and r1 is not None,
         lambda: preserves(r1, gi_lam(), gi, "GInj over corner")),
        ("right adjoint preserves Gorenstein projectives, counit iso on them (r-height >= 4)",
         rv.meets(4),
         lambda: preserves(fr, gp_gam(), gp, "GP over middle") + _iso_failures(rec, gp_gam(), counit_e_r, fr, "e_r")),
        ("right adjoint preserves Gorenstein injectives, r1 r iso on them (l-height >= 2, r-height >= 3)",
         lv.meets(2) and rv.meets(3) and r1 is not None,
         lambda: preserves(fr, gi_gam(), gi, "GInj over middle") + r1_r_iso()),
        ("stable Hom adjunction for (l, e) on Gorenstein projectives (l >= 2, r >= 3)",
         lv.meets(2) and rv.meets(3),
         lambda: stable(fl, fe, gp_gam(), gp_lam(), "l, e")),
        ("stable Hom adjunction for (e, r) on Gorenstein projectives (r-height >= 4)",
         rv.meets(4),
         lambda: stable(fe, fr, gp_lam(), gp_gam(), "e, r")),
    ]
    clauses = []
    for name, met, check in table:
        if not met:
            clauses.append({"clause": name, "status": "SKIPPED", "reason": "hypotheses unmet"})
            continue
        failures = check()
        clauses.append({"clause": name, "status": "FAIL" if failures else "PASS", "failures": failures})
    return {
        "status": "FAIL" if any(c["status"] == "FAIL" for c in clauses) else "PASS",
        "clauses": clauses,
        "samples": samples,
        "seed": seed,
        "pools": {"middle": pool_lam.to_json(), "corner": pool_gam.to_json()},
        "cutoff": cutoff,
        "relative_gldim": rel.to_json(),
        "gorenstein_middle": rep_lam.to_json(),
        "gorenstein_corner": rep_gam.to_json(),
    }


def _iso_failures(rec: RecollementData, pool_gam: ModulePool, unit, functor, which: str) -> list:
    """Records for the pool's modules N where unit(rec, N, functor(N)) is not an isomorphism."""
    return [{"identity": which, "module": k, "dim": n.dim} for k, n in pool_gam.modules.items() if not unit(rec, n, functor.apply(n))[0].is_isomorphism()]


def gorenstein_projective_pools(rec: RecollementData, cutoff: int, samples: int, seed: int) -> tuple[ModulePool, ModulePool]:
    """The Gorenstein projectives of the module pools of the corner and the
    middle algebra, in that order (one seeded rng where not certified)."""
    rng = np.random.default_rng(seed)
    return tuple(module_pool(a, samples, rng).where(lambda m: is_gorenstein_projective(m, cutoff).is_yes) for a in (rec.gamma, rec.lam))


def _ext_adjunction(left, right, rng, top: int, name: str) -> dict:
    """dim Ext^i(left x, y) = dim Ext^i(x, right y), i <= top, for an adjoint
    pair left -| right on every pair of the module pools of their sources
    (three seeded draws each where not certified)."""
    xs, ys = module_pool(left.source_algebra, 3, rng), module_pool(right.source_algebra, 3, rng)
    found = adjunction_mismatches(left, right, xs, ys, lambda x, y: ext_dims(x, y, top))
    mismatches = [{"x": nx, "y": ny, "degree": d, "lhs": a, "rhs": b} for nx, ny, ls, rs in found for d, (a, b) in enumerate(zip(ls, rs)) if a != b]
    return {"check": name, "ok": not mismatches, "pools": {"x": xs.to_json(), "y": ys.to_json()}, "mismatches": mismatches}


def lemma_checks(rec: RecollementData, cutoff: int = 8, seed: int = 0) -> dict:
    """Exactness-conditional checks: when the probe finds the right (resp.
    left) adjoint exact, assert the spli inequality between corner and middle
    and the Ext-adjunction dimension identities for Ext^0 .. Ext^min(4, cutoff)."""
    rng = np.random.default_rng(seed)
    fe = rec.functor_e()
    fl = rec.functor_l()
    fr = rec.functor_r()
    top = min(4, cutoff)
    checks = []
    probed = {"r_exact": fr, "l_exact": fl, "q_exact": rec.functor_q(), "p_exact": rec.functor_p()}
    probes = {key: probe_exactness(functor) for key, functor in probed.items()}

    if probes["r_exact"]["status"] == "Exact":
        rep_gam = spli_silp(rec.gamma, cutoff)
        rep_lam = spli_silp(rec.lam, cutoff)
        if rep_gam.spli.is_exact and rep_lam.spli.is_exact:
            checks.append(
                {
                    "check": "spli(corner) <= spli(middle) when the right adjoint is exact",
                    "ok": rep_gam.spli.n <= rep_lam.spli.n,
                    "spli_corner": rep_gam.spli.n,
                    "spli_middle": rep_lam.spli.n,
                }
            )
        checks.append(_ext_adjunction(fe, fr, rng, top, "Ext adjunction for (e, r) with r exact"))

    if probes["l_exact"]["status"] == "Exact":
        checks.append(_ext_adjunction(fl, fe, rng, top, "Ext adjunction for (l, e) with l exact"))

    status = "PASS" if all(c.get("ok", True) for c in checks) else "FAIL"
    return {"status": status, "probes": probes, "checks": checks, "cutoff": cutoff, "seed": seed}
