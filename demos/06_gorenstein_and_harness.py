# Homological consequences: stratifying ideals, spli/silp and Gorenstein
# verdicts, Gorenstein projective membership, stable Hom dimensions, and the
# preservation harness that re-tests Gorenstein properties after applying the
# recollement functors (gated by the computed ladder heights).

import numpy as np

from ladderkit.algebra import Idempotent, build_triangular, dual_numbers_algebra
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.homological import (
    is_gorenstein_projective,
    is_stratifying,
    lemma_checks,
    preservation_harness,
    relative_gldim,
    spli_silp,
    stable_hom_dim,
)
from ladderkit.ladder import ladder_report
from ladderkit.linalg import Field
from ladderkit.modules import simples
from ladderkit.recollement import build_recollement

F = Field(101)


def rec_of(name):
    alg, default_e = load_fixture(name, F)
    return build_recollement(alg, parse_idempotent(alg, default_e))


# --- stratifying ideals ----------------------------------------------------------
# Yes needs the multiplication Le (x) eL -> LeL bijective AND Tor vanishing
for name in ("t2", "prop32-dual-numbers", "preproj-a2"):
    res = is_stratifying(rec_of(name), cutoff=8)
    print(f"{name:22s} stratifying: {res['status']:3s}"
          + (f"  ({res['reason']})" if res["reason"] else ""))

# --- spli / silp / Gorenstein -------------------------------------------------------
print()
for name in ("dual-numbers", "preproj-a2", "t2", "m2k"):
    alg, _ = load_fixture(name, F)
    rep = spli_silp(alg, cutoff=8)
    print(f"{name:22s} spli={rep.spli.describe():9s} silp={rep.silp.describe():9s} -> {rep.describe()}")

# --- Gorenstein projectives ------------------------------------------------------------
t2 = rec_of("t2")
s1 = simples(t2.lam)[0]
v = is_gorenstein_projective(s1, 8)  # reads the Gorenstein report the algebra keeps
print(f"\nfirst simple over T2 Gorenstein projective? {v.status} ({v.reason})")
pp = rec_of("preproj-a2")
print("every module over the self-injective fixture is GP:",
      all(is_gorenstein_projective(s, 8).is_yes for s in simples(pp.lam)))

# --- stable Hom dimensions ---------------------------------------------------------------
dn = dual_numbers_algebra(F)
s = simples(dn)[0]
print("\nstable End of the simple over k[x]/(x^2):", stable_hom_dim(s, s))

# nontrivial stable adjunction: triangular ring over the dual numbers has
# heights (2, 4) and a non-semisimple corner
t2a = build_triangular(dn, 2)
rec = build_recollement(t2a, Idempotent(t2a, t2a.prim_idempotents[1]))
x = simples(rec.gamma)[0]
fl, fe = rec.functor_l(), rec.functor_e()
lx = fl.apply(x).module
print("stable Hom(l X, l X) =", stable_hom_dim(lx, lx),
      "= stable Hom(X, e l X) =", stable_hom_dim(x, fe.apply(lx).module))

# --- the preservation harness -------------------------------------------------------------
# each clause runs on the GP or GI modules among every indecomposable of the
# middle and corner algebras (T2 is Nakayama, so its module pool is
# certified); samples and seed only serve algebras without that certificate
print("\nharness on the triangular fixture (relative gldim",
      relative_gldim(t2, 8).describe() + "):")
rep = ladder_report(t2, 12, 0)
res = preservation_harness(t2, rep, samples=3, seed=0, cutoff=8)
print("  module pools:", res["pools"])
for c in res["clauses"]:
    print(f"  [{c['status']:7s}] {c['clause']}")

# the Ext adjunctions run on every pair of the two module pools
lc = lemma_checks(t2, cutoff=6, seed=0)
print("\nexactness-conditional lemma checks:", lc["status"])
for c in lc["checks"]:
    print("  ", c["check"], "->", "ok" if c["ok"] else "FAILED", c.get("pools", ""))

# --- torsion pairs from the first upper adjoint ---------------------------------------
# when the l-ladder reaches height two, Ker(l1) is a torsion class; the audit
# checks the necessary conditions on finite samples (never claiming closure)
from ladderkit.ladder import ladder_report
from ladderkit.modules import random_module
from ladderkit.recollement import torsion_audit, torsion_class_membership

pp = rec_of("preproj-a2")
rungs = ladder_report(pp, 6).l_rungs
m1 = rungs[1].bimodule
rng = np.random.default_rng(9)
pool = [m for m in (random_module(pp.lam, rng, max_summands=2) for _ in range(10)) if m.dim]
t_side = [m for m in pool if torsion_class_membership(m1, m)]
from ladderkit.modules import hom_space
f_side = [m for m in pool if m not in t_side and all(len(hom_space(t, m)) == 0 for t in t_side)]
print(f"\ntorsion membership on the self-injective fixture: {len(t_side)} torsion, "
      f"{len(f_side)} torsion-free candidates out of {len(pool)} samples")
audit = torsion_audit(pp, rungs, t_side, f_side)
print("torsion audit:", audit["status"], "--", audit["note"])
