# Ladder heights: the central computation.  The tower of bimodules starts at
# eL (r-side) or Le (l-side); each rung is Hom of the previous one into the
# regular bimodule of the alternating algebra, and the ladder extends one
# more step exactly while the rung is projective on the tested side.
#
# Heights shown here:
#   triangular rings      -> l = Exact(2), r = Exact(4)
#   block ring over k[x]/(x^2), radical above the diagonal
#                         -> l = Exact(1), r = Exact(3)
#   the self-injective square algebra
#                         -> infinite ladders, period 3 (rungs recur at gap 4)
#   the full matrix algebra (semisimple)
#                         -> infinite ladders

from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.ladder import height_cross_check, ladder_report
from ladderkit.linalg import Field
from ladderkit.recollement import build_recollement

F = Field(101)

for name in ("t2", "t3", "prop32-dual-numbers", "preproj-a2", "m2k", "ideal-chain"):
    alg, default_e = load_fixture(name, F)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    rep = ladder_report(rec, max_steps=12, seed=0)
    print(f"\n=== {name} (middle dim {rec.lam.dim}, corner dim {rec.gamma.dim}) ===")
    print("r-height:", rep.r_verdict.describe())
    for r in rep.r_rungs:
        print(f"   rung {r.index}: {r.side_tested:12s} dim {r.dim:3d} projective={r.projective}")
    print("l-height:", rep.l_verdict.describe())
    for r in rep.l_rungs:
        print(f"   rung {r.index}: {r.side_tested:12s} dim {r.dim:3d} projective={r.projective}")

# --- the independent oracle --------------------------------------------------------
# a rung is projective iff Hom(rung, -) preserves short exact sequences; the
# cross-check probes every rung on its own cover sequence, which decides it:
# a projective rung keeps every sequence exact, and a non-projective one
# fails on its cover sequence
alg, default_e = load_fixture("prop32-dual-numbers", F)
rec = build_recollement(alg, parse_idempotent(alg, default_e))
rep = ladder_report(rec, 12, 0)
res = height_cross_check(rep)
print("\ncross-check on the block-ring fixture:", res["status"])
for r in res["rungs"]:
    print(f"   {r['tower']}-rung {r['rung']}: verdict projective={r['projective_verdict']}, "
          f"Hom-probe exact={r['hom_exact_on_probes']} -> agree={r['agrees']}")
