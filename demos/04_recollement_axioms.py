# The idempotent recollement and its six functors, with the axioms verified
# on concrete modules: adjunction dimension identities, the zero laws
# q l = 0 = p r, unit/counit isomorphisms and the two canonical four-term
# exact sequences; then on every indecomposable module at once.

import numpy as np

from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.linalg import Field
from ladderkit.modules import hom_space, module_pool, random_module, regular_module
from ladderkit.recollement import (
    build_recollement,
    check_axioms,
    counit_e_r,
    probe_exactness,
    unit_e_l,
    verify_canonical_sequences,
)

F = Field(101)
alg, default_e = load_fixture("t2", F)
rec = build_recollement(alg, parse_idempotent(alg, default_e))
print("middle dim", rec.lam.dim, "| corner dim", rec.gamma.dim, "| quotient dim", rec.sigma.dim)
print("carriers: eL has dim", rec.e_lambda.dim, ", Le has dim", rec.lambda_e.dim)

fe, fl, fr = rec.functor_e(), rec.functor_l(), rec.functor_r()
fq, fp, fi = rec.functor_q(), rec.functor_p(), rec.functor_i()

rng = np.random.default_rng(1)
m = random_module(rec.lam, rng)
n = random_module(rec.gamma, rng)
print("\nrandom middle module M of dim", m.dim, "and corner module N of dim", n.dim)

# --- the two adjoint triples, checked as dimension identities ----------------------
print("dim Hom(l N, M) =", len(hom_space(fl.apply(n).module, m)),
      " = dim Hom(N, e M) =", len(hom_space(n, fe.apply(m).module)))
print("dim Hom(e M, N) =", len(hom_space(fe.apply(m).module, n)),
      " = dim Hom(M, r N) =", len(hom_space(m, fr.apply(n).module)))

# --- zero laws and fully faithfulness ------------------------------------------------
print("\nq(l N) = 0:", fq.apply(fl.apply(n).module).module.dim == 0)
print("p(r N) = 0:", fp.apply(fr.apply(n).module).module.dim == 0)
print("unit N -> e l N is an isomorphism:", unit_e_l(rec, n)[0].is_isomorphism())
print("counit e r N -> N is an isomorphism:", counit_e_r(rec, n)[0].is_isomorphism())

# --- canonical exact sequences --------------------------------------------------------
for probe in (regular_module(rec.lam), m):
    print("canonical sequences at a module of dim", probe.dim, "->",
          verify_canonical_sequences(rec, probe)["status"])

# --- all of the above on every indecomposable, as `ladderkit recollement` runs it ---
# T2 is a Nakayama algebra (its projectives are uniserial on both sides), so
# the module pool holds every indecomposable once, P_i/rad^k P_i; each axiom
# is additive, so passing on the pool proves it for every module.  The
# sample count and rng only serve algebras without that certificate.
print("\nthe middle algebra's indecomposables:", list(module_pool(rec.lam, 10, np.random.default_rng(0)).modules))
res = check_axioms(rec, 10, np.random.default_rng(0))
print("axiom suite on the module pools", res["pools"], "->", "PASS" if not res["failures"] else res["failures"])

# --- exactness probes -------------------------------------------------------------------
# each probe runs the functor on the cover and injective-envelope sequences of
# the simples, which decides exactness for a left- or right-exact functor.
# e is exact (it restricts along an idempotent); p is provably NOT exact here:
# the quotient algebra is simple but not projective as a left module
print("\nexactness probes on the simples' cover and envelope sequences:")
for name, fun in (("e", fe), ("l", fl), ("r", fr), ("q", fq), ("p", fp)):
    res = probe_exactness(fun)
    print(f"  {name}: {res['status']}" + ("" if res["status"] == "Exact" else f"  ({', '.join(res['problems'])})"))
