"""The recollement of module categories induced by an idempotent.

For an algebra L with idempotent e, the three categories are modules over
S = L/LeL, L itself and G = eLe.  The six functors are materialized as module
constructions with companion constructions on maps:

    i: inflation along L ->> S          q: M |-> M/(LeL)M
    p: M |-> {x : (LeL)x = 0}           e: M |-> eM
    l: Le (x)_G -                       r: Hom_G(eL, -)

Axioms (adjunctions, q l = 0 = p r, the two canonical four-term exact
sequences) are verified at runtime on concrete modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    CornerEmbedding,
    Idempotent,
    QuotientProjection,
    corner,
    enveloping,
    quotient_by_idempotent_ideal,
)
from .linalg import Field, column_space_basis, intersect_kernels, kernel_basis, rank, unit_rows
from .modules import (
    Bimodule,
    HomBasis,
    Module,
    ModuleMap,
    TensorData,
    hom_module,
    hom_space,
    random_module,
    random_short_exact_sequence,
    quotient_module,
    serialize_module,
    tensor_over,
)

__all__ = [
    "RecollementData",
    "build_recollement",
    "FunctorValue",
    "TensorFunctor",
    "HomFunctor",
    "CornerFunctor",
    "InflationFunctor",
    "TopQuotientFunctor",
    "SocleFunctor",
    "counit_mu",
    "unit_nu",
    "unit_lambda",
    "counit_kappa",
    "unit_e_l",
    "counit_e_r",
    "verify_canonical_sequences",
    "check_axioms",
    "probe_exactness",
    "torsion_class_membership",
    "torsion_audit",
]


@dataclass
class RecollementData:
    """The idempotent, corner and quotient algebras, and the two carriers
    with their bases inside L."""

    lam: Algebra
    e: Idempotent
    gamma: Algebra
    corner_embedding: CornerEmbedding
    sigma: Algebra
    quotient_projection: QuotientProjection
    e_lambda: Bimodule  # eL as a (G, L)-bimodule
    lambda_e: Bimodule  # Le as an (L, G)-bimodule
    e_lambda_basis: np.ndarray  # (dim L, dim eL) column basis of eL
    lambda_e_basis: np.ndarray  # (dim L, dim Le) column basis of Le
    e_in_e_lambda: np.ndarray  # coordinates of e in e_lambda_basis
    e_in_lambda_e: np.ndarray  # coordinates of e in lambda_e_basis
    env_gl: Algebra  # G (x) L^op, shared by all (G, L) rungs
    env_lg: Algebra  # L (x) G^op

    @property
    def field(self) -> Field:
        return self.lam.field

    @property
    def ideal_rows(self) -> np.ndarray:
        """Row basis of the two-sided ideal LeL."""
        return self.quotient_projection.ideal_rows

    # functor shortcuts
    def functor_e(self) -> "CornerFunctor":
        return CornerFunctor(self)

    def functor_l(self) -> "TensorFunctor":
        return TensorFunctor(self.lambda_e)

    def functor_r(self) -> "HomFunctor":
        return HomFunctor(self.e_lambda)

    def functor_i(self) -> "InflationFunctor":
        return InflationFunctor(self)

    def functor_q(self) -> "TopQuotientFunctor":
        return TopQuotientFunctor(self)

    def functor_p(self) -> "SocleFunctor":
        return SocleFunctor(self)


def build_recollement(lam: Algebra, e: Idempotent) -> RecollementData:
    """Construct corner, quotient and both carrier bimodules; e must be
    nontrivial (neither 0 nor the unit)."""
    if e.is_zero or e.is_unit:
        raise AlgebraError("recollement needs a nontrivial idempotent")
    f = lam.field
    gamma, emb = corner(lam, e)
    sigma, qproj = quotient_by_idempotent_ideal(lam, e)

    # the actions of gamma, seen inside L, on either side
    g_left = f.einsum("it,iab->tab", emb.matrix, lam.left_mult)
    g_right = f.einsum("it,iab->tab", emb.matrix, lam.right_mult)

    be = column_space_basis(lam.left_mult_matrix(e.element), f)  # basis of eL
    rows_e = unit_rows(be)
    e_lambda = Bimodule(gamma, lam, f.matmul(g_left, be)[:, rows_e], f.matmul(lam.right_mult, be)[:, rows_e])

    bl = column_space_basis(lam.right_mult_matrix(e.element), f)  # basis of Le
    rows_l = unit_rows(bl)
    lambda_e = Bimodule(lam, gamma, f.matmul(lam.left_mult, bl)[:, rows_l], f.matmul(g_right, bl)[:, rows_l])

    return RecollementData(
        lam=lam,
        e=e,
        gamma=gamma,
        corner_embedding=emb,
        sigma=sigma,
        quotient_projection=qproj,
        e_lambda=e_lambda,
        lambda_e=lambda_e,
        e_lambda_basis=be,
        lambda_e_basis=bl,
        e_in_e_lambda=e.element[rows_e],
        e_in_lambda_e=e.element[rows_l],
        env_gl=enveloping(gamma, lam),
        env_lg=enveloping(lam, gamma),
    )


# -- functors with companion map-level constructions ---------------------------


@dataclass
class FunctorValue:
    """Result of applying a functor to one module, with coordinate data."""

    module: Module
    data: object = None


class TensorFunctor:
    """B (x)_Y - for a (X, Y)-bimodule B: Mod Y -> Mod X."""

    def __init__(self, bimod: Bimodule):
        self.bimod = bimod
        self.source_algebra = bimod.right
        self.target_algebra = bimod.left

    def apply(self, m: Module) -> FunctorValue:
        out, td = tensor_over(self.bimod, m)
        return FunctorValue(out, td)

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        td_a: TensorData = va.data
        mat = td_a.induced(f.source.field, op_right=f.matrix, target=vb.data)
        return ModuleMap(va.module, vb.module, mat, _validate=False)


class HomFunctor:
    """Hom_X(B, -) for a (X, Y)-bimodule B: Mod X -> Mod Y."""

    def __init__(self, bimod: Bimodule):
        self.bimod = bimod
        self.source_algebra = bimod.left
        self.target_algebra = bimod.right

    def apply(self, m: Module) -> FunctorValue:
        out, hb = hom_module(self.bimod, m)
        return FunctorValue(out, hb)

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        hb_a: HomBasis = va.data
        mat = hb_a.induced(vb.data, f.source.field, post=f.matrix)
        return ModuleMap(va.module, vb.module, mat, _validate=False)


class CornerFunctor:
    """M |-> eM with its eLe-module structure; the value's data is the basis
    of eM inside M and the rows that give coordinates on it."""

    def __init__(self, rec: RecollementData):
        self.rec = rec
        self.source_algebra = rec.lam
        self.target_algebra = rec.gamma

    def apply(self, m: Module) -> FunctorValue:
        f = m.field
        cols = column_space_basis(m.act_vector(self.rec.e.element), f)
        rows = unit_rows(cols)
        g = self.rec.gamma
        act = f.zeros(g.dim, cols.shape[1], cols.shape[1])
        for t in range(g.dim):
            act[t] = f.matmul(m.act_vector(self.rec.corner_embedding.matrix[:, t]), cols)[rows]
        return FunctorValue(Module(g, act), (cols, rows))

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        cols_a, _ = va.data
        _, rows_b = vb.data
        return ModuleMap(va.module, vb.module, f.source.field.matmul(f.matrix, cols_a)[rows_b], _validate=False)


class InflationFunctor:
    """Mod S -> Mod L along the projection L ->> S = L/LeL."""

    def __init__(self, rec: RecollementData):
        self.rec = rec
        self.source_algebra = rec.sigma
        self.target_algebra = rec.lam

    def apply(self, m: Module) -> FunctorValue:
        f = m.field
        proj = self.rec.quotient_projection.projection
        lam = self.rec.lam
        act = f.zeros(lam.dim, m.dim, m.dim)
        for i in range(lam.dim):
            act[i] = m.act_vector(proj[:, i])
        return FunctorValue(Module(lam, act))

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        return ModuleMap(va.module, vb.module, f.matrix, _validate=False)


class TopQuotientFunctor:
    """q: M |-> M/(LeL)M, a module over S."""

    def __init__(self, rec: RecollementData):
        self.rec = rec
        self.source_algebra = rec.lam
        self.target_algebra = rec.sigma

    def _ideal_subspace_rows(self, m: Module) -> np.ndarray:
        f = m.field
        rows = self.rec.ideal_rows
        if rows.shape[0] == 0 or m.dim == 0:
            return f.zeros(0, m.dim)
        mats = [m.act_vector(rows[t]) for t in range(rows.shape[0])]
        return column_space_basis(np.concatenate(mats, axis=1), f).T

    def apply(self, m: Module) -> FunctorValue:
        f = m.field
        quot_l, proj = quotient_module(m, self._ideal_subspace_rows(m))
        sig = self.rec.sigma
        sect = self.rec.quotient_projection.section
        act = f.zeros(sig.dim, quot_l.dim, quot_l.dim)
        for t in range(sig.dim):
            act[t] = f.matmul(proj.matrix, f.matmul(m.act_vector(sect[:, t]), proj.section))
        return FunctorValue(Module(sig, act), proj)

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        fld = f.source.field
        proj_a: ModuleMap = va.data
        proj_b: ModuleMap = vb.data
        mat = fld.matmul(proj_b.matrix, fld.matmul(f.matrix, proj_a.section))
        return ModuleMap(va.module, vb.module, mat, _validate=False)


class SocleFunctor:
    """p: M |-> {x : (LeL)x = 0}, a module over S; data as for CornerFunctor."""

    def __init__(self, rec: RecollementData):
        self.rec = rec
        self.source_algebra = rec.lam
        self.target_algebra = rec.sigma

    def apply(self, m: Module) -> FunctorValue:
        f = m.field
        ideal = self.rec.ideal_rows
        mats = [m.act_vector(ideal[t]) for t in range(ideal.shape[0])]
        cols = intersect_kernels(mats, m.dim, f) if mats else f.eye(m.dim)
        rows = unit_rows(cols)
        sig = self.rec.sigma
        sect = self.rec.quotient_projection.section
        act = f.zeros(sig.dim, cols.shape[1], cols.shape[1])
        for t in range(sig.dim):
            act[t] = f.matmul(m.act_vector(sect[:, t]), cols)[rows]
        return FunctorValue(Module(sig, act), (cols, rows))

    on_map = CornerFunctor.on_map


# -- units and counits -----------------------------------------------------------


def counit_mu(rec: RecollementData, m: Module) -> tuple[ModuleMap, FunctorValue, FunctorValue]:
    """mu_M: l(e(M)) -> M, lambda e (x) x |-> (lambda e) . x.

    Returns (map, value of e(M), value of le(M))."""
    f = rec.field
    fe = rec.functor_e()
    fl = rec.functor_l()
    em = fe.apply(m)
    lem = fl.apply(em.module)
    cols_e, _ = em.data
    bl = rec.lambda_e_basis
    td: TensorData = lem.data
    raw = f.zeros(m.dim, rec.lambda_e.dim * em.module.dim)
    for s in range(rec.lambda_e.dim):
        acting = m.act_vector(bl[:, s])
        block = f.matmul(acting, cols_e)
        raw[:, s * em.module.dim : (s + 1) * em.module.dim] = block
    mat = f.matmul(raw, td.sect)
    return ModuleMap(lem.module, m, mat), em, lem


def unit_nu(rec: RecollementData, m: Module) -> tuple[ModuleMap, FunctorValue, FunctorValue]:
    """nu_M: M -> r(e(M)), x |-> (u |-> e-coordinates of u . x)."""
    f = rec.field
    fe = rec.functor_e()
    fr = rec.functor_r()
    em = fe.apply(m)
    rem = fr.apply(em.module)
    _, rows_e = em.data
    be = rec.e_lambda_basis
    hb: HomBasis = rem.data
    acting = f.einsum("is,iab->sab", be, m.action)  # eL acting on M
    mat = f.zeros(rem.module.dim, m.dim)
    for bidx in range(m.dim):
        mat[:, bidx] = hb.coords(acting[:, rows_e, bidx].T, f)
    return ModuleMap(m, rem.module, mat), em, rem


def unit_lambda(rec: RecollementData, m: Module) -> tuple[ModuleMap, FunctorValue]:
    """lambda_M: M -> i(q(M)) (the quotient projection)."""
    fq = rec.functor_q()
    fi = rec.functor_i()
    qm = fq.apply(m)
    iqm = fi.apply(qm.module)
    proj: ModuleMap = qm.data
    return ModuleMap(m, iqm.module, proj.matrix), iqm


def counit_kappa(rec: RecollementData, m: Module) -> tuple[ModuleMap, FunctorValue]:
    """kappa_M: i(p(M)) -> M (the inclusion)."""
    fp = rec.functor_p()
    fi = rec.functor_i()
    pm = fp.apply(m)
    ipm = fi.apply(pm.module)
    cols, _ = pm.data
    return ModuleMap(ipm.module, m, cols), ipm


def unit_e_l(rec: RecollementData, n: Module) -> ModuleMap:
    """The unit N -> e(l(N)) (an isomorphism; l is fully faithful)."""
    f = rec.field
    fl = rec.functor_l()
    fe = rec.functor_e()
    ln = fl.apply(n)
    eln = fe.apply(ln.module)
    td: TensorData = ln.data
    # e (x) x as a pure tensor
    e_in_le = rec.e_in_lambda_e
    raw = f.zeros(td.m_dim * td.n_dim, n.dim)
    for s in range(td.m_dim):
        if e_in_le[s] == 0:
            continue
        raw[s * td.n_dim : (s + 1) * td.n_dim] = f.normalize(e_in_le[s] * f.eye(n.dim))
    in_ln = f.matmul(td.proj, raw)
    _, rows_e = eln.data
    return ModuleMap(n, eln.module, in_ln[rows_e], _validate=False)


def counit_e_r(rec: RecollementData, n: Module) -> ModuleMap:
    """The counit e(r(N)) -> N, F |-> F(e) (an isomorphism; r is fully faithful)."""
    f = rec.field
    fr = rec.functor_r()
    fe = rec.functor_e()
    rn = fr.apply(n)
    ern = fe.apply(rn.module)
    hb: HomBasis = rn.data
    e_in_el = rec.e_in_e_lambda
    eval_at_e = f.zeros(n.dim, rn.module.dim)
    for s, mp in enumerate(hb.maps):
        eval_at_e[:, s] = f.matmul(mp.matrix, e_in_el)
    cols, _ = ern.data
    return ModuleMap(ern.module, n, f.matmul(eval_at_e, cols), _validate=False)


# -- canonical exact sequences -----------------------------------------------------


def _exact_at(into: np.ndarray, out_of: np.ndarray, f: Field) -> bool:
    """Is image(into) = kernel(out_of) for composable maps X -> Y -> Z?  The
    image lies in the kernel iff the composite is zero, and then they are
    equal iff their dimensions are."""
    return f.is_zero(f.matmul(out_of, into)) and rank(into, f) + rank(out_of, f) == out_of.shape[1]


def verify_canonical_sequences(rec: RecollementData, m: Module) -> dict:
    """Check exactness of the two four-term canonical sequences at M and that
    the outer terms are killed by e.  Returns {'status': 'PASS'} or a failure
    record naming the spot."""
    f = rec.field
    failures = []

    mu, _, lem = counit_mu(rec, m)
    lam_map, _ = unit_lambda(rec, m)
    if not _exact_at(mu.matrix, lam_map.matrix, f):
        failures.append("first sequence: image(mu) != kernel(lambda)")
    if not lam_map.is_surjective():
        failures.append("first sequence: lambda not epi onto iq(M)")
    ker_mu = kernel_basis(mu.matrix, f)
    if ker_mu.shape[1] and not f.is_zero(f.matmul(lem.module.act_vector(rec.e.element), ker_mu)):
        failures.append("first sequence: Ker(mu) not killed by e")

    kappa, _ = counit_kappa(rec, m)
    nu, _, rem = unit_nu(rec, m)
    if not _exact_at(kappa.matrix, nu.matrix, f):
        failures.append("second sequence: image(kappa) != kernel(nu)")
    if not kappa.is_injective():
        failures.append("second sequence: kappa not mono")
    coker, _ = quotient_module(rem.module, column_space_basis(nu.matrix, f).T)
    if coker.dim and not f.is_zero(coker.act_vector(rec.e.element)):
        failures.append("second sequence: Coker(nu) not killed by e")

    if failures:
        return {"status": "FAIL", "failures": failures, "module_dim": m.dim}
    return {"status": "PASS", "module_dim": m.dim}


def check_axioms(rec: RecollementData, samples: int, rng: np.random.Generator) -> list[dict]:
    """The recollement axioms on `samples` seeded random trials: the canonical
    sequences at a random L-module M; q l = 0 = p r and the isos e l = 1 = e r
    at a random G-module N; and dim Hom(F x, y) = dim Hom(x, G y) for the
    adjoint pairs (l, e) and (e, r), and, when S is nonzero, (q, i) and (i, p)
    at a random S-module.  Returns one record per failed check, [] if none."""
    fe, fl, fr = rec.functor_e(), rec.functor_l(), rec.functor_r()
    fq, fp, fi = rec.functor_q(), rec.functor_p(), rec.functor_i()
    failures = []
    for t in range(samples):
        m = random_module(rec.lam, rng, max_summands=2)
        n = random_module(rec.gamma, rng, max_summands=2)
        seq = verify_canonical_sequences(rec, m)
        if seq["status"] != "PASS":
            failures.append({"trial": t, "kind": "canonical", "detail": seq})
        ln, rn, em = fl.apply(n).module, fr.apply(n).module, fe.apply(m).module
        if fq.apply(ln).module.dim != 0:
            failures.append({"trial": t, "kind": "q l != 0"})
        if fp.apply(rn).module.dim != 0:
            failures.append({"trial": t, "kind": "p r != 0"})
        if not unit_e_l(rec, n).is_isomorphism():
            failures.append({"trial": t, "kind": "e l not iso"})
        if not counit_e_r(rec, n).is_isomorphism():
            failures.append({"trial": t, "kind": "e r not iso"})
        # (name, F x, y, x, G y) for each adjoint pair F -| G
        adjoint = [("l, e", ln, m, n, em), ("e, r", em, n, m, rn)]
        if rec.sigma.dim:
            s = random_module(rec.sigma, rng, max_summands=2)
            i_s = fi.apply(s).module
            adjoint += [("q, i", fq.apply(m).module, s, m, i_s), ("i, p", i_s, m, s, fp.apply(m).module)]
        for pair, fx, y, x, gy in adjoint:
            if len(hom_space(fx, y)) != len(hom_space(x, gy)):
                failures.append({"trial": t, "kind": f"adjunction ({pair})"})
    return failures


# -- exactness probes ----------------------------------------------------------------


def probe_exactness(functor, samples: int, seed: int, extra_sequences=None) -> dict:
    """Apply the functor to random short exact sequences over its source and
    check the images stay exact.  'exact' is sample evidence, not proof; a
    failure is a proof of non-exactness and carries the witness."""
    rng = np.random.default_rng(seed)
    a = functor.source_algebra
    sequences = list(extra_sequences or [])
    for _ in range(samples):
        sequences.append(random_short_exact_sequence(a, rng))
    for idx, (incl, proj) in enumerate(sequences):
        va = functor.apply(incl.source)
        vb = functor.apply(incl.target)
        vc = functor.apply(proj.target)
        fi = functor.on_map(incl, va, vb)
        fp = functor.on_map(proj, vb, vc)
        problems = []
        if not fi.is_injective():
            problems.append("left term not mono")
        if not fp.is_surjective():
            problems.append("right term not epi")
        if not _exact_at(fi.matrix, fp.matrix, incl.source.field):
            problems.append("middle not exact")
        if problems:
            return {
                "status": "Failed",
                "problems": problems,
                "witness_index": idx,
                "witness_dims": [incl.source.dim, incl.target.dim, proj.target.dim],
                "witness": {
                    "sub": serialize_module(incl.source),
                    "middle": serialize_module(incl.target),
                    "quotient": serialize_module(proj.target),
                    "inclusion": incl.matrix.tolist(),
                    "projection": proj.matrix.tolist(),
                },
                "seed": seed,
            }
    return {"status": "Exact", "samples": len(sequences), "seed": seed, "note": "evidence, not proof"}


# -- torsion machinery ----------------------------------------------------------------


def torsion_class_membership(rec: RecollementData, l_tower_m1: Bimodule, m: Module) -> bool:
    """Is l1(M) = M_1 (x)_L M zero?  Needs l-height >= 2 (caller checks)."""
    out, _ = tensor_over(l_tower_m1, m)
    return out.dim == 0


def torsion_audit(rec: RecollementData, l_tower, t_samples, f_samples) -> dict:
    """Necessary-condition audits for moving a torsion pair through l1.

    Sample-based only: checks Hom(T, F) = 0, Hom(l1 T, l1 F) = 0, and that
    l0 l1 (F) / l2 l1 (T) stay Hom-orthogonal against the given samples.
    Requires the l-tower to provide M_1 and M_2 (l-height >= 3).
    """
    if len(l_tower) < 3:
        raise AlgebraError("torsion_audit needs l-height >= 3 (tower rungs 0..2 projective)")
    m1 = l_tower[1].bimodule  # (G, L)
    m2 = l_tower[2].bimodule  # (L, G)
    l1 = TensorFunctor(m1)
    l0 = rec.functor_l()
    l2 = TensorFunctor(m2)
    checks = []

    def hom_zero(x: Module, y: Module) -> bool:
        return len(hom_space(x, y)) == 0

    ok_tf = all(hom_zero(t, fm) for t in t_samples for fm in f_samples)
    checks.append(("Hom(T, F) = 0 on samples", ok_tf))
    l1t = [l1.apply(t).module for t in t_samples]
    l1f = [l1.apply(fm).module for fm in f_samples]
    ok_l1 = all(hom_zero(x, y) for x in l1t for y in l1f)
    checks.append(("Hom(l1 T, l1 F) = 0 on samples", ok_l1))
    ok_f_side = all(
        hom_zero(t, l0.apply(y).module) for y in l1f for t in t_samples
    )
    checks.append(("Hom(T, l0 l1 F) = 0 on samples (F-side containment audit)", ok_f_side))
    ok_t_side = all(
        hom_zero(l2.apply(x).module, fm) for x in l1t for fm in f_samples
    )
    checks.append(("Hom(l2 l1 T, F) = 0 on samples (T-side containment audit)", ok_t_side))
    status = "PASS" if all(ok for _, ok in checks) else "FAIL"
    return {
        "status": status,
        "checks": [{"check": name, "ok": ok} for name, ok in checks],
        "note": "necessary-condition audits on finite samples, not closure-complete verification",
    }
