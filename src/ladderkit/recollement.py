"""The recollement of module categories induced by an idempotent.

For an algebra L with idempotent e, the three categories are modules over
S = L/LeL, L itself and G = eLe.  The six functors are materialized as module
constructions with companion constructions on maps:

    i: inflation along L ->> S          q: M |-> M/(LeL)M
    p: M |-> {x : (LeL)x = 0}           e: M |-> eM
    l: Le (x)_G -                       r: Hom_G(eL, -)

Axioms (adjunctions, q l = 0 = p r, the two canonical four-term exact
sequences) are verified at runtime on concrete modules: every indecomposable
where the module pool is certified.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    CornerEmbedding,
    Idempotent,
    QuotientProjection,
    corner,
    enveloping,
    opposite,
    quotient_by_idempotent_ideal,
)
from .linalg import Field, column_space_basis, intersect_kernels, kernel_basis, quotient_coordinates, rank, unit_rows
from .modules import (
    Bimodule,
    HomBasis,
    Module,
    ModuleMap,
    ModulePool,
    TensorData,
    cover_sequence,
    dual,
    hom_module,
    hom_space,
    module_pool,
    quotient_module,
    serialize_module,
    simples,
    tensor_over,
)

__all__ = [
    "RecollementData",
    "build_recollement",
    "FunctorValue",
    "TensorFunctor",
    "HomFunctor",
    "SubquotientFunctor",
    "counit_mu",
    "unit_nu",
    "unit_lambda",
    "counit_kappa",
    "unit_e_l",
    "counit_e_r",
    "verify_canonical_sequences",
    "applied_once",
    "adjunction_mismatches",
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

    @functools.cached_property
    def env_gl(self) -> Algebra:
        """G (x) L^op, shared by all (G, L) rungs; built on first read, since
        only the towers and c2 read it.  Raises AlgebraError over F_p when
        dim G * dim L exceeds DIM_BOUND."""
        return enveloping(self.gamma, self.lam)

    @functools.cached_property
    def env_lg(self) -> Algebra:
        """L (x) G^op, built on first read."""
        return enveloping(self.lam, self.gamma)

    @property
    def field(self) -> Field:
        return self.lam.field

    @property
    def ideal_rows(self) -> np.ndarray:
        """Row basis of the two-sided ideal LeL."""
        return self.quotient_projection.ideal_rows

    # functor shortcuts
    def functor_e(self) -> "SubquotientFunctor":
        return SubquotientFunctor(self.lam, self.gamma, self.corner_embedding.matrix, self._carve_corner)

    def functor_l(self) -> "TensorFunctor":
        return TensorFunctor(self.lambda_e)

    def functor_r(self) -> "HomFunctor":
        return HomFunctor(self.e_lambda)

    def functor_i(self) -> "SubquotientFunctor":
        return SubquotientFunctor(self.sigma, self.lam, self.quotient_projection.projection, _carve_whole)

    def functor_q(self) -> "SubquotientFunctor":
        return SubquotientFunctor(self.lam, self.sigma, self.quotient_projection.section, self._carve_top)

    def functor_p(self) -> "SubquotientFunctor":
        return SubquotientFunctor(self.lam, self.sigma, self.quotient_projection.section, self._carve_socle)

    # carvings (embed, coords) of the subquotients eM, M/(LeL)M and {x : (LeL)x = 0}
    def _carve_corner(self, m: Module) -> tuple[np.ndarray, np.ndarray]:
        return _with_unit_coords(column_space_basis(m.act_vector(self.e.element), m.field), m.field)

    def _ideal_acting(self, m: Module) -> np.ndarray:
        """The actions on M of the row basis of LeL, stacked."""
        return m.field.einsum("it,iab->tab", self.ideal_rows.T, m.action)

    def _carve_top(self, m: Module) -> tuple[np.ndarray, np.ndarray]:
        f = m.field
        if self.ideal_rows.shape[0] == 0 or m.dim == 0:
            sub_rows = f.zeros(0, m.dim)
        else:
            sub_rows = column_space_basis(np.concatenate(list(self._ideal_acting(m)), axis=1), f).T
        proj, sect = quotient_coordinates(sub_rows, f)
        return sect, proj

    def _carve_socle(self, m: Module) -> tuple[np.ndarray, np.ndarray]:
        return _with_unit_coords(intersect_kernels(self._ideal_acting(m), m.dim, m.field), m.field)


def _with_unit_coords(cols: np.ndarray, f: Field) -> tuple[np.ndarray, np.ndarray]:
    """A reduced column basis and the rows of the identity that read
    coordinates on it."""
    return cols, f.eye(cols.shape[0])[unit_rows(cols)]


def _carve_whole(m: Module) -> tuple[np.ndarray, np.ndarray]:
    eye = m.field.eye(m.dim)
    return eye, eye


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


class SubquotientFunctor:
    """Restriction of scalars on a subquotient of M: e, i, q and p.

    carve(M) returns (embed, coords) with coords . embed = I: the columns of
    embed span the subquotient's lift in M, and coords reads its coordinates.
    The t-th basis element of the target algebra acts through the source
    element along[:, t], as coords . along[:, t] . embed.  The value's data
    is (embed, coords)."""

    def __init__(self, source_algebra: Algebra, target_algebra: Algebra, along: np.ndarray, carve):
        self.source_algebra = source_algebra
        self.target_algebra = target_algebra
        self.along = along
        self.carve = carve

    def apply(self, m: Module) -> FunctorValue:
        f = m.field
        embed, coords = self.carve(m)
        act = f.matmul(coords, f.matmul(f.einsum("it,iab->tab", self.along, m.action), embed))
        return FunctorValue(Module(self.target_algebra, act), (embed, coords))

    def on_map(self, f: ModuleMap, va: FunctorValue, vb: FunctorValue) -> ModuleMap:
        fld = f.source.field
        embed_a, _ = va.data
        _, coords_b = vb.data
        return ModuleMap(va.module, vb.module, fld.matmul(coords_b, fld.matmul(f.matrix, embed_a)), _validate=False)


# -- units and counits -----------------------------------------------------------


def counit_mu(rec: RecollementData, m: Module, em: FunctorValue) -> tuple[ModuleMap, FunctorValue]:
    """mu_M: l(e(M)) -> M, lambda e (x) x |-> (lambda e) . x, given em = e(M).

    Returns (map, value of le(M))."""
    f = rec.field
    lem = rec.functor_l().apply(em.module)
    cols_e, _ = em.data
    td: TensorData = lem.data
    # blocks[s]: the pure tensors (s, .) sent to (s-th basis element of Le) . x
    blocks = f.matmul(f.einsum("is,iab->sab", rec.lambda_e_basis, m.action), cols_e)
    raw = blocks.transpose(1, 0, 2).reshape(m.dim, td.m_dim * td.n_dim)
    return ModuleMap(lem.module, m, f.matmul(raw, td.sect)), lem


def unit_nu(rec: RecollementData, m: Module, em: FunctorValue) -> tuple[ModuleMap, FunctorValue]:
    """nu_M: M -> r(e(M)), x |-> (u |-> e-coordinates of u . x), given em = e(M).

    Returns (map, value of re(M))."""
    f = rec.field
    rem = rec.functor_r().apply(em.module)
    _, coords = em.data
    hb: HomBasis = rem.data
    acting = f.einsum("is,iab->sab", rec.e_lambda_basis, m.action)  # eL acting on M
    moved = f.matmul(coords, acting)  # moved[s, :, x]: e-coordinates of u_s . x
    mat = hb.coords(moved.transpose(2, 1, 0), f).T  # column x: the map u |-> u . x
    return ModuleMap(m, rem.module, mat), rem


def unit_lambda(rec: RecollementData, m: Module, qm: FunctorValue) -> tuple[ModuleMap, FunctorValue]:
    """lambda_M: M -> i(q(M)) (the quotient projection), given qm = q(M)."""
    iqm = rec.functor_i().apply(qm.module)
    _, proj = qm.data
    return ModuleMap(m, iqm.module, proj), iqm


def counit_kappa(rec: RecollementData, m: Module, pm: FunctorValue) -> tuple[ModuleMap, FunctorValue]:
    """kappa_M: i(p(M)) -> M (the inclusion), given pm = p(M)."""
    ipm = rec.functor_i().apply(pm.module)
    cols, _ = pm.data
    return ModuleMap(ipm.module, m, cols), ipm


def unit_e_l(rec: RecollementData, n: Module, ln: FunctorValue | None = None) -> tuple[ModuleMap, FunctorValue]:
    """The unit N -> e(l(N)) (an isomorphism; l is fully faithful), given ln = l(N) if known.

    Returns (map, value of l(N))."""
    f = rec.field
    ln = rec.functor_l().apply(n) if ln is None else ln
    eln = rec.functor_e().apply(ln.module)
    td: TensorData = ln.data
    raw = np.kron(rec.e_in_lambda_e[:, None], f.eye(n.dim))  # column x: e (x) x as a pure tensor
    _, coords = eln.data
    return ModuleMap(n, eln.module, f.matmul(coords, f.matmul(td.proj, raw)), _validate=False), ln


def counit_e_r(rec: RecollementData, n: Module, rn: FunctorValue | None = None) -> tuple[ModuleMap, FunctorValue]:
    """The counit e(r(N)) -> N, F |-> F(e) (an isomorphism; r is fully faithful), given rn = r(N) if known.

    Returns (map, value of r(N))."""
    f = rec.field
    rn = rec.functor_r().apply(n) if rn is None else rn
    ern = rec.functor_e().apply(rn.module)
    hb: HomBasis = rn.data
    eval_at_e = f.matmul(hb.matrices, rec.e_in_e_lambda).T  # column s: basis map s at e
    cols, _ = ern.data
    return ModuleMap(ern.module, n, f.matmul(eval_at_e, cols), _validate=False), rn


# -- canonical exact sequences -----------------------------------------------------


def _exact_at(into: np.ndarray, out_of: np.ndarray, f: Field) -> bool:
    """Is image(into) = kernel(out_of) for composable maps X -> Y -> Z?  The
    image lies in the kernel iff the composite is zero, and then they are
    equal iff their dimensions are."""
    return f.is_zero(f.matmul(out_of, into)) and rank(into, f) + rank(out_of, f) == out_of.shape[1]


def _short_exact_failures(into: np.ndarray, out_of: np.ndarray, f: Field) -> list[str]:
    """Where 0 -> X -> Y -> Z -> 0 fails to be exact, for into: X -> Y and
    out_of: Y -> Z; [] when it is short exact."""
    checks = (
        ("left term not mono", rank(into, f) == into.shape[1]),
        ("right term not epi", rank(out_of, f) == out_of.shape[0]),
        ("middle not exact", _exact_at(into, out_of, f)),
    )
    return [where for where, ok in checks if not ok]


def verify_canonical_sequences(rec: RecollementData, m: Module) -> dict:
    """Check exactness of the two four-term canonical sequences at M and that
    the outer terms are killed by e.  Returns {'status': 'PASS'} or a failure
    record naming the spot."""
    return _canonical_sequences(rec, m, rec.functor_e().apply(m), rec.functor_q().apply(m), rec.functor_p().apply(m))


def _canonical_sequences(rec: RecollementData, m: Module, em: FunctorValue, qm: FunctorValue, pm: FunctorValue) -> dict:
    """verify_canonical_sequences at M, given the values e(M), q(M) and p(M)."""
    f = rec.field
    failures = []

    mu, lem = counit_mu(rec, m, em)
    lam_map, _ = unit_lambda(rec, m, qm)
    if not _exact_at(mu.matrix, lam_map.matrix, f):
        failures.append("first sequence: image(mu) != kernel(lambda)")
    if not lam_map.is_surjective():
        failures.append("first sequence: lambda not epi onto iq(M)")
    ker_mu = kernel_basis(mu.matrix, f)
    if ker_mu.shape[1] and not f.is_zero(f.matmul(lem.module.act_vector(rec.e.element), ker_mu)):
        failures.append("first sequence: Ker(mu) not killed by e")

    kappa, _ = counit_kappa(rec, m, pm)
    nu, rem = unit_nu(rec, m, em)
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


def applied_once(functor) -> SimpleNamespace:
    """The functor with `apply` cached per module, so checks sharing a module share its value."""
    return SimpleNamespace(apply=functools.cache(functor.apply))


def adjunction_mismatches(left, right, xs: ModulePool, ys: ModulePool, measure) -> list[tuple]:
    """measure(left x, y) = measure(x, right y) for an adjoint pair left -| right
    on every pair of the two pools, each functor applied once per module.
    Returns (x's label, y's label, lhs, rhs) for each pair where they differ."""
    lx = {nx: left.apply(x).module for nx, x in xs.modules.items()}
    ry = {ny: right.apply(y).module for ny, y in ys.modules.items()}
    out = []
    for (nx, x), (ny, y) in itertools.product(xs.modules.items(), ys.modules.items()):
        lhs, rhs = measure(lx[nx], y), measure(x, ry[ny])
        if lhs != rhs:
            out.append((nx, ny, lhs, rhs))
    return out


def check_axioms(rec: RecollementData, samples: int, rng: np.random.Generator) -> dict:
    """The recollement axioms on the module pools of L, G and S (`samples` seeded
    draws each where not certified): the canonical sequences at each L-module;
    q l = 0 = p r and e l = 1 = e r at each G-module; dim Hom(F x, y) = dim Hom(x,
    G y) for (l, e), (e, r), (q, i) and (i, p) on every pair.  All are additive,
    so certified pools prove them for every module.  Returns the pools' sizes
    and a record per failed check, naming its modules."""
    pools = {side: module_pool(a, samples, rng) for side, a in (("middle", rec.lam), ("corner", rec.gamma), ("quotient", rec.sigma))}
    fe, fq, fp, fi, fl, fr = map(applied_once, (rec.functor_e(), rec.functor_q(), rec.functor_p(), rec.functor_i(), rec.functor_l(), rec.functor_r()))
    failures = []
    for label, m in pools["middle"].modules.items():
        seq = _canonical_sequences(rec, m, fe.apply(m), fq.apply(m), fp.apply(m))
        if seq["status"] != "PASS":
            failures.append({"kind": "canonical", "middle": label, "detail": seq})
    for label, n in pools["corner"].modules.items():
        ln, rn = fl.apply(n), fr.apply(n)
        bad = {"q l != 0": fq.apply(ln.module).module.dim, "p r != 0": fp.apply(rn.module).module.dim}
        bad |= {"e l not iso": not unit_e_l(rec, n, ln)[0].is_isomorphism(), "e r not iso": not counit_e_r(rec, n, rn)[0].is_isomorphism()}
        failures += [{"kind": kind, "corner": label} for kind, b in bad.items() if b]
    adjoint = [("l, e", fl, fe, "corner", "middle"), ("e, r", fe, fr, "middle", "corner")]
    adjoint += [("q, i", fq, fi, "middle", "quotient"), ("i, p", fi, fp, "quotient", "middle")]
    for pair, left, right, sx, sy in adjoint:
        found = adjunction_mismatches(left, right, pools[sx], pools[sy], lambda x, y: len(hom_space(x, y)))
        failures += [{"kind": f"adjunction ({pair})", sx: nx, sy: ny} for nx, ny, _, _ in found]
    return {"pools": {side: pool.to_json() for side, pool in pools.items()}, "failures": failures}


# -- exactness probes ----------------------------------------------------------------


def _envelope_sequence(t: Module) -> tuple[ModuleMap, ModuleMap]:
    """The dual 0 -> D(T) -> D(P) -> D(Omega T) -> 0 of the cover sequence of
    a module T over the opposite algebra; for T simple, D(P) is the injective
    envelope of the simple D(T)."""
    incl, surj = cover_sequence(t)
    sub, middle, quotient = dual(surj.target), dual(surj.source), dual(incl.source)
    return ModuleMap(sub, middle, surj.matrix.T, _validate=False), ModuleMap(middle, quotient, incl.matrix.T, _validate=False)


def probe_exactness(functor) -> dict:
    """Apply the functor to the cover sequence 0 -> Omega(S) -> P(S) -> S -> 0
    and the injective-envelope sequence 0 -> S -> I(S) -> I(S)/S -> 0 of each
    simple S over its source, and check the images stay short exact.

    Decisive for a functor that is left or right exact, as every recollement
    functor is (e exact, l and q right exact, r and p left exact): on
    finite-length modules L_1 F (R^1 F) vanishes iff it vanishes on the
    simples, by devissage, and L_1 F(S) (R^1 F(S)) is the failure of F to
    keep S's cover (envelope) sequence exact.  A failure carries the witness."""
    a = functor.source_algebra
    sequences = [cover_sequence(s) for s in simples(a)] + [_envelope_sequence(t) for t in simples(opposite(a))]
    for idx, (incl, proj) in enumerate(sequences):
        va = functor.apply(incl.source)
        vb = functor.apply(incl.target)
        vc = functor.apply(proj.target)
        fi = functor.on_map(incl, va, vb)
        fp = functor.on_map(proj, vb, vc)
        problems = _short_exact_failures(fi.matrix, fp.matrix, a.field)
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
            }
    return {"status": "Exact", "sequences": len(sequences)}


# -- torsion machinery ----------------------------------------------------------------


def torsion_class_membership(l_tower_m1: Bimodule, m: Module) -> bool:
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
        raise AlgebraError("torsion_audit needs l-height >= 3 (tower rungs 0 and 1 projective)")
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
