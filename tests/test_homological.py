import numpy as np
import pytest

from ladderkit.algebra import (
    Idempotent,
    QuiverPresentation,
    algebra_from_quiver,
    build_ideal_matrix_algebra,
    build_triangular,
    dual_numbers_algebra,
    ground_field_algebra,
    opposite,
    preprojective_a2,
)
from ladderkit.fixtures import fixture_names, load_fixture, parse_idempotent
from ladderkit.homological import (
    Bound,
    GPVerdict,
    ext_dim,
    gorenstein_projective_pools,
    ext_dims,
    injective_dimension,
    is_gorenstein_injective,
    is_gorenstein_projective,
    is_stratifying,
    lemma_checks,
    preservation_harness,
    projective_dimension,
    relative_gldim,
    spli_silp,
    stable_hom_dim,
    tor_dim,
    tor_dims,
)
from ladderkit.ladder import ladder_report
from ladderkit.recollement import build_recollement as _br
from ladderkit.linalg import Field, kernel_basis, rref
from ladderkit.modules import (
    dual,
    hom_into_regular,
    hom_space,
    is_isomorphic,
    module_pool,
    projective_cover,
    projective_indecomposables,
    random_module,
    regular_module,
    simples,
    submodule,
    zero_module,
)
from ladderkit.recollement import HomFunctor, SubquotientFunctor, TensorFunctor, build_recollement
from ladderkit.verify import RECOLLEMENT_FIXTURES

F = Field(101)
K = ground_field_algebra(F)


def rec_for(name):
    alg, default_e = load_fixture(name, F)
    return build_recollement(alg, parse_idempotent(alg, default_e))


def rad_square_zero_two_vertices():
    """Vertices carrying dual numbers, one arrow each way, radical square
    zero: the corner at either vertex is the dual numbers and both carriers
    restrict to A + S, producing a genuine Tor_1 obstruction."""
    arrows = [(0, 0, "u"), (1, 1, "v"), (0, 1, "a"), (1, 0, "b")]
    composable = []
    for x in arrows:
        for y in arrows:
            if x[1] == y[0]:
                composable.append((x[2], y[2]))
    q = QuiverPresentation(2, arrows, composable, path_length_bound=2)
    return algebra_from_quiver(q, F)


# -- Ext -----------------------------------------------------------------------


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_ext_dims_agrees_with_ext_dim_per_degree(name):
    # one resolution to depth top must give each degree's value from its own run
    alg, _ = load_fixture(name, F)
    rng = np.random.default_rng(5)
    top = 3
    for _ in range(2):
        m = random_module(alg, rng, max_summands=2)
        n = random_module(alg, rng, max_summands=2)
        assert ext_dims(m, n, top) == [ext_dim(m, n, i) for i in range(top + 1)]


def test_ext_zero_is_hom():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(0)
    m = random_module(pp, rng)
    n = random_module(pp, rng)
    from ladderkit.modules import hom_space

    assert ext_dim(m, n, 0) == len(hom_space(m, n))


def test_ext_vanishes_on_projectives():
    t2 = build_triangular(K, 2)
    p1 = projective_indecomposables(t2)[0]
    s1 = simples(t2)[0]
    assert ext_dims(p1, s1, 4)[1:] == [0, 0, 0, 0]


def test_ext_periodic_dual_numbers():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    assert ext_dims(s, s, 5) == [1, 1, 1, 1, 1, 1]


def test_ext_consistency_with_injective_coresolution():
    # Ext^i(M, N) = Ext^i over the opposite of (D N, D M): the dual projective
    # resolution of D N is an injective coresolution of N
    for alg in (build_triangular(K, 2), preprojective_a2(F), dual_numbers_algebra(F)):
        rng = np.random.default_rng(1)
        for _ in range(3):
            m = random_module(alg, rng, max_summands=2)
            n = random_module(alg, rng, max_summands=2)
            lhs = ext_dims(m, n, 4)
            rhs = ext_dims(dual(n), dual(m), 4)
            assert lhs == rhs


# -- Tor -----------------------------------------------------------------------


def test_tor_zero_is_tensor():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    s_op = simples(opposite(dn))[0]
    from ladderkit.modules import tensor_over

    t, _ = tensor_over(s_op, s)
    assert tor_dim(s_op, s, 0) == t.dim == 1


def test_tor_vanishes_on_projectives():
    t2 = build_triangular(K, 2)
    p_op = projective_indecomposables(opposite(t2))[0]
    s1 = simples(t2)[0]
    assert tor_dims(p_op, s1, 4)[1:] == [0, 0, 0, 0]


def test_tor_periodic_dual_numbers():
    dn = dual_numbers_algebra(F)
    assert tor_dims(simples(opposite(dn))[0], simples(dn)[0], 4) == [1, 1, 1, 1, 1]


def test_tor_ext_duality_over_field():
    # dim Tor_i(X, M) = dim Ext^i(M, D(X)) for a right module X
    t2 = build_triangular(K, 2)
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = random_module(opposite(t2), rng, max_summands=2)
        m = random_module(t2, rng, max_summands=2)
        assert tor_dims(x, m, 4) == ext_dims(m, dual(x), 4)


# -- stratifying -----------------------------------------------------------------


def test_stratifying_t2_yes():
    res = is_stratifying(rec_for("t2"), 8)
    assert res["status"] == "Yes"
    assert res["multiplication_iso"]
    assert res["tor_dims"][1:] == [0] * 8


def test_stratifying_prop32_yes():
    res = is_stratifying(rec_for("prop32-dual-numbers"), 8)
    assert res["status"] == "Yes"


def test_stratifying_preproj_no_mult():
    res = is_stratifying(rec_for("preproj-a2"), 8)
    assert res["status"] == "No"
    assert not res["multiplication_iso"]
    assert res["tensor_dim"] == 4 and res["ideal_dim"] == 3


def test_stratifying_tor_witness():
    alg = rad_square_zero_two_vertices()
    e = Idempotent(alg, alg.element_from_label("e1"))
    rec = build_recollement(alg, e)
    assert rec.gamma.dim == 2  # dual numbers at the vertex
    res = is_stratifying(rec, 8)
    assert res["status"] == "No"
    assert res["tor_witness_degree"] == 1
    assert res["tor_dims"][1] == 1


# -- spli / silp / Gorenstein -------------------------------------------------------


def test_gorenstein_semisimple():
    m2 = build_ideal_matrix_algebra(K, F.eye(1), 2)
    rep = spli_silp(m2, 8)
    assert rep.describe() == "Yes(0)"


def test_gorenstein_self_injective_fixtures():
    for alg in (dual_numbers_algebra(F), preprojective_a2(F)):
        rep = spli_silp(alg, 8)
        assert rep.gorenstein == "yes" and rep.gdim == 0
        # oracle: self-injectivity via D(regular over the opposite) = regular
        d = dual(regular_module(opposite(alg)))
        assert is_isomorphic(d, regular_module(alg), seed=0).is_yes


def test_gorenstein_t2():
    rep = spli_silp(build_triangular(K, 2), 8)
    assert rep.spli == Bound("exact", 1)
    assert rep.silp == Bound("exact", 1)
    assert rep.gdim == 1


def test_pd_id_bounds():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    assert projective_dimension(s, 6) == Bound("at_least", 7)
    assert injective_dimension(s, 6) == Bound("at_least", 7)
    t2 = build_triangular(K, 2)
    s1, s2 = simples(t2)
    assert projective_dimension(s1, 6) == Bound("exact", 1)
    assert injective_dimension(s2, 6) == Bound("exact", 1)


def test_relative_gldim():
    assert relative_gldim(rec_for("t2"), 8) == Bound("exact", 1)
    assert relative_gldim(rec_for("m2k"), 8) == Bound("exact", 0)  # zero quotient
    # self-injective middle: inflated simple has infinite pd
    assert relative_gldim(rec_for("preproj-a2"), 8) == Bound("at_least", 9)


# -- Gorenstein projective / injective -----------------------------------------------


def test_gp_projectives_always_yes():
    t2 = build_triangular(K, 2)
    for p in projective_indecomposables(t2):
        v = is_gorenstein_projective(p, 8)
        assert v.is_yes and not v.qualified


def test_gp_over_self_injective_everything():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(3)
    for s in simples(pp):
        assert is_gorenstein_projective(s, 8).is_yes
    m = random_module(pp, rng)
    assert is_gorenstein_projective(m, 8).is_yes
    assert is_gorenstein_injective(m, 8).is_yes


def test_gp_simple_over_t2_no():
    t2 = build_triangular(K, 2)
    s1 = simples(t2)[0]
    v = is_gorenstein_projective(s1, 8)
    assert not v.is_yes
    assert "Ext^1" in v.reason
    # subsumption: a GP module has vanishing Ext against the regular module
    p1 = projective_indecomposables(t2)[0]
    assert ext_dims(p1, regular_module(t2), 4)[1:] == [0, 0, 0, 0]


def test_gp_cutoff_qualification():
    # the dual numbers are certified Gorenstein (self-injective): exact verdict
    dn = dual_numbers_algebra(F)
    assert not is_gorenstein_projective(simples(dn)[0], 6).qualified
    # the middle algebra of prop32-dual-numbers is not certified within the
    # cutoff, so a yes there is cutoff-qualified
    lam = rec_for("prop32-dual-numbers").lam
    assert spli_silp(lam, 8).describe() == "Unknown(cutoff=8)"
    v = is_gorenstein_projective(projective_indecomposables(lam)[0], 8)
    assert v.is_yes and v.qualified
    # a zero module is an exact yes before any report is read
    fresh = rec_for("prop32-dual-numbers").lam
    assert is_gorenstein_projective(zero_module(fresh), 8) == GPVerdict("yes", False, 8)
    assert ("gorenstein", 8) not in fresh._derived


# -- stable Hom -------------------------------------------------------------------


def test_stable_hom_examples():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    reg = regular_module(dn)
    assert stable_hom_dim(s, s) == 1
    assert stable_hom_dim(s, reg) == 0  # target projective
    assert stable_hom_dim(reg, s) == 0  # source projective: maps factor through it
    pp = preprojective_a2(F)
    s1 = simples(pp)[0]
    assert stable_hom_dim(projective_indecomposables(pp)[0], s1) == 0


# -- harness and lemma checks --------------------------------------------------------


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_preservation_harness_no_failures(name):
    rec = rec_for(name)
    rep = ladder_report(rec, 12, 0)
    res = preservation_harness(rec, rep, seed=0, cutoff=8)
    assert res["status"] == "PASS"
    statuses = {c["status"] for c in res["clauses"]}
    assert "FAIL" not in statuses


def test_harness_skips_low_height_clauses():
    rec = rec_for("prop32-dual-numbers")  # l-height 1
    rep = ladder_report(rec, 12, 0)
    res = preservation_harness(rec, rep, seed=0, cutoff=8)
    skipped = [c for c in res["clauses"] if c["status"] == "SKIPPED"]
    assert skipped  # every l-height >= 2 clause must be gated off


def test_harness_self_injective_runs_all_clauses():
    rec = rec_for("preproj-a2")
    rep = ladder_report(rec, 12, 0)
    res = preservation_harness(rec, rep, seed=0, cutoff=8)
    by_status = {}
    for c in res["clauses"]:
        by_status.setdefault(c["status"], []).append(c["clause"])
    # infinite heights: only the relative-gldim-gated clauses may be skipped
    for clause in by_status.get("SKIPPED", []):
        assert "relative gldim" in clause


def test_harness_reads_one_gorenstein_report_per_algebra(monkeypatch):
    import ladderkit.homological as hom

    built = []

    def counted(a, cutoff, _build=hom._gorenstein_report):
        built.append(a)
        return _build(a, cutoff)

    monkeypatch.setattr(hom, "_gorenstein_report", counted)
    rec = rec_for("preproj-a2")
    rep = ladder_report(rec, 12, 0)
    preservation_harness(rec, rep, seed=0, cutoff=8)
    assert built == [rec.lam, rec.gamma]  # the GP and GI tests read these, and their swaps on the opposites
    built.clear()
    xs, ys = gorenstein_projective_pools(rec, 8)
    assert xs.modules and ys.modules and built == []
    fresh = rec_for("preproj-a2")
    gorenstein_projective_pools(fresh, 8)
    assert built == [fresh.gamma, fresh.lam]


def test_harness_classifies_only_the_pools_met_clauses_read(monkeypatch):
    """On prop32-dual-numbers (l-height 1) the met clauses read only the
    middle algebra's GP list, so no corner pool module is classified."""
    import ladderkit.homological as hom

    tested = []
    for fn in ("is_gorenstein_projective", "is_gorenstein_injective"):

        def counted(m, *args, _test=getattr(hom, fn), **kwargs):
            tested.append(m)
            return _test(m, *args, **kwargs)

        monkeypatch.setattr(hom, fn, counted)
    rec = rec_for("prop32-dual-numbers")
    res = preservation_harness(rec, ladder_report(rec, 12, 0), seed=0, cutoff=8)
    assert res["status"] == "PASS" and res["pools"]["corner"]["certified"]
    corner_pool = [m.action for m in module_pool(rec.gamma).modules.values()]
    middle_pool = [m.action for m in module_pool(rec.lam).modules.values()]
    assert corner_pool and not any(m.action is x for m in tested for x in corner_pool)
    assert any(m.action is x for m in tested for x in middle_pool)


@pytest.mark.parametrize("name", ["preproj-a2", "t2"])
def test_harness_applies_each_functor_once_per_module(monkeypatch, name):
    applied = []  # (functor, module); holding the module keeps its id unique
    for cls in (TensorFunctor, HomFunctor, SubquotientFunctor):

        def counted(self, m, _apply=cls.apply):
            key = id(self.bimod) if hasattr(self, "bimod") else (id(self.along), getattr(self.carve, "__func__", self.carve))
            applied.append(((type(self), key), m))
            return _apply(self, m)

        monkeypatch.setattr(cls, "apply", counted)
    rec = rec_for(name)
    rep = ladder_report(rec, 12, 0)
    applied.clear()
    preservation_harness(rec, rep, seed=0, cutoff=8)
    keys = [(functor, id(m)) for functor, m in applied]
    assert keys and len(set(keys)) == len(keys)


def _gp_full(m, cutoff):
    """The full Gorenstein-projectivity test, which reads no report: Ext^1 ..
    Ext^cutoff against the regular module on both sides, and biduality.
    Returns (status, reason)."""
    f = m.field
    exts = ext_dims(m, regular_module(m.algebra), cutoff)
    for i in range(1, cutoff + 1):
        if exts[i] != 0:
            return "no", f"Ext^{i}(M, algebra) has dimension {exts[i]}"
    mt, hb1 = hom_into_regular(m)
    reg_op = regular_module(mt.algebra)
    exts_t = ext_dims(mt, reg_op, cutoff)
    for i in range(1, cutoff + 1):
        if exts_t[i] != 0:
            return "no", f"Ext^{i}(transpose dual, opposite algebra) nonzero"
    hb2 = hom_space(mt, reg_op)
    bidual = hb2.coords(hb1.matrices.transpose(2, 1, 0), f).T
    if not (len(hb2) == m.dim and rref(bidual, f).rank == m.dim):
        return "no", "biduality map is not an isomorphism"
    return "yes", None


def _syzygy(m):
    cover, surj = projective_cover(m)
    return submodule(cover, kernel_basis(surj.matrix, m.field))[0]


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_ambient_only_qualifies_the_gp_verdict(name):
    """The GP and GI tests, which read the ambient algebra's kept report
    (Ext up to the G-dimension only where it is certified), against the full
    test, over both algebras and their opposites: the report changes only
    whether a yes is cutoff-qualified."""
    for field in (F, Field(None)):
        alg, default_e = load_fixture(name, field)
        rec = build_recollement(alg, parse_idempotent(alg, default_e))
        rng = np.random.default_rng(11)
        for a in (rec.lam, rec.gamma, opposite(rec.lam), opposite(rec.gamma)):
            if field.p is None and a.dim > 12:
                continue  # ideal-chain's 22-dim middle costs about a minute over Q; F_101 covers it
            certified, certified_op = (spli_silp(x, 8).gorenstein == "yes" for x in (a, opposite(a)))
            omegas = [_syzygy(s) for s in simples(a)]
            pool = (
                projective_indecomposables(a)
                + [dual(p) for p in projective_indecomposables(opposite(a))]
                + simples(a)
                + [m for m in omegas + [_syzygy(w) for w in omegas] if m.dim]
                + [random_module(a, rng, max_summands=2) for _ in range(5)]
            )
            for m in pool:
                for full, short, cert in (
                    (_gp_full(m, 8), is_gorenstein_projective(m, 8), certified),
                    (_gp_full(dual(m), 8), is_gorenstein_injective(m, 8), certified_op),
                ):
                    assert full == (short.status, short.reason), (name, field, m.dim)
                    assert short.qualified == (not cert and short.is_yes and m.dim > 0), (name, field, m.dim)


def _count_engine_calls(monkeypatch):
    """Patch minimal_resolution and hom_space wherever homological reaches
    them; returns the list each call appends its name to."""
    import ladderkit.homological as hom
    import ladderkit.modules as mod

    calls = []
    for module in (hom, mod):
        for fn in ("minimal_resolution", "hom_space"):
            if hasattr(module, fn):

                def counted(*args, _fn=getattr(module, fn), _name=fn, **kw):
                    calls.append(_name)
                    return _fn(*args, **kw)

                monkeypatch.setattr(module, fn, counted)
    return calls


def test_certified_self_injective_gp_test_solves_nothing(monkeypatch):
    pp = preprojective_a2(F)
    assert spli_silp(pp, 8).describe() == "Yes(0)"
    rng = np.random.default_rng(2)
    pool = projective_indecomposables(pp) + simples(pp) + [random_module(pp, rng, max_summands=2) for _ in range(3)]
    calls = _count_engine_calls(monkeypatch)
    for m in pool:
        assert is_gorenstein_projective(m, 8).is_yes
        assert is_gorenstein_injective(m, 8).is_yes
    assert calls == []


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_gorenstein_report_kept_once_and_swapped_onto_the_opposite(field):
    import ladderkit.homological as hom

    for name in fixture_names():
        a, _ = load_fixture(name, field)
        assert spli_silp(a, 8) is spli_silp(a, 8)
        fresh_op = hom._gorenstein_report(opposite(a), 8)
        assert spli_silp(opposite(a), 8).to_json() == fresh_op.to_json() == hom._gorenstein_report(a, 8).opposite().to_json()


def test_gp_verdicts_kept_with_the_pool_arrays(monkeypatch):
    # a second pool wraps the kept arrays again and reads their verdicts,
    # as c9 reads what c8 classified; another cutoff is a new verdict
    import ladderkit.homological as hom

    rec = rec_for("t3")
    computed = []
    full = hom._gp_verdict
    monkeypatch.setattr(hom, "_gp_verdict", lambda m, cutoff: computed.append(cutoff) or full(m, cutoff))
    first = gorenstein_projective_pools(rec, 8)
    n = len(computed)
    assert n == sum(len(module_pool(a).modules) for a in (rec.gamma, rec.lam))
    again = gorenstein_projective_pools(rec, 8)
    assert len(computed) == n
    assert [p.modules.keys() for p in first] == [p.modules.keys() for p in again]
    gorenstein_projective_pools(rec, 6)
    assert computed[n:] == [6] * n


def test_gdim_comparison_under_l_height_three():
    for name in ("preproj-a2", "m2k"):
        rec = rec_for(name)
        rep_mid = spli_silp(rec.lam, 8)
        rep_cor = spli_silp(rec.gamma, 8)
        if rep_mid.gorenstein == "yes" and rep_cor.gorenstein == "yes":
            assert rep_cor.gdim <= rep_mid.gdim


def test_lemma_checks_t2():
    res = lemma_checks(rec_for("t2"), cutoff=6)
    assert res["status"] == "PASS"
    assert res["probes"]["r_exact"]["status"] == "Exact"
    assert res["probes"]["q_exact"]["status"] == "Exact"
    assert res["probes"]["p_exact"]["status"] == "Failed"
    names = [c["check"] for c in res["checks"]]
    assert any("spli" in n for n in names)
    assert any("Ext adjunction" in n for n in names)


def test_lemma_checks_prop32():
    res = lemma_checks(rec_for("prop32-dual-numbers"), cutoff=6)
    assert res["status"] == "PASS"
    # l is not exact here, so only the (e, r) side is asserted
    assert res["probes"]["l_exact"]["status"] == "Failed"


def test_stable_adjunction_on_t2():
    rec = rec_for("t2")
    rng = np.random.default_rng(5)
    fe, fl = rec.functor_e(), rec.functor_l()
    pairs = 0
    while pairs < 10:
        x = random_module(rec.gamma, rng, max_summands=2)
        y = random_module(rec.lam, rng, max_summands=2)
        if x.dim == 0 or y.dim == 0:
            continue
        if not is_gorenstein_projective(x, 8).is_yes:
            continue
        if not is_gorenstein_projective(y, 8).is_yes:
            continue
        pairs += 1
        assert stable_hom_dim(fl.apply(x).module, y) == stable_hom_dim(x, fe.apply(y).module)


def test_stable_adjunction_nontrivial_corner():
    # triangular ring over the dual numbers: heights (2, 4) qualify and the
    # corner is not semisimple, so stable Hom spaces are genuinely nonzero
    dn = dual_numbers_algebra(F)
    t2a = build_triangular(dn, 2)
    rec = build_recollement(t2a, Idempotent(t2a, t2a.prim_idempotents[1]))
    rep = ladder_report(rec, 8, 0)
    assert rep.l_verdict.meets(2) and rep.r_verdict.meets(3)
    assert spli_silp(rec.gamma, 8).gdim == 0  # the corner is the dual numbers, self-injective
    rng = np.random.default_rng(6)
    fe, fl = rec.functor_e(), rec.functor_l()
    # pinned nonzero instance: X the corner simple (GP: the corner is
    # self-injective), Y = l(X) (GP: one-sided socle module over the middle)
    s = simples(rec.gamma)[0]
    ls = fl.apply(s).module
    assert is_gorenstein_projective(s, 8).is_yes
    assert is_gorenstein_projective(ls, 8).is_yes
    lhs = stable_hom_dim(fl.apply(s).module, ls)
    rhs = stable_hom_dim(s, fe.apply(ls).module)
    assert lhs == rhs == 1
    checked = 0
    while checked < 8:
        x = random_module(rec.gamma, rng, max_summands=2)
        y = random_module(rec.lam, rng, max_summands=2)
        if x.dim == 0 or y.dim == 0:
            continue
        if not is_gorenstein_projective(x, 8).is_yes:
            continue
        if not is_gorenstein_projective(y, 8).is_yes:
            continue
        checked += 1
        assert stable_hom_dim(fl.apply(x).module, y) == stable_hom_dim(x, fe.apply(y).module)
