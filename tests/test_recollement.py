import dataclasses
import re

import numpy as np
import pytest

from ladderkit.algebra import AlgebraError, Idempotent, build_triangular, dual_numbers_algebra, ground_field_algebra, opposite, preprojective_a2
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.homological import is_stratifying, spli_silp
from ladderkit.linalg import Field, solve
from ladderkit.modules import Module, ModuleMap, hom_space, is_isomorphic, is_projective, random_module, simples, regular_module
from ladderkit.recollement import (
    TensorFunctor,
    build_recollement,
    check_axioms,
    counit_e_r,
    counit_kappa,
    counit_mu,
    probe_exactness,
    torsion_audit,
    torsion_class_membership,
    unit_e_l,
    unit_lambda,
    unit_nu,
    verify_canonical_sequences,
)
from ladderkit.ladder import ladder_report
from ladderkit.verify import RECOLLEMENT_FIXTURES

F = Field(101)
K = ground_field_algebra(F)


def rec_for(name):
    alg, default_e = load_fixture(name, F)
    return build_recollement(alg, parse_idempotent(alg, default_e))


def test_trivial_idempotent_rejected():
    t2 = build_triangular(K, 2)
    with pytest.raises(AlgebraError, match="nontrivial"):
        build_recollement(t2, Idempotent(t2, t2.unit))
    with pytest.raises(AlgebraError, match="nontrivial"):
        build_recollement(t2, Idempotent(t2, F.zeros(3)))


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_coordinates_of_e_in_carriers(name):
    # the unit e.l -> 1 and the counit e.r -> 1 read e off these coordinates
    rec = rec_for(name)
    for basis, coords in ((rec.e_lambda_basis, rec.e_in_e_lambda), (rec.lambda_e_basis, rec.e_in_lambda_e)):
        assert coords.shape == (basis.shape[1],)
        assert np.array_equal(F.matmul(basis, coords), rec.e.element)
        assert np.array_equal(coords, solve(basis, rec.e.element, F))


def test_t2_corner_and_quotient_are_ground_field():
    rec = rec_for("t2")
    assert rec.gamma.dim == 1
    assert rec.sigma.dim == 1
    assert rec.e_lambda.dim == 2
    assert rec.lambda_e.dim == 1


def test_preproj_corner_is_ground_field():
    # both two-step cycles die, so paths from vertex 1 to itself reduce to e1
    rec = rec_for("preproj-a2")
    assert rec.gamma.dim == 1
    assert rec.sigma.dim == 1


def test_prop32_corner_recovers_base():
    rec = rec_for("prop32-dual-numbers")
    assert rec.gamma.dim == 2
    assert rec.sigma.dim == 1


def test_carriers_have_expected_dims_m2k():
    rec = rec_for("m2k")
    assert rec.sigma.dim == 0  # the ideal is everything for the full matrix algebra
    assert rec.e_lambda.dim == 2
    assert rec.lambda_e.dim == 2


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_canonical_sequences_on_regular_and_simples(name):
    rec = rec_for(name)
    assert verify_canonical_sequences(rec, regular_module(rec.lam))["status"] == "PASS"
    for s in simples(rec.lam):
        assert verify_canonical_sequences(rec, s)["status"] == "PASS"


@pytest.mark.parametrize("name", ["t2", "preproj-a2", "prop32-dual-numbers"])
def test_canonical_sequences_on_random_modules(name):
    rec = rec_for(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_module(rec.lam, rng, max_summands=2)
        assert verify_canonical_sequences(rec, m)["status"] == "PASS"


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_zero_compositions_and_unit_isos(name):
    rec = rec_for(name)
    rng = np.random.default_rng(7)
    fl, fr, fq, fp = rec.functor_l(), rec.functor_r(), rec.functor_q(), rec.functor_p()
    for _ in range(5):
        n = random_module(rec.gamma, rng, max_summands=2)
        ln = fl.apply(n).module
        rn = fr.apply(n).module
        assert fq.apply(ln).module.dim == 0  # q l = 0 exactly
        assert fp.apply(rn).module.dim == 0  # p r = 0 exactly
        unit, ln_value = unit_e_l(rec, n)
        counit, rn_value = counit_e_r(rec, n)
        assert unit.is_isomorphism()
        assert counit.is_isomorphism()
        # the values returned with the unit and counit are l(N) and r(N)
        assert np.array_equal(ln_value.module.action, ln.action)
        assert np.array_equal(rn_value.module.action, rn.action)


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_adjunction_dimension_identities(name):
    rec = rec_for(name)
    rng = np.random.default_rng(13)
    fe, fl, fr, fq, fp, fi = (
        rec.functor_e(),
        rec.functor_l(),
        rec.functor_r(),
        rec.functor_q(),
        rec.functor_p(),
        rec.functor_i(),
    )
    for _ in range(4):
        m = random_module(rec.lam, rng, max_summands=2)
        n = random_module(rec.gamma, rng, max_summands=2)
        em = fe.apply(m).module
        assert len(hom_space(fl.apply(n).module, m)) == len(hom_space(n, em))
        assert len(hom_space(em, n)) == len(hom_space(m, fr.apply(n).module))
        if rec.sigma.dim:
            a = random_module(rec.sigma, rng, max_summands=2)
            ia = fi.apply(a).module
            assert len(hom_space(fq.apply(m).module, a)) == len(hom_space(m, ia))
            assert len(hom_space(ia, m)) == len(hom_space(a, fp.apply(m).module))


@pytest.mark.parametrize("name", ["t2", "preproj-a2", "m2k"])
def test_fully_faithful_witnesses(name):
    rec = rec_for(name)
    rng = np.random.default_rng(17)
    fl, fr, fi = rec.functor_l(), rec.functor_r(), rec.functor_i()
    for _ in range(3):
        n1 = random_module(rec.gamma, rng, max_summands=2)
        n2 = random_module(rec.gamma, rng, max_summands=2)
        base = len(hom_space(n1, n2))
        assert len(hom_space(fl.apply(n1).module, fl.apply(n2).module)) == base
        assert len(hom_space(fr.apply(n1).module, fr.apply(n2).module)) == base
        if rec.sigma.dim:
            a1 = random_module(rec.sigma, rng, max_summands=2)
            a2 = random_module(rec.sigma, rng, max_summands=2)
            assert len(hom_space(fi.apply(a1).module, fi.apply(a2).module)) == len(hom_space(a1, a2))


def test_units_counits_are_module_maps():
    rec = rec_for("preproj-a2")
    rng = np.random.default_rng(19)
    m = random_module(rec.lam, rng)
    em = rec.functor_e().apply(m)
    mu, _ = counit_mu(rec, m, em)
    nu, _ = unit_nu(rec, m, em)
    lam_map, _ = unit_lambda(rec, m, rec.functor_q().apply(m))
    kappa, _ = counit_kappa(rec, m, rec.functor_p().apply(m))
    # validation is implicit in the ModuleMap constructor; re-run explicitly
    for mp in (mu, nu, lam_map, kappa):
        mp._validate()


def test_mu_surjective_on_generated_projective():
    # e . (L e_i) generates L e_i when e L e_i spans enough; check rank on t2
    rec = rec_for("t2")
    from ladderkit.modules import projective_indecomposables

    p1 = projective_indecomposables(rec.lam)[0]
    mu, _ = counit_mu(rec, p1, rec.functor_e().apply(p1))
    # e = E22 and L e1 has e-part E21: mu image = L . E21 = rad(P1), rank 1
    assert mu.rank == 1


def test_lambda_iso_on_inflated():
    rec = rec_for("t2")
    rng = np.random.default_rng(23)
    a = random_module(rec.sigma, rng)
    ia = rec.functor_i().apply(a).module
    lam_map, _ = unit_lambda(rec, ia, rec.functor_q().apply(ia))
    assert lam_map.is_isomorphism()  # q i = Id


def test_nu_split_injection_on_r_image():
    rec = rec_for("t2")
    rng = np.random.default_rng(29)
    n = random_module(rec.gamma, rng)
    rn = rec.functor_r().apply(n).module
    nu, _ = unit_nu(rec, rn, rec.functor_e().apply(rn))
    assert nu.is_injective()


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_corner_functor_always_exact(name):
    rec = rec_for(name)
    res = probe_exactness(rec.functor_e())
    assert res["status"] == "Exact"


def test_p_not_exact_on_t2():
    # Sigma = S1 is not projective as a left module, so p = Hom(Sigma, -) has
    # a genuine non-exactness witness the probe must find (six random short
    # exact sequences drawn at seed 1 all missed it)
    rec = rec_for("t2")
    res = probe_exactness(rec.functor_p())
    assert res["status"] == "Failed"


def test_q_exact_on_t2():
    # Sigma is projective as a right module here, so q = Sigma (x) - is exact
    rec = rec_for("t2")
    res = probe_exactness(rec.functor_q())
    assert res["status"] == "Exact"


def test_l_not_exact_on_prop32():
    # Le restricted to the corner is not projective (rung 0 fails), so the
    # tensor functor l must fail exactness on a simple's cover sequence
    rec = rec_for("prop32-dual-numbers")
    res = probe_exactness(rec.functor_l())
    assert res["status"] == "Failed"
    assert res["witness_dims"]


def _defining_modules(rec):
    """The module whose projectivity decides each functor's exactness:
    e = Hom(Le, -), l = Le (x)_G -, r = Hom_G(eL, -), q = Sigma (x)_L - and
    p = Hom_L(Sigma, -), with Sigma on the right built over the opposite."""
    op = opposite(rec.lam)
    rec_op = build_recollement(op, Idempotent(op, rec.e.element))
    return {
        "e": rec.lambda_e.left_restrict(),
        "l": rec.lambda_e.right_restrict(),
        "r": rec.e_lambda.left_restrict(),
        "q": rec_op.functor_i().apply(regular_module(rec_op.sigma)).module,
        "p": rec.functor_i().apply(regular_module(rec.sigma)).module,
    }


def _recheck_witness(functor, res):
    """Rebuild a Failed probe's witness from its report: it is a short exact
    sequence, and the functor's image of it fails exactly where the report
    says."""
    a = functor.source_algebra
    f = a.field
    w = res["witness"]
    sub, mid, quo = (Module(a, f.asarray(w[k]["action"]).reshape(a.dim, w[k]["dim"], w[k]["dim"])) for k in ("sub", "middle", "quotient"))
    assert res["witness_dims"] == [sub.dim, mid.dim, quo.dim]
    incl = ModuleMap(sub, mid, f.asarray(w["inclusion"]))
    proj = ModuleMap(mid, quo, f.asarray(w["projection"]))
    assert incl.is_injective() and proj.is_surjective()
    assert sub.dim + quo.dim == mid.dim and f.is_zero(f.matmul(proj.matrix, incl.matrix))
    va, vb, vc = functor.apply(sub), functor.apply(mid), functor.apply(quo)
    fi, fp = functor.on_map(incl, va, vb), functor.on_map(proj, vb, vc)
    kernel_dim = vb.module.dim - fp.rank
    failing = {
        "left term not mono": not fi.is_injective(),
        "right term not epi": not fp.is_surjective(),
        "middle not exact": not (f.is_zero(f.matmul(fp.matrix, fi.matrix)) and fi.rank == kernel_dim),
    }
    assert res["problems"] == [where for where, bad in failing.items() if bad]


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_probe_exactness_iff_the_defining_module_is_projective(name):
    rec = rec_for(name)
    for key, module in _defining_modules(rec).items():
        functor = getattr(rec, f"functor_{key}")()
        res = probe_exactness(functor)
        assert (res["status"] == "Exact") == is_projective(module), key
        if res["status"] == "Exact":
            a = functor.source_algebra
            assert res == {"status": "Exact", "sequences": len(simples(a)) + len(simples(opposite(a)))}
        else:
            _recheck_witness(functor, res)


def test_torsion_membership():
    rec = rec_for("t2")
    rungs = ladder_report(rec, 4, 0).l_rungs
    assert rungs[0].projective  # l-height >= 2: membership test available
    m1 = rungs[1].bimodule
    from ladderkit.modules import zero_module

    assert torsion_class_membership(m1, zero_module(rec.lam))
    rng = np.random.default_rng(31)
    fl = rec.functor_l()
    n = random_module(rec.gamma, rng)
    if n.dim:
        # l(N) never lies in Ker l1 for nonzero N (l1 l is iso-like on t2)
        assert not torsion_class_membership(m1, fl.apply(n).module)


def test_torsion_audit_trivial_and_genuine():
    # needs l-height >= 3: the self-injective fixture has an infinite ladder
    rec = rec_for("preproj-a2")
    rungs = ladder_report(rec, 6, 0).l_rungs
    assert len(rungs) >= 3 and all(r.projective for r in rungs[:3])
    from ladderkit.modules import zero_module

    z = [zero_module(rec.lam)]
    rng = np.random.default_rng(37)
    pool = [m for m in (random_module(rec.lam, rng, max_summands=2) for _ in range(8)) if m.dim]
    # T = everything sampled, F = {0}: trivially passes
    assert torsion_audit(rec, rungs, pool, z)["status"] == "PASS"
    assert torsion_audit(rec, rungs, z, pool)["status"] == "PASS"
    # genuine pair: T = Ker l1 samples, F = right-orthogonal samples
    m1 = rungs[1].bimodule
    t_samples = [m for m in pool if torsion_class_membership(m1, m)]
    f_samples = [m for m in pool if m not in t_samples and all(len(hom_space(t, m)) == 0 for t in t_samples)]
    res = torsion_audit(rec, rungs, t_samples, f_samples)
    assert res["status"] == "PASS"


def test_torsion_audit_needs_height():
    rec = rec_for("prop32-dual-numbers")
    rungs = ladder_report(rec, 6, 0).l_rungs  # rung 0 already fails: no l1
    with pytest.raises(AlgebraError, match="height"):
        torsion_audit(rec, rungs, [], [])


def test_e_kills_inflated_modules():
    rec = rec_for("t2")
    rng = np.random.default_rng(41)
    a = random_module(rec.sigma, rng)
    ia = rec.functor_i().apply(a).module
    assert rec.functor_e().apply(ia).module.dim == 0  # Ker e = Image i


def test_carrier_hom_dimension_vector_space_duality():
    # over the ground-field corner, Hom(eL, corner) has the dimension of eL
    rec = rec_for("t2")
    from ladderkit.modules import hom_module, regular_bimodule

    h, _ = hom_module(rec.e_lambda, regular_bimodule(rec.gamma))
    assert h.dim == rec.e_lambda.dim == 2


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_check_axioms_pass_on_fixtures(name):
    assert check_axioms(rec_for(name), 4, np.random.default_rng(0))["failures"] == []


def test_check_axioms_detects_broken_unit():
    # with e's coordinates in Le zeroed, the unit N -> e l N is the zero map
    rec = rec_for("t2")
    broken = dataclasses.replace(rec, e_in_lambda_e=F.zeros(*rec.e_in_lambda_e.shape))
    failures = check_axioms(broken, 4, np.random.default_rng(0))["failures"]
    assert {f["kind"] for f in failures} == {"e l not iso"}


def test_check_axioms_applies_each_functor_once_per_module(monkeypatch):
    # e at each L-module M of the pool and at l(N) and r(N) for each G-module
    # N; q at M and l(N); p at M and r(N); i at q(M), p(M) and each S-module
    from ladderkit.recollement import SubquotientFunctor

    rec = rec_for("t2")
    assert rec.sigma.dim
    names = {"_carve_corner": "e", "_carve_top": "q", "_carve_socle": "p", "_carve_whole": "i"}
    calls = {name: 0 for name in names.values()}
    apply = SubquotientFunctor.apply

    def counting_apply(self, m):
        calls[names[self.carve.__name__]] += 1
        return apply(self, m)

    monkeypatch.setattr(SubquotientFunctor, "apply", counting_apply)
    res = check_axioms(rec, 20, np.random.default_rng(0))
    assert res["failures"] == []
    m, n, s = (res["pools"][side]["modules"] for side in ("middle", "corner", "quotient"))
    assert (m, n, s) == (3, 1, 1)
    assert calls == {"e": m + 2 * n, "q": m + n, "p": m + n, "i": 2 * m + s} == {"e": 5, "q": 4, "p": 4, "i": 7}


@pytest.fixture
def product_builds(monkeypatch):
    """(dim A, dim B, op_right) of every product algebra built while the test runs."""
    import ladderkit.algebra as algebra_module

    builds = []
    build = algebra_module._product_algebra

    def counting_build(a, b, op_right):
        builds.append((a.dim, b.dim, op_right))
        return build(a, b, op_right)

    monkeypatch.setattr(algebra_module, "_product_algebra", counting_build)
    return builds


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_enveloping_algebras_are_built_on_first_read(name, product_builds):
    alg, default_e = load_fixture(name, F)
    product_builds.clear()  # the Morita square is itself a tensor product
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    is_stratifying(rec, 4)
    spli_silp(alg, 4)
    assert check_axioms(rec, 4, np.random.default_rng(0))["failures"] == []
    assert product_builds == []
    ladder_report(rec, 12, 0)
    assert rec.env_gl is rec.env_gl and rec.env_lg is rec.env_lg
    # at most one build per side, whether the towers or the reads above made it
    g, lam = rec.gamma.dim, rec.lam.dim
    assert sorted(product_builds) == sorted([(g, lam, True), (lam, g, True)])


def test_stratifying_builds_no_enveloping_algebra(product_builds):
    # dim G = 16: each product would hold 352^3 structure constants
    alg, _ = load_fixture("ideal-chain", F)
    rec = build_recollement(alg, parse_idempotent(alg, "e1+e2+e3+e4+e6"))
    res = is_stratifying(rec, 4)
    assert (res["status"], res["tor_dims"]) == ("Yes", [21, 0, 0, 0, 0])
    assert rec.gamma.dim * rec.lam.dim == 352
    assert product_builds == []


def test_dimension_bound_fails_on_the_first_enveloping_read():
    # dim G * dim L = 21 * 28 = 588 > DIM_BOUND: only what reads the
    # enveloping algebras is refused
    t7 = build_triangular(K, 7)
    rec = build_recollement(t7, parse_idempotent(t7, "e1+e2+e3+e4+e5+e6"))
    assert (rec.gamma.dim, rec.lam.dim) == (21, 28)
    assert is_stratifying(rec, 2)["status"] == "Yes"
    assert spli_silp(t7, 2).gorenstein == "yes"
    message = "algebra dimension 588 exceeds 512: int64 arithmetic over F_p is exact only up to there"
    with pytest.raises(AlgebraError, match=re.escape(message)):
        ladder_report(rec, 12, 0)


def test_exact_at_needs_zero_composite_as_well_as_ranks():
    from ladderkit.recollement import _exact_at

    into = F.asarray([[1], [0]])  # k -> k^2 onto the first axis
    assert _exact_at(into, F.asarray([[0, 1]]), F)
    # ranks add up to dim k^2 here too, but the image is not the kernel
    assert not _exact_at(into, F.asarray([[1, 0]]), F)
    assert not _exact_at(into, F.asarray([[1, 1]]), F)
    assert not _exact_at(F.zeros(2, 1), F.asarray([[0, 1]]), F)
    assert _exact_at(F.zeros(2, 0), F.eye(2), F)


@pytest.mark.parametrize("name,field", [(name, F) for name in RECOLLEMENT_FIXTURES] + [("t2", Field(None))])
def test_subquotient_functors_split_and_keep_identities(name, field):
    # e, i, q and p: coords . embed = I, and the identity goes to the identity
    alg, default_e = load_fixture(name, field)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    rng = np.random.default_rng(31)
    functors = {"e": rec.functor_e(), "i": rec.functor_i(), "q": rec.functor_q(), "p": rec.functor_p()}
    checked = set()
    for label, fn in functors.items():
        if fn.source_algebra.dim == 0:
            continue  # i out of a zero quotient algebra has no nonzero input
        for _ in range(3):
            m = random_module(fn.source_algebra, rng, max_summands=2)
            v = fn.apply(m)
            embed, coords = v.data
            assert embed.shape == (m.dim, v.module.dim) and coords.shape == (v.module.dim, m.dim)
            assert field.equal(field.matmul(coords, embed), field.eye(v.module.dim))
            identity = fn.on_map(ModuleMap(m, m, field.eye(m.dim)), v, v)
            assert identity.source is v.module and identity.target is v.module
            assert field.equal(identity.matrix, field.eye(v.module.dim))
        checked.add(label)
    assert {"e", "q", "p"} <= checked
