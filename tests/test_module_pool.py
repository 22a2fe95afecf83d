"""The module pool: every indecomposable of a Nakayama algebra once, checked
against brute force, and modules with a simple top or socle where the
certificate fails.  The pooled recollement axioms must catch a functor broken
on one indecomposable that seeded sampling never reaches."""

import itertools

import numpy as np
import pytest
import sympy

from ladderkit.algebra import FieldRestrictionError, QuiverPresentation, algebra_from_quiver, algebra_radical_rows, dual_numbers_algebra
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.linalg import Field
from ladderkit.modules import (
    Module,
    ModuleMap,
    _kept,
    hom_profile,
    hom_space,
    is_isomorphic,
    module_pool,
    projective_cover,
    projective_indecomposables,
    quotient_module,
    radical,
    random_module,
    zero_module,
)
from ladderkit.homological import lemma_checks, preservation_harness
from ladderkit.ladder import ladder_report
from ladderkit.recollement import FunctorValue, SubquotientFunctor, build_recollement, check_axioms
from ladderkit.verify import RECOLLEMENT_FIXTURES

from test_modules import _is_sum_of_projectives, assert_hom_matches_block_system

F = Field(101)


def rec_for(name, field=F):
    alg, default_e = load_fixture(name, field)
    return build_recollement(alg, parse_idempotent(alg, default_e))


def _local_kxy(field):
    loops = [(0, 0, "x"), (0, 0, "y")]
    rels = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    return algebra_from_quiver(QuiverPresentation(1, loops, rels, path_length_bound=2), field)


def _hom_vector(pool, m):
    return [len(hom_space(x, m)) for x in pool.modules.values()]


def _multiplicities(pool, m) -> dict:
    """The multiplicity of each pool module as a summand of m, read off the
    Hom-dimension vector against the pool (Auslander, Contemp. Math. 13,
    1982): the pool's Hom matrix is invertible, and the solution must be a
    vector of non-negative integers."""
    h = sympy.Matrix([_hom_vector(pool, y) for y in pool.modules.values()]).T  # column j: Hom(-, X_j)
    assert h.det() != 0
    c = h.LUsolve(sympy.Matrix(_hom_vector(pool, m)))
    assert all(v.is_integer and v >= 0 for v in c), c
    return {label: int(v) for label, v in zip(pool.modules, c)}


# -- the certificate and the pool ---------------------------------------------------


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_pool_modules_are_pairwise_non_isomorphic_and_keep_their_covers(name):
    rec = rec_for(name)
    for a in (rec.lam, rec.gamma, rec.sigma):
        pool = module_pool(a)
        assert pool.certified
        mods = list(pool.modules.values())
        for x, y in itertools.combinations(mods, 2):
            assert is_isomorphic(x, y).kind == "no"
        for m in mods:
            m._validate()
            # P_i/rad^k P_i, k < length: its quotient map is its cover; P_i is its own
            kept, (cover, _) = _kept(m), projective_cover(m)
            ModuleMap(cover, m, kept.cover[1])  # validates
            assert _is_sum_of_projectives(cover, kept.cover[0]) and kept.kernel.shape[1] == cover.dim - m.dim
            # the kept-cover path gives the reference's basis
            for y in mods:
                assert_hom_matches_block_system(m, y)


def test_pool_rewraps_the_kept_arrays():
    alg, _ = load_fixture("t3", F)
    first, again = (list(module_pool(alg).modules.values()) for _ in range(2))
    assert [m.action is n.action for m, n in zip(first, again)] == [True] * len(first)
    assert all(not m.action.flags.writeable for m in again)


@pytest.mark.parametrize("name", ["t3", "ideal-chain"])
def test_pool_hands_out_the_held_modules(name):
    # while held, a second call gives the same modules; each is P_i/rad^k P_i,
    # rebuilt here from k radicals of P_i
    alg, _ = load_fixture(name, F)
    pool = module_pool(alg)
    again = list(module_pool(alg).modules.values())
    assert [m is n for m, n in zip(pool.modules.values(), again, strict=True)] == [True] * len(again)
    for label, m in pool.modules.items():
        i, k = map(int, label[1:].split("/rad^"))
        p = projective_indecomposables(alg)[i]
        sub, incl = p, F.eye(p.dim)
        for _ in range(k):
            r = radical(sub)
            sub, incl = r.source, F.matmul(incl, r.matrix)
        assert np.array_equal(m.action, quotient_module(p, incl.T)[0].action)


def test_pool_adds_the_duals_when_a_radical_layer_is_not_simple():
    # k[x, y]/(x, y)^2: rad P / rad^2 P = S^2, so P0 is not uniserial; the
    # pool is P0/rad^k and the duals of the opposite's P0/rad^k but the simple
    # D(P0/rad^1), which is P0/rad^1 again
    kxy = _local_kxy(F)
    pool = module_pool(kxy)
    assert not pool.certified and pool.to_json() == {"certified": False, "modules": 3}
    assert list(pool.modules) == ["P0/rad^1", "P0/rad^2", "D(P0/rad^2)"]
    assert [m.dim for m in pool.modules.values()] == [1, 3, 3]
    for m in pool.modules.values():
        m._validate()
    for x, y in itertools.combinations(pool.modules.values(), 2):
        assert is_isomorphic(x, y).kind == "no"


def test_pool_keeps_the_projectives_where_the_radical_is_out_of_reach():
    # over F_5 the trace-form radical of t3 (dim 6) is out of reach: the pool
    # is the A.e_i and the duals of the opposite's, the injectives
    f5 = Field(5)
    rec = rec_for("t3", f5)
    with pytest.raises(FieldRestrictionError):
        algebra_radical_rows(rec.lam)
    pool = module_pool(rec.lam)
    assert not pool.certified and list(pool.modules) == ["P0", "P1", "P2", "D(P0)", "D(P1)", "D(P2)"]
    assert [m.dim for m in pool.modules.values()] == [3, 2, 1, 1, 2, 3]
    res = check_axioms(rec)
    assert res["failures"] == []
    assert res["pools"]["middle"] == {"certified": False, "modules": 6} and res["pools"]["quotient"] == {"certified": True, "modules": 3}


def _a3(field=F):
    # the path algebra of A_3 oriented 1 -> 2 <- 3: representation-finite, not
    # Nakayama; the A.e_i are uniserial, but over the opposite rad P_2 = S_1 + S_3
    return algebra_from_quiver(QuiverPresentation(3, [(0, 1, "a"), (2, 1, "b")], []), field)


def test_a3_pool_is_deterministic_and_meets_every_indecomposable():
    a = _a3()
    pool, again = module_pool(a), module_pool(a)
    assert not pool.certified and list(pool.modules) == list(again.modules)
    assert all(np.array_equal(m.action, n.action) for m, n in zip(pool.modules.values(), again.modules.values()))
    classes: list = []
    for m in pool.modules.values():
        m._validate()
        assert not any(is_isomorphic(m, c).is_yes for c in classes)  # one module per class
        classes.append(m)
    # Gabriel: one indecomposable per positive root of A_3, six in all
    dim_vectors = sorted(tuple(hom_profile(c)[1]) for c in classes)
    assert dim_vectors == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)])
    assert len(pool.modules) == 6


@pytest.mark.parametrize("vertex", ["e1", "e2", "e3"])
def test_a3_recollements_pass_on_the_pool(vertex):
    a = _a3()
    rec = build_recollement(a, parse_idempotent(a, vertex))
    res = check_axioms(rec)
    assert res["failures"] == [] and res["pools"]["middle"] == {"certified": False, "modules": 6}
    harness = preservation_harness(rec, ladder_report(rec, 12, 0))
    assert harness["status"] == "PASS" and harness["pools"]["middle"]["modules"] == 6
    lemmas = lemma_checks(rec)
    assert lemmas["status"] == "PASS" and all(c["ok"] for c in lemmas["checks"])


# -- brute force ----------------------------------------------------------------------


def _dual_number_modules(field, top_dim):
    """Every module of dimension 1 .. top_dim over k[x]/(x^2): every x with x^2 = 0."""
    p = field.p
    for n in range(1, top_dim + 1):
        xs = np.array(list(itertools.product(range(p), repeat=n * n)), dtype=np.int64).reshape(-1, n, n)
        for x in xs[np.all(np.einsum("kab,kbc->kac", xs, xs) % p == 0, axis=(1, 2))]:
            yield np.stack([np.eye(n, dtype=np.int64), x])


def _t2_modules(field, top_dim):
    """Every module of dimension 1 .. top_dim over t2 (basis E11, E21, E22) up
    to isomorphism: in a basis of e_1.M then e_2.M, E21 acts by any map
    e_1.M -> e_2.M."""
    for a, b in itertools.product(range(top_dim + 1), repeat=2):
        if not 0 < a + b <= top_dim:
            continue
        for entries in itertools.product(range(field.p), repeat=a * b):
            act = np.zeros((3, a + b, a + b), dtype=np.int64)
            act[0, :a, :a] = np.eye(a, dtype=np.int64)
            act[2, a:, a:] = np.eye(b, dtype=np.int64)
            act[1, a:, :a] = np.array(entries, dtype=np.int64).reshape(b, a)
            yield act


@pytest.mark.parametrize(
    "build,modules,count",
    [
        (lambda: dual_numbers_algebra(Field(3)), _dual_number_modules, 115),
        (lambda: load_fixture("t2", Field(5))[0], _t2_modules, 61),
    ],
    ids=["dual-numbers-F3", "t2-F5"],
)
def test_every_small_module_is_a_sum_of_pool_modules(build, modules, count):
    a = build()
    pool = module_pool(a)
    assert pool.certified
    dims = {label: m.dim for label, m in pool.modules.items()}
    seen = 0
    for act in modules(a.field, 3):
        m = Module(a, act)  # validates the action
        c = _multiplicities(pool, m)
        assert sum(c[label] * dims[label] for label in c) == m.dim
        seen += 1
    assert seen == count


# -- the pooled axioms against sampling ---------------------------------------------------


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_sampled_modules_decompose_into_the_pool(name):
    rec = rec_for(name)
    rng = np.random.default_rng(0)
    for a in (rec.lam, rec.gamma):
        pool = module_pool(a)
        for _ in range(8):
            m = random_module(a, rng, max_summands=2)
            if m.dim:
                c = _multiplicities(pool, m)
                assert sum(k * pool.modules[label].dim for label, k in c.items()) == m.dim


def test_pooled_axioms_catch_q_broken_on_an_unsampled_indecomposable(monkeypatch):
    rec = rec_for("t3")
    pool = module_pool(rec.lam)
    label = "P0/rad^1"  # the simple S_0: e S_0 = 0 and q(S_0) = S_0
    x = pool.modules[label]
    assert rec.functor_q().apply(x).module.dim == 1

    apply = SubquotientFunctor.apply

    def broken(self, m):
        v = apply(self, m)
        if self.carve.__name__ == "_carve_top" and m.action is x.action:
            embed, coords = v.data
            return FunctorValue(zero_module(self.target_algebra), (embed[:, :0], coords[:0]))
        return v

    monkeypatch.setattr(SubquotientFunctor, "apply", broken)
    failures = check_axioms(rec)["failures"]
    assert failures and all(f["middle"] == label for f in failures)
    assert {f["kind"] for f in failures} >= {"canonical", "adjunction (q, i)"}
