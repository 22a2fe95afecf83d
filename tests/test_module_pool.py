"""The certified module pool: every indecomposable of a Nakayama algebra once,
checked against brute force, and the seeded fallback where the certificate
fails.  The pooled recollement axioms must catch a functor broken on one
indecomposable that seeded sampling never reaches."""

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
    hom_space,
    indecomposables,
    is_isomorphic,
    module_pool,
    random_module,
    zero_module,
)
from ladderkit.recollement import FunctorValue, SubquotientFunctor, build_recollement, check_axioms
from ladderkit.verify import RECOLLEMENT_FIXTURES

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
        pool = module_pool(a, 5, np.random.default_rng(0))
        assert pool.certified
        mods = list(pool.modules.values())
        for x, y in itertools.combinations(mods, 2):
            assert is_isomorphic(x, y).kind == "no"
        for m in mods:
            m._validate()
            if m._summands is None:  # P_i/rad^k P_i, k < length: its quotient map is its cover
                cover = m._cover
                ModuleMap(cover.module, m, cover.surj)  # validates
                assert cover.module._summands is not None and cover.kernel.shape[1] == cover.module.dim - m.dim
            # the kept-cover path gives the basis the solved path gives
            plain = Module(a, m.action.copy())
            for y in mods:
                kept, solved = hom_space(m, y), hom_space(plain, y)
                assert np.array_equal(kept.matrices, solved.matrices) and np.array_equal(kept.positions, solved.positions)


def test_pool_rewraps_the_kept_arrays():
    alg, _ = load_fixture("t3", F)
    first, again = indecomposables(alg), indecomposables(alg)
    assert [m.action is n.action for m, n in zip(first, again)] == [True] * len(first)
    assert all(not m.action.flags.writeable for m in again)


def test_pool_samples_when_a_radical_layer_is_not_simple():
    # k[x, y]/(x, y)^2: rad P / rad^2 P = S^2
    kxy = _local_kxy(F)
    assert indecomposables(kxy) is None
    pool = module_pool(kxy, 6, np.random.default_rng(0))
    assert not pool.certified and pool.to_json() == {"certified": False, "modules": len(pool.modules)}
    assert pool.modules and all(label.startswith("sample ") and m.dim for label, m in pool.modules.items())


def test_pool_samples_where_the_radical_is_out_of_reach():
    # over F_5 the trace-form radical of t3 (dim 6) is out of reach
    f5 = Field(5)
    rec = rec_for("t3", f5)
    with pytest.raises(FieldRestrictionError):
        algebra_radical_rows(rec.lam)
    assert indecomposables(rec.lam) is None
    assert not module_pool(rec.lam, 4, np.random.default_rng(0)).certified
    res = check_axioms(rec, 4, np.random.default_rng(0))
    assert res["failures"] == []
    assert not res["pools"]["middle"]["certified"] and res["pools"]["quotient"] == {"certified": True, "modules": 3}


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
    pool = module_pool(a, 0, None)
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
        pool = module_pool(a, 0, None)
        for _ in range(8):
            m = random_module(a, rng, max_summands=2)
            if m.dim:
                c = _multiplicities(pool, m)
                assert sum(k * pool.modules[label].dim for label, k in c.items()) == m.dim


def test_pooled_axioms_catch_q_broken_on_an_unsampled_indecomposable(monkeypatch):
    rec = rec_for("t3")
    pool = module_pool(rec.lam, 0, None)
    label = "P0/rad^1"  # the simple S_0: e S_0 = 0 and q(S_0) = S_0
    x = pool.modules[label]
    assert rec.functor_q().apply(x).module.dim == 1
    # the sampling this replaces: 20 seed-0 trials, each drawing M over L, N
    # over G and X over S, with q applied to M and to l(N), p to M and to
    # r(N).  S_0 is a summand of none of them
    rng = np.random.default_rng(0)
    reached = set()
    for _ in range(20):
        m = random_module(rec.lam, rng, max_summands=2)
        n = random_module(rec.gamma, rng, max_summands=2)
        random_module(rec.sigma, rng, max_summands=2)
        for y in (m, rec.functor_l().apply(n).module, rec.functor_r().apply(n).module):
            if y.dim:
                reached |= {k for k, v in _multiplicities(pool, y).items() if v}
    assert label not in reached and len(reached) >= 3

    apply = SubquotientFunctor.apply

    def broken(self, m):
        v = apply(self, m)
        if self.carve.__name__ == "_carve_top" and m.action is x.action:
            embed, coords = v.data
            return FunctorValue(zero_module(self.target_algebra), (embed[:, :0], coords[:0]))
        return v

    monkeypatch.setattr(SubquotientFunctor, "apply", broken)
    failures = check_axioms(rec, 20, np.random.default_rng(0))["failures"]
    assert failures and all(f["middle"] == label for f in failures)
    assert {f["kind"] for f in failures} >= {"canonical", "adjunction (q, i)"}
