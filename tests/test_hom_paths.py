"""Hom out of the kept projective cover is the engine's one Hom path where
the radical is in reach; the system on the idempotent blocks is its fallback
where the cover raises FieldRestrictionError.  Both are checked against the
block system kept in the tests (test_modules.block_system_hom), and the
fallback is guarded so that it runs nowhere else."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import ladderkit.modules as modules
from ladderkit.algebra import FieldRestrictionError, algebra_from_structure_constants, dual_numbers_algebra, opposite
from ladderkit.fixtures import fixture_names, load_fixture, parse_idempotent
from ladderkit.ladder import ladder_report
from ladderkit.linalg import Field
from ladderkit.modules import (
    direct_sum,
    dual,
    hom_space,
    is_projective,
    module_pool,
    projective_indecomposables,
    random_module,
    regular_bimodule,
    regular_module,
    simples,
)
from ladderkit.recollement import build_recollement
from ladderkit.verify import RECOLLEMENT_FIXTURES

from test_algebra import _local_kxy
from test_modules import _permuted, _table_algebras, assert_hom_matches_block_system, block_system_hom

F, Q = Field(101), Field(None)
BENCH = Path(__file__).resolve().parent.parent / "ladderbench"


def _sources(alg, seed):
    """The pool, the projectives, the simples and seeded random modules."""
    rng = np.random.default_rng(seed)
    mods = [*module_pool(alg).modules.values(), *projective_indecomposables(alg), *simples(alg)]
    return mods + [random_module(alg, rng, max_summands=2) for _ in range(3)]


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
@pytest.mark.parametrize("name", fixture_names())
def test_hom_matches_the_block_system_on_every_fixture(name, field):
    alg, _ = load_fixture(name, field)
    mods = _sources(alg, 34)
    dims = [assert_hom_matches_block_system(m, n) for m in mods for n in mods]
    assert max(dims) > 0


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_rung_bimodule_pairs_match_the_block_system(name, field):
    """Every pair of rungs over the same pair of algebras, in both towers:
    a bimodule source reads its left side's cover and commutes with its
    right side's generators."""
    alg, e = load_fixture(name, field)
    rep = ladder_report(build_recollement(alg, parse_idempotent(alg, e)), 12, 0)
    bimods = [r.bimodule for r in rep.r_rungs + rep.l_rungs]
    pairs = [(x, y) for x, y in itertools.product(bimods, repeat=2) if x._over_same(y)]
    dims = [assert_hom_matches_block_system(x, y) for x, y in pairs]
    assert len(pairs) > len(bimods) and max(dims) > 0


def test_the_block_system_runs_where_the_cover_is_out_of_reach(monkeypatch):
    """Over F_5 the trace-form radical of t3 (dim 6) is out of reach: every
    source but the A.e_i, which are their own covers, falls back to the
    block system, and both paths give the reference's basis."""
    calls = []
    real = modules._block_system
    monkeypatch.setattr(modules, "_block_system", lambda m, n: calls.append(type(m)) or real(m, n))
    f5 = Field(5)
    alg, _ = load_fixture("t3", f5)
    with pytest.raises(FieldRestrictionError):
        simples(alg)
    projs = projective_indecomposables(alg)
    rng = np.random.default_rng(5)
    mods = [*module_pool(alg).modules.values(), direct_sum(projs[::-1]), regular_module(alg)]
    mods += [random_module(alg, rng, max_summands=2) for _ in range(3)]
    for m in mods:
        for n in mods:
            assert_hom_matches_block_system(m, n)
    reg = regular_bimodule(alg)
    assert_hom_matches_block_system(reg, reg)
    assert modules.Bimodule in calls and modules.Module in calls
    calls.clear()
    for p in projs:
        for n in mods:
            assert_hom_matches_block_system(p, n)
    assert calls == []


def _identity_cover(kept, i, f) -> bool:
    d = kept.action.shape[1]
    summands, surj = kept.cover
    return (
        summands == (i,)
        and np.array_equal(surj, f.eye(d))
        and kept.kernel.shape == (d, 0)
        and np.array_equal(kept.section, f.eye(d))
        and not (surj.flags.writeable or kept.kernel.flags.writeable or kept.section.flags.writeable)
    )


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_every_projective_record_is_its_own_cover(field, monkeypatch):
    """Each A.e_i record, the tagged records of isomorphic idempotents
    included, carries pi = 1, ker pi = 0 and section 1, so is_projective
    computes no cover for it."""
    algebras = _table_algebras(field, 5)
    monkeypatch.setattr(modules, "_compute_cover", lambda m: pytest.fail("a cover was computed for an A.e_i"))
    tagged = 0
    for a in algebras:
        data = modules._projective_data(a)
        assert all(_identity_cover(kept, i, field) for i, kept in enumerate(data))
        tagged += sum(len(key) == 3 for key in modules._table(a)[0])
        for p in projective_indecomposables(a):
            assert is_projective(p) and is_projective(dual(dual(p)))
    assert tagged >= 2  # m2k and ideal-chain


def _rebased(alg, g):
    """The same algebra in the basis b'_i = sum_a g[i, a] b_a, g invertible
    over the integers."""
    f = alg.field
    g = f.asarray(g)
    ginv = f.asarray(np.round(np.linalg.inv(g.astype(float))).astype(np.int64))
    assert np.array_equal(f.matmul(g, ginv), f.eye(len(g)))
    mult = f.einsum("ia,jb,abk->ijk", g, g, f.einsum("abc,ck->abk", alg.mult, ginv))
    idempotents = [f.matmul(e[None], ginv)[0] for e in alg.prim_idempotents]
    return algebra_from_structure_constants(f, mult, f.matmul(alg.unit[None], ginv)[0], idempotents)


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_a_cover_asked_before_the_projectives_is_their_own(field, monkeypatch):
    """The regular module of a local algebra has A.e_1's content.  Its cover,
    asked for first on a new algebra, is the identity the projectives come
    with, kernel and section included: none is computed, nor one computed
    and dropped.  In the bases 1 + x, x and 1 + x, x, y a computed cover
    would be x |-> x.(1 + x), not 1.  Hom out of it matches the reference."""
    computed = []
    real = modules._compute_cover
    monkeypatch.setattr(modules, "_compute_cover", lambda m: computed.append(m.dim) or real(m))
    local = [_rebased(dual_numbers_algebra(field), [[1, 1], [0, 1]]), _rebased(_local_kxy(field), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    for alg in [*local, _permuted(_local_kxy(field), np.random.default_rng(3))]:
        reg = regular_module(alg)
        assert is_projective(reg) and computed == []
        kept = modules._kept(reg)
        assert kept is modules._projective_data(alg)[0] and _identity_cover(kept, 0, field)
        for n in [reg, *simples(alg), dual(regular_module(opposite(alg)))]:
            assert_hom_matches_block_system(reg, n)
        computed.clear()


def test_the_block_system_runs_only_where_the_cover_raises(monkeypatch):
    """Through one pass of each benchmark workload at seed 0 (verify-paper
    is run_suite(seed=0)), the fallback would raise unless the _cover_of
    call just before it raised FieldRestrictionError; at p = 101 and over Q
    it never runs."""
    raised, calls = [], []
    real_cover, real_system = modules._cover_of, modules._block_system

    def cover_of(a, kept):
        raised.clear()
        try:
            return real_cover(a, kept)
        except FieldRestrictionError:
            raised.append(kept.id)
            raise

    def block_system(m, n):
        calls.append(type(m))
        if not raised:
            raise AssertionError("the block system ran where the cover was in reach")
        return real_system(m, n)

    monkeypatch.setattr(modules, "_cover_of", cover_of)
    monkeypatch.setattr(modules, "_block_system", block_system)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("harness", "workloads"):
        sys.modules.pop(name, None)
    import harness
    import workloads

    assert set(workloads.WORKLOADS) == {"verify-paper", "ladder-towers", "resolutions", "rational"}
    for w in workloads.WORKLOADS.values():
        checks = harness.Checks()
        w.run(w.setup(0), harness.Clock(harness.Sampler()), checks, 0)
        assert checks.attempted and checks.failed == [], (w.name, checks.failed)
    assert calls == []
    # the guard itself: where J is out of reach the fallback runs, and passes
    t3 = load_fixture("t3", Field(5))[0]
    reg = regular_module(t3)
    assert len(hom_space(reg, reg)) == len(block_system_hom(reg, reg)[0]) and calls == [modules.Module]
