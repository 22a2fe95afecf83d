"""Engine objects die by reference counting: no derived data kept on an
algebra or a module points back at it, so nothing waits for the cyclic
garbage collector.  Every test here runs with the collector disabled."""

import gc
import weakref

import numpy as np
import pytest

from ladderkit.algebra import build_triangular, ground_field_algebra, opposite
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.homological import is_stratifying, spli_silp
from ladderkit.ladder import ladder_report
from ladderkit.linalg import Field
from ladderkit.modules import (
    Module,
    cover_sequence,
    hom_space,
    indecomposables,
    module_pool,
    projective_cover,
    projective_indecomposables,
    regular_module,
    simples,
)
from ladderkit.recollement import build_recollement, check_axioms
from ladderkit.verify import RECOLLEMENT_FIXTURES

F = Field(101)


@pytest.fixture
def gc_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_recollement_pass_dies_without_collector(name, gc_off):
    alg, default_e = load_fixture(name, F)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    ladder_report(rec, 12, 0)
    spli_silp(alg, 4)
    is_stratifying(rec, 4)
    refs = [weakref.ref(x) for x in (alg, opposite(alg), rec.gamma, rec.sigma, rec.env_gl, rec.env_lg, projective_indecomposables(alg)[0])]
    del alg, rec
    assert [r() for r in refs] == [None] * len(refs)


def test_opposite_does_not_keep_its_algebra_alive(gc_off):
    a = build_triangular(ground_field_algebra(F), 3)
    mult = a.mult.copy()
    op = opposite(a)
    assert opposite(op) is a
    ref = weakref.ref(a)
    del a
    assert ref() is None
    again = opposite(op)  # rebuilt from op: the same table
    assert np.array_equal(again.mult, mult)
    assert opposite(op) is again and opposite(again) is op


def test_projectives_rewrapped_from_cached_arrays(gc_off):
    t3 = build_triangular(ground_field_algebra(F), 3)
    first = projective_indecomposables(t3)
    actions = [p.action for p in first]
    splits = [p.idempotent_split() for p in first]
    refs = [weakref.ref(p) for p in first]
    del first
    assert all(r() is None for r in refs)
    again = projective_indecomposables(t3)
    assert all(p.action is a and p.idempotent_split() is s for p, a, s in zip(again, actions, splits))
    assert all(not p.action.flags.writeable for p in again)
    # the cover of a projective is itself, through the cached embedding
    for p in again:
        cover, surj = projective_cover(p)
        assert cover.dim == p.dim and surj.is_isomorphism()


def test_module_with_kept_cover_dies_without_collector(gc_off):
    # the module keeps its cover and arrays, never a map pointing back to it
    t3 = build_triangular(ground_field_algebra(F), 3)
    reg = regular_module(t3)
    m = simples(t3)[0]
    cover, surj = projective_cover(m)
    assert cover.dim > m.dim
    cover_sequence(m)
    hb = [hom_space(m, reg), hom_space(m, m)]
    assert [len(h) for h in hb] == [0, 1] and m._cover.section is not None  # the kept-cover path
    refs = [weakref.ref(m), weakref.ref(cover)]
    del m, cover, surj, hb
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("name", ["t3", "ideal-chain"])
def test_module_pool_dies_without_collector(name, gc_off):
    # the algebra keeps the pool as arrays; each call wraps them again, and
    # a wrapped module keeps its cover, never a map pointing back to it
    alg, default_e = load_fixture(name, F)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    assert check_axioms(rec, 2, np.random.default_rng(0))["failures"] == []
    pool = module_pool(alg, 2, np.random.default_rng(0))
    mods = list(pool.modules.values())
    reg = regular_module(alg)
    hb = [hom_space(m, reg) for m in mods]  # the kept-cover path
    kept = alg._derived["indecomposables"]
    assert len(kept) == len(mods) and not any(isinstance(v, Module) for _, _, arrays in kept for v in arrays or ())
    assert [m.action is n.action for m, n in zip(mods, indecomposables(alg))] == [True] * len(mods)
    refs = [weakref.ref(x) for x in (alg, rec.gamma, rec.sigma, *mods)]
    del alg, rec, pool, mods, reg, hb, kept
    assert [r() for r in refs] == [None] * len(refs)
