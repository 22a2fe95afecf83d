"""Engine objects die by reference counting: no derived data kept on an
algebra or a module points back at it, so nothing waits for the cyclic
garbage collector.  Every test here runs with the collector disabled."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ladderkit.algebra import Algebra, QuiverPresentation, algebra_from_quiver, build_triangular, ground_field_algebra, opposite
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.homological import is_stratifying, preservation_harness, spli_silp
from ladderkit.ladder import ladder_report
from ladderkit.linalg import Field
from ladderkit.modules import (
    Module,
    _kept,
    _table,
    cover_sequence,
    hom_profile,
    hom_space,
    minimal_resolution,
    module_pool,
    projective_cover,
    projective_indecomposables,
    regular_module,
    simples,
)
from ladderkit.recollement import build_recollement, check_axioms
from ladderkit.verify import RECOLLEMENT_FIXTURES, run_suite

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
    rung = ladder_report(rec, 12, 0).r_rungs[-1].bimodule
    spli_silp(alg, 4)
    is_stratifying(rec, 4)
    # a rung keeps its idempotent split and profile as arrays and ints only,
    # and its two one-sided modules, whose covers are kept with their
    # contents, never the rung
    kept = (rung.idempotent_split(), hom_profile(rung))
    sides = [rung.left_restrict(), rung.right_restrict()]
    covers = [projective_cover(side)[0] for side in sides]
    refs = [weakref.ref(x) for x in (alg, opposite(alg), rec.gamma, rec.sigma, rung, projective_indecomposables(alg)[0], *sides, *covers)]
    del alg, rec, rung, sides, covers
    assert [r() for r in refs] == [None] * len(refs)
    assert kept[0] and kept[1][0]


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
    # the record of the module's content keeps its cover's arrays, never a
    # module or a map pointing back to it
    t3 = build_triangular(ground_field_algebra(F), 3)
    reg = regular_module(t3)
    m = simples(t3)[0]
    cover, surj = projective_cover(m)
    assert cover.dim > m.dim
    cover_sequence(m)
    hb = [hom_space(m, reg), hom_space(m, m)]
    assert [len(h) for h in hb] == [0, 1] and _kept(m).section is not None  # the kept-cover path
    refs = [weakref.ref(m), weakref.ref(cover)]
    del m, cover, surj, hb
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("name", ["t3", "ideal-chain"])
def test_module_pool_dies_without_collector(name, gc_off):
    # the algebra keeps the pool as records of arrays; a call hands out the
    # modules still held, else wraps the arrays again; covers are kept with
    # the records, never a map pointing back to a module
    alg, default_e = load_fixture(name, F)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    assert check_axioms(rec)["failures"] == []
    pool = module_pool(alg)
    mods = list(pool.modules.values())
    reg = regular_module(alg)
    hb = [hom_space(m, reg) for m in mods]  # the kept-cover path
    records, certified = alg._derived["pool"]
    kept = [*records.values(), *alg._derived["projectives"]]
    values = [getattr(r, x.name) for r in kept for x in dataclasses.fields(r)]
    assert certified and len(records) == len(mods)
    assert not any(isinstance(v, Module) for x in values for v in (x if isinstance(x, tuple) else (x,)))
    assert [m.action is n.action for m, n in zip(mods, module_pool(alg).modules.values())] == [True] * len(mods)
    refs = [weakref.ref(x) for x in (alg, rec.gamma, rec.sigma, *mods)]
    del alg, rec, pool, mods, reg, hb, kept, records
    assert [r() for r in refs] == [None] * len(refs)


def test_uncertified_pool_dies_without_collector(gc_off):
    # the path algebra of A_3 oriented 1 -> 2 <- 3 is not Nakayama: its pool
    # adds the duals of the records kept on the opposite
    alg = algebra_from_quiver(QuiverPresentation(3, [(0, 1, "a"), (2, 1, "b")], []), F)
    rec = build_recollement(alg, parse_idempotent(alg, "e2"))
    assert check_axioms(rec)["failures"] == []
    pool = module_pool(alg)
    assert not pool.certified and any(label.startswith("D(") for label in pool.modules)
    refs = [weakref.ref(x) for x in (alg, opposite(alg), rec.gamma, *pool.modules.values())]
    del alg, rec, pool
    assert [r() for r in refs] == [None] * len(refs)


def _alive(cls) -> list:
    return [x for x in gc.get_objects() if type(x) is cls]


@pytest.mark.parametrize("name", ["prop32-dual-numbers", "preproj-a2"])
def test_periodic_resolutions_leave_nothing_without_collector(name, gc_off):
    # Omega is periodic over these self-injective algebras, so syzygy chains
    # close on contents already in the algebra's table; the table keeps
    # arrays, ids and dicts, never a module, and every algebra and module the
    # checks made dies with the last reference to it
    before = {id(x) for x in _alive(Algebra)}
    alg, default_e = load_fixture(name, F)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    assert check_axioms(rec)["failures"] == []
    preservation_harness(rec, ladder_report(rec, 12, 0), cutoff=6)
    spli_silp(alg, 8)
    pool = module_pool(alg)
    res = minimal_resolution(simples(alg)[-1], 6)
    # the chain closed: two covers, each built again with equal matrices
    assert len(res.terms) == 7 and len({p.action.tobytes() for p in res.terms}) == 2
    records = [r for a in (alg, opposite(alg), rec.gamma) for r in _table(a)[1]]
    values = [getattr(r, x.name) for r in records for x in dataclasses.fields(r)]
    assert records and not any(isinstance(v, Module) for v in values)
    algebras = [x for x in _alive(Algebra) if id(x) not in before]
    refs = [weakref.ref(x) for x in (*algebras, *(m for m in _alive(Module) if any(m.algebra is a for a in algebras)))]
    assert len(refs) > len(algebras) + 7
    del alg, rec, pool, res, records, values, algebras
    assert [r() for r in refs] == [None] * len(refs)


def test_ground_field_table_does_not_grow_across_passes():
    # ground_field_algebra(F) lives as long as F, here the whole session, so
    # its table would carry what one pass keys over the field into the next
    k = ground_field_algebra(F)
    run_suite(seed=0)
    size = len(_table(k)[1])
    run_suite(seed=0)
    assert len(_table(k)[1]) == size
