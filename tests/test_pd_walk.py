"""Projective dimension as a walk on content ids, against the resolution.

projective_dimension reads pd off the algebra's table of module contents:
each record keeps its syzygy's id, the ids of its support blocks and the pd
walked so far.  The reference is the bound a minimal resolution shows, kept
here: minimal_resolution stops at the first zero syzygy, so it finished
exactly when its last differential is injective, and its terms are then
P_0 .. P_pd."""

import numpy as np
import pytest

import ladderkit.modules as modules
from ladderkit.algebra import opposite
from ladderkit.fixtures import fixture_names, load_fixture
from ladderkit.homological import Bound, projective_dimension, spli_silp
from ladderkit.linalg import Field
from ladderkit.modules import (
    Module,
    _blocks,
    _kept,
    _syzygy,
    _table,
    direct_sum,
    dual,
    minimal_resolution,
    module_pool,
    projective_indecomposables,
    simples,
)

from test_algebra import _cyclic_nakayama, _linear_nakayama, _local_kxy

F = Field(101)
Q = Field(None)


def finished(res) -> bool:
    """The last syzygy vanished: the last differential is injective."""
    return res.differentials[-1].is_injective()


def pd_bound(res) -> tuple[str, int]:
    """('exact', pd) when the resolution finished, else ('at_least', cutoff + 1)."""
    return ("exact", len(res.terms) - 1) if finished(res) else ("at_least", res.cutoff + 1)


def _checked_modules(a):
    """Simples, projectives, injectives and pool modules of a."""
    injectives = [dual(p) for p in projective_indecomposables(opposite(a))]
    return simples(a) + projective_indecomposables(a) + injectives + list(module_pool(a).modules.values())


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_walk_matches_the_resolution_bound(field):
    # every fixture, kxy, linear10_2 and cyclic_nakayama(5, 4); over Q those
    # of dim <= 12.  Over Q, kxy stops at cutoff 6: its terms double each
    # step, and the resolution at cutoff 8 (terms up to dim 1152) takes
    # about 36 s on Fractions
    cases = [(load_fixture(name, field)[0], 8) for name in fixture_names()]
    cases += [(_local_kxy(field), 8 if field.p else 6), (_linear_nakayama(10, 2, field), 8), (_cyclic_nakayama(5, 4, field), 8)]
    checked = 0
    for a, top in ((a, top) for a, top in cases if field.p or a.dim <= 12):
        for m in _checked_modules(a):
            ref = [Bound(*pd_bound(minimal_resolution(m, c))) for c in range(top + 1)]
            # ascending walks again what read "more than c"; descending caps what is known
            for c in [*range(top + 1), *range(top, -1, -1)]:
                assert projective_dimension(m, c) == ref[c], (a, m.dim, c)
            checked += 1
    assert checked >= (190 if field.p else 74), checked


def _interleaved(summands, rng) -> tuple[Module, np.ndarray]:
    """The direct sum with its summands' basis vectors shuffled together,
    each summand's in its own order, and the summand of each basis vector."""
    labels = rng.permutation(np.repeat(np.arange(len(summands)), [s.dim for s in summands]))
    starts = np.cumsum([0] + [s.dim for s in summands])
    perm = np.empty(labels.size, dtype=np.int64)
    for i in range(len(summands)):
        perm[labels == i] = np.arange(starts[i], starts[i + 1])
    total = direct_sum(summands)
    return Module(total.algebra, total.action[:, perm][:, :, perm]), labels


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_interleaved_direct_sum_splits_into_its_summands_ids(field):
    # S, P and the injective D(A), whose top is two copies of S: a
    # non-simple-top indecomposable, so its cover has two summands
    a = _local_kxy(field)
    s, p, e = simples(a)[0], projective_indecomposables(a)[0], dual(projective_indecomposables(opposite(a))[0])
    modules.projective_cover(e)
    assert len(_kept(e).cover[0]) == 2
    for seed in range(5):
        m, labels = _interleaved([s, p, e], np.random.default_rng(seed))
        first_seen = list(dict.fromkeys(labels.tolist()))
        ids = [_kept(x).id for x in (s, p, e)]
        assert _blocks(a, _kept(m)) == tuple(ids[i] for i in first_seen), seed
    # an indecomposable is its own one block
    assert [_blocks(a, _kept(x)) for x in (s, p, e)] == [(i,) for i in ids]


def test_syzygy_of_the_simple_over_kxy_is_two_blocks_of_itself():
    a = _local_kxy(F)
    s = simples(a)[0]
    sid = _kept(s).id
    assert _blocks(a, _syzygy(a, _kept(s))) == (sid, sid)
    assert projective_dimension(s, 6) == Bound("at_least", 7)
    assert _kept(s).pd == float("inf")


def test_walk_depth_does_not_grow_with_the_cutoff_once_it_closes(monkeypatch):
    calls = []
    real = modules._compute_cover
    monkeypatch.setattr(modules, "_compute_cover", lambda m: calls.append(m.dim) or real(m))
    counts = []
    for c in (6, 20):
        calls.clear()
        assert spli_silp(_local_kxy(F), c).gorenstein == "unknown"
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


def test_simple_top_contents_skip_the_support_scan(monkeypatch):
    # spli_silp walks indecomposables, whose syzygies over a Nakayama algebra
    # are uniserial: no scan, on Q too
    scans = []
    real = modules._components
    monkeypatch.setattr(modules, "_components", lambda adj: scans.append(adj.shape) or real(adj))
    for field in (F, Q):
        spli_silp(_linear_nakayama(6, 2, field), 8)
    assert scans == []


def test_walk_keeps_pd_on_the_records():
    # the injective of pd 9 is walked 8 syzygies deep and no further, each
    # record on its chain reading "more than b" (b + 0.5); cutoff 12 walks
    # the chain again to exact values
    a = _linear_nakayama(10, 2, F)
    assert spli_silp(a, 8).describe() == "Unknown(cutoff=8)"
    assert sorted({r.pd for r in _table(a)[1] if r.pd is not None}) == [0, *(b + 0.5 for b in range(9))]
    assert spli_silp(a, 12).describe() == "Yes(9)"
    pds = [r.pd for r in _table(a)[1] if r.pd is not None]
    assert 9 in pds and all(isinstance(v, int) for v in pds)


def test_a_sum_reads_only_what_its_blocks_show_at_its_cutoff():
    # over linear10_2, pd S_i = 9 - i.  Omega(S_4 + S_1) splits into blocks
    # with pd 4, known exactly from an earlier walk, and pd 7; at cutoff 2
    # both read "more than 1", so the sum is not kept as exact 5
    a = _linear_nakayama(10, 2, F)
    s = simples(a)
    assert projective_dimension(s[4], 8) == Bound("exact", 5)
    m = direct_sum([s[4], s[1]])
    for c in (2, 9, 7):
        assert projective_dimension(m, c) == Bound(*pd_bound(minimal_resolution(m, c))), c
    assert projective_dimension(m, 9) == Bound("exact", 8)
