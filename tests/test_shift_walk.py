"""Ext, Tor and stable Hom by dimension shifting on the syzygy walk, against
the resolution complexes.

ext_dims, tor_dims and stable_hom_dim read their numbers off the chain of
content records (modules._shift_dims): each step takes a record's syzygy,
splits it into support blocks and reads the additive functor once per id.
The references kept here build a minimal resolution, apply the functor to
its terms and differentials, and rank each map of the complex; stable Hom
ranks composition with the cover surjection."""

import sys

import numpy as np
import pytest

import ladderkit
import ladderkit.modules as modules
from ladderkit.algebra import Idempotent, build_triangular, ground_field_algebra, opposite
from ladderkit.fixtures import fixture_names, load_fixture
from ladderkit.homological import ext_dims, is_stratifying, spli_silp, stable_hom_dim, tor_dims
from ladderkit.linalg import Field, rref
from ladderkit.modules import (
    dual,
    hom_space,
    minimal_resolution,
    module_pool,
    projective_cover,
    projective_indecomposables,
    random_module,
    simples,
    tensor_over,
)
from ladderkit.recollement import build_recollement
from ladderkit.verify import run_suite

from test_algebra import _cyclic_nakayama, _linear_nakayama, _local_kxy

F = Field(101)
Q = Field(None)


def _homology_dims(dims, maps, top, f):
    """Homology dimensions 0 .. top of a complex with terms of dimension dims
    and maps[j - 1] between terms j - 1 and j (either direction); terms past
    the last are zero."""
    ranks = [0] + [rref(d, f).rank for d in maps] + [0]
    return [dims[i] - ranks[i] - ranks[i + 1] if i < len(dims) else 0 for i in range(top + 1)]


def reference_ext_dims(m, n, top):
    """Ext^0 .. Ext^top from the Hom complex of a minimal resolution of m."""
    f = m.field
    res = minimal_resolution(m, top + 1)
    bases = [hom_space(p, n) for p in res.terms]
    deltas = [bases[j - 1].induced(bases[j], f, pre=res.differentials[j].matrix) for j in range(1, len(bases))]
    return _homology_dims([len(b) for b in bases], deltas, top, f)


def reference_tor_dims(m_right, n_left, top):
    """Tor_0 .. Tor_top from the tensor complex of a minimal resolution of n_left."""
    f = m_right.field
    res = minimal_resolution(n_left, top + 1)
    tens = [tensor_over(m_right, p) for p in res.terms]
    partials = [tens[j][1].induced(f, op_right=res.differentials[j].matrix, target=tens[j - 1][1]) for j in range(1, len(tens))]
    return _homology_dims([t.dim for t, _ in tens], partials, top, f)


def reference_stable_hom_dim(m, n):
    """dim Hom(m, n) less the rank of composition with n's cover surjection."""
    f = m.field
    hb = hom_space(m, n)
    if not len(hb):
        return 0
    cover, surj = projective_cover(n)
    return len(hb) - rref(hom_space(m, cover).induced(hb, f, post=surj.matrix), f).rank


def _check_pairs(xs, ys, right, top) -> int:
    """Ext and stable Hom on every pair of xs x ys, Tor on right x ys, each
    against its reference; returns the number of comparisons."""
    checked = 0
    for m in xs:
        for n in ys:
            assert ext_dims(m, n, top) == reference_ext_dims(m, n, top), (m, n)
            assert stable_hom_dim(m, n) == reference_stable_hom_dim(m, n), (m, n)
            checked += 2
    for x in right:
        for n in ys:
            assert tor_dims(x, n, top) == reference_tor_dims(x, n, top), (x, n)
            checked += 1
    return checked


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_walk_matches_the_complexes_on_every_pool_pair(field):
    # every fixture; over Q those of dim <= 12
    checked = 0
    for name in fixture_names():
        a, _ = load_fixture(name, field)
        if field.p is None and a.dim > 12:
            continue
        pool = list(module_pool(a).modules.values())
        checked += _check_pairs(pool, pool, list(module_pool(opposite(a)).modules.values()), 4)
    assert checked >= (1068 if field.p else 393), checked


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_walk_matches_the_complexes_off_the_fixtures(field):
    # simples, injectives and seeded random modules of kxy, linear10_2 and
    # cyclic_nakayama(5, 4); over Q those of dim <= 12, so kxy alone.  The
    # references' terms over kxy double each step, and their tensor
    # complexes are (dim X * dim P)^2 relations, so kxy stops at top 5 over
    # F_101 and at top 4 over Q, with the simple as the only right module
    # (Tor against the 3-dim random one took 6 s there)
    cases = [(_local_kxy(field), 5 if field.p else 4), (_linear_nakayama(10, 2, field), 8), (_cyclic_nakayama(5, 4, field), 8)]
    checked = 0
    for a, top in ((a, top) for a, top in cases if field.p or a.dim <= 12):
        rng = np.random.default_rng(3)
        mods = simples(a) + [dual(p) for p in projective_indecomposables(opposite(a))]
        mods += [random_module(a, rng, max_summands=2) for _ in range(3)]
        right = simples(opposite(a)) + [random_module(opposite(a), rng, max_summands=2) for _ in range(2 if field.p else 0)]
        checked += _check_pairs(mods, mods, right, top)
    assert checked >= (1828 if field.p else 55), checked


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_ext_and_tor_over_kxy_double_each_degree(field):
    # Omega^i(S) = S^(2^i), and Omega(D(A)) = S^3 (the cover of the
    # injective D(A), whose top is S^2, is A^2 of dim 6)
    a = _local_kxy(field)
    s, s_op = simples(a)[0], simples(opposite(a))[0]
    injective = dual(projective_indecomposables(opposite(a))[0])
    assert ext_dims(s, s, 12) == [2**i for i in range(13)]
    assert ext_dims(injective, s, 12) == [2] + [3 * 2 ** (i - 1) for i in range(1, 13)]
    assert tor_dims(s_op, s, 12) == [2**i for i in range(13)]


def test_kxy_walk_covers_do_not_grow_with_the_top(monkeypatch):
    # the walk closes on S after one step: the covers computed for Ext and
    # Tor over a fresh kxy are the same in number at top 6 and at top 20
    calls = []
    real = modules._compute_cover
    monkeypatch.setattr(modules, "_compute_cover", lambda m: calls.append(m.dim) or real(m))
    counts = []
    for top in (6, 20):
        calls.clear()
        a = _local_kxy(F)
        s, s_op = simples(a)[0], simples(opposite(a))[0]
        injective = dual(projective_indecomposables(opposite(a))[0])
        assert ext_dims(s, s, top)[top] == ext_dims(injective, s, top)[top] // 3 * 2 == tor_dims(s_op, s, top)[top] == 2**top
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


def test_engine_resolves_through_no_resolution_complex(monkeypatch):
    """With minimal_resolution raising wherever a ladderkit module binds it,
    the whole suite and the Gorenstein and stratifying checks still run:
    every resolution the engine needs is the syzygy walk."""

    def refuse(*args, **kwargs):
        raise AssertionError("minimal_resolution called by the engine")

    patched = [name for name, mod in list(sys.modules.items()) if name.split(".")[0] == "ladderkit" and hasattr(mod, "minimal_resolution")]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "minimal_resolution", refuse)
    assert {"ladderkit", "ladderkit.modules"} <= set(patched)
    assert run_suite(seed=0)["status"] == "PASS"
    t4 = build_triangular(ground_field_algebra(F), 4)
    kxy = _local_kxy(F)
    over_kxy = build_triangular(kxy, 2)  # its corners are kxy, so Tor runs over kxy
    assert spli_silp(t4, 8).describe() == "Yes(1)"
    assert spli_silp(kxy, 8).describe() == "Unknown(cutoff=8)"
    for alg in (t4, over_kxy):
        for e in alg.prim_idempotents[1:]:
            assert is_stratifying(build_recollement(alg, Idempotent(alg, e)), 8)["status"] in ("Yes", "No")
    assert ladderkit.minimal_resolution is refuse
