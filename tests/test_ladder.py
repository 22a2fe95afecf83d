import dataclasses

import numpy as np
import pytest

import ladderkit.ladder as ladder_mod
import ladderkit.modules as modules
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.algebra import Algebra, Idempotent, QuiverPresentation, algebra_from_quiver, build_triangular, ground_field_algebra
from ladderkit.ladder import (
    HeightVerdict,
    TowerRung,
    _next_rung,
    height_cross_check,
    ladder_report,
)
from ladderkit.linalg import Field, rank
from ladderkit.modules import Bimodule, Module, bimodules_isomorphic, hom_profile, hom_space, is_projective, projective_cover, regular_module
from ladderkit.recollement import build_recollement
from ladderkit.verify import EXPECTED_TOWERS, RECOLLEMENT_FIXTURES

from test_modules import assert_hom_matches_block_system

F = Field(101)


def rec_for(name):
    alg, default_e = load_fixture(name, F)
    return build_recollement(alg, parse_idempotent(alg, default_e))


# frozen hand-computed expectations (worked out before the build)
def test_t2_tower_frozen():
    rep = ladder_report(rec_for("t2"), 12, 0)
    rungs = rep.r_rungs
    assert [(r.dim, r.projective) for r in rungs] == [(2, True), (2, True), (1, True), (1, False)]
    assert [r.side_tested for r in rungs] == ["left-gamma", "left-lambda", "left-gamma", "left-lambda"]
    lr = rep.l_rungs
    assert [(r.dim, r.projective) for r in lr] == [(1, True), (1, False)]
    assert rep.r_verdict.describe() == "Exact(4)"
    assert rep.l_verdict.describe() == "Exact(2)"


def test_t3_tower_frozen():
    rep = ladder_report(rec_for("t3"), 12, 0)
    rungs = rep.r_rungs
    assert [(r.dim, r.projective) for r in rungs] == [(3, True), (3, True), (1, True), (1, False)]
    assert rep.l_verdict.n == 2
    assert rep.r_verdict.n == 4


def test_prop32_heights_exact():
    rep = ladder_report(rec_for("prop32-dual-numbers"), 12, 0)
    rv = rep.r_verdict
    lv = rep.l_verdict
    assert rv.kind == "exact" and rv.n == 3 and rv.failing_rung == 2
    assert lv.kind == "exact" and lv.n == 1 and lv.failing_rung == 0


def test_prop32_directional_consequences():
    # the ideal is the radical: not projective on either side, forcing the
    # exact values; the always-true lower bounds still hold
    rep = ladder_report(rec_for("prop32-dual-numbers"), 12, 0)
    assert rep.r_verdict.meets(3)
    assert rep.l_verdict.meets(1)


def test_preproj_periodic_three():
    rec = rec_for("preproj-a2")
    rep = ladder_report(rec, 12, 0)
    for v in (rep.r_verdict, rep.l_verdict):
        assert v.kind == "periodic_infinite"
        assert v.period == 3
        assert v.first_repeat_index == 4
        assert v.matched_rung == 0
        assert v.rung_gap == 4
        assert v.confidence == "proved-No-impossible"
    assert all(r.dim == 2 for r in rep.r_rungs)


def test_morita_square_matches_preproj():
    rep_a = ladder_report(rec_for("morita-square-k"), 12, 0)
    assert rep_a.r_verdict.kind == "periodic_infinite" and rep_a.r_verdict.period == 3


def test_m2k_semisimple_periodic():
    rec = rec_for("m2k")
    rep = ladder_report(rec, 12, 0)
    assert rep.r_verdict.kind == "periodic_infinite"
    assert rep.l_verdict.kind == "periodic_infinite"
    assert all(r.projective for r in rep.r_rungs + rep.l_rungs)


def test_ideal_chain_paper_bounds():
    # chain fixture over a hereditary base: l-height >= 2 and r-height >= 4
    rec = rec_for("ideal-chain")
    rep = ladder_report(rec, 12, 0)
    assert rep.l_verdict.meets(2)
    assert rep.r_verdict.meets(4)


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_heights_at_least_one(name):
    rep = ladder_report(rec_for(name), 12, 0)
    assert rep.l_verdict.meets(1)
    assert rep.r_verdict.meets(1)


def test_verdict_monotone_in_max_steps():
    rec = rec_for("t2")
    small = ladder_report(rec, 5, 0).r_verdict
    large = ladder_report(rec, 12, 0).r_verdict
    assert small.kind == large.kind == "exact"
    assert small.n == large.n == 4
    rec32 = rec_for("prop32-dual-numbers")
    assert ladder_report(rec32, 3, 0).l_verdict.n == ladder_report(rec32, 12, 0).l_verdict.n == 1


def test_tower_recurrence_dimension_consistency():
    # dim of rung j+1 equals the Hom dimension computed independently
    rec = rec_for("prop32-dual-numbers")
    rungs = ladder_report(rec, 12, 0).r_rungs
    for j in range(len(rungs) - 1):
        rung = rungs[j]
        target = rec.gamma if j % 2 == 0 else rec.lam
        hom_dim = len(hom_space(rung.bimodule.left_restrict(), regular_module(target)))
        assert rungs[j + 1].dim == hom_dim


def test_theorem_form_consistency_even():
    # Exact(2n+2) <=> even rungs j <= 2n projective over the corner, odd
    # rungs j < 2n+1 projective over the middle, rung 2n+1 not projective
    rep = ladder_report(rec_for("t2"), 12, 0)
    rungs, v = rep.r_rungs, rep.r_verdict
    assert v.n == 4  # 2n+2 with n = 1
    n = (v.n - 2) // 2
    for j in range(0, 2 * n + 1, 2):
        assert rungs[j].side_tested == "left-gamma" and rungs[j].projective
    for j in range(1, 2 * n + 1, 2):
        assert rungs[j].side_tested == "left-lambda" and rungs[j].projective
    assert rungs[2 * n + 1].side_tested == "left-lambda" and not rungs[2 * n + 1].projective


def test_theorem_form_consistency_odd():
    # Exact(2n+3) <=> failing rung 2n+2 is an even (corner-side) rung
    rep = ladder_report(rec_for("prop32-dual-numbers"), 12, 0)
    rungs, v = rep.r_rungs, rep.r_verdict
    assert v.n == 3  # 2n+3 with n = 0
    n = (v.n - 3) // 2
    for j in range(0, 2 * n + 1, 2):
        assert rungs[j].projective
    for j in range(1, 2 * n + 2, 2):
        assert rungs[j].projective
    assert not rungs[2 * n + 2].projective
    assert rungs[2 * n + 2].side_tested == "left-gamma"


def test_tower_prefix_consistency_invariant():
    for name in RECOLLEMENT_FIXTURES:
        rep = ladder_report(rec_for(name), 12, 0)
        for verdict, rungs in ((rep.r_verdict, rep.r_rungs), (rep.l_verdict, rep.l_rungs)):
            if verdict.kind == "exact":
                assert all(r.projective for r in rungs[: verdict.n - 1])
                assert not rungs[verdict.n - 1].projective
            else:
                assert all(r.projective for r in rungs)


def test_matched_rungs_really_isomorphic():
    rec = rec_for("preproj-a2")
    rep = ladder_report(rec, 12, 0)
    v = rep.r_verdict
    a = rep.r_rungs[v.matched_rung].bimodule
    b = rep.r_rungs[v.first_repeat_index].bimodule
    res = bimodules_isomorphic(a, b, seed=0)
    assert res.is_yes
    # the witness is invertible and commutes with both actions
    w = res.witness.matrix
    assert rank(w, F) == a.dim == b.dim
    for x, y in ((a.left_action, b.left_action), (a.right_action, b.right_action)):
        assert F.equal(F.matmul(w, x), F.matmul(y, w))
    # the in-between rungs are pairwise non-isomorphic to rung 0
    mid = rep.r_rungs[v.matched_rung + 2].bimodule
    assert bimodules_isomorphic(a, mid, seed=0).kind == "no"


@pytest.mark.parametrize("name", ["t2", "prop32-dual-numbers", "preproj-a2", "ideal-chain"])
def test_height_cross_check_passes(name):
    rec = rec_for(name)
    rep = ladder_report(rec, 12, 0)
    res = height_cross_check(rep)
    assert res["status"] == "PASS"


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_height_cross_check_detects_corruption(name):
    """Flipping the projectivity flag of any one rung, either way, makes the
    cover-sequence probe disagree with it."""
    rep = ladder_report(rec_for(name), 12, 0)
    assert height_cross_check(rep)["status"] == "PASS"
    for rungs in (rep.r_rungs, rep.l_rungs):
        for k, rung in enumerate(rungs):
            # deliberately flip one verdict (test-only mutation)
            rungs[k] = dataclasses.replace(rung, projective=not rung.projective)
            res = height_cross_check(rep)
            rungs[k] = rung
            assert res["status"] == "FAIL", (name, rung.side_tested, rung.index)
            assert [r["rung"] for r in res["rungs"] if not r["agrees"]] == [rung.index]


def test_report_serialization_round_trip():
    rep = ladder_report(rec_for("t2"), 12, 0)
    js = rep.to_json()
    assert js["r_height"]["kind"] == "exact"
    assert js["summed_height_display"] == 6
    assert len(js["r_tower"]) == 4
    rep_pp = ladder_report(rec_for("preproj-a2"), 12, 0)
    assert rep_pp.to_json()["summed_height_display"] is None


@pytest.mark.parametrize("name", ["t2", "preproj-a2", "ideal-chain"])
def test_tower_functors_satisfy_their_adjunctions(name):
    # independent validation of the Hom/flip machinery: the tower rungs
    # realize consecutive adjoints, so their Hom-dimension identities must hold
    import numpy as np
    from ladderkit.modules import random_module
    from ladderkit.recollement import HomFunctor, TensorFunctor

    rec = rec_for(name)
    rep = ladder_report(rec, 6, 0)
    lt, rt = rep.l_rungs, rep.r_rungs
    rng = np.random.default_rng(2)
    if lt[0].projective:
        l1 = TensorFunctor(lt[1].bimodule)
        l0 = rec.functor_l()
        for _ in range(4):
            m = random_module(rec.lam, rng, max_summands=2)
            n = random_module(rec.gamma, rng, max_summands=2)
            assert len(hom_space(l1.apply(m).module, n)) == len(hom_space(m, l0.apply(n).module))
    if rt[0].projective:
        r1 = HomFunctor(rt[1].bimodule)
        r0 = rec.functor_r()
        for _ in range(4):
            m = random_module(rec.lam, rng, max_summands=2)
            n = random_module(rec.gamma, rng, max_summands=2)
            assert len(hom_space(r0.apply(n).module, m)) == len(hom_space(n, r1.apply(m).module))
    if len(rt) > 2 and rt[1].projective:
        r1 = HomFunctor(rt[1].bimodule)
        r2 = HomFunctor(rt[2].bimodule)
        for _ in range(3):
            m = random_module(rec.lam, rng, max_summands=2)
            n = random_module(rec.gamma, rng, max_summands=2)
            assert len(hom_space(r1.apply(m).module, n)) == len(hom_space(m, r2.apply(n).module))


@pytest.mark.parametrize("name", ["t2", "t3", "preproj-a2", "m2k", "ideal-chain"])
def test_watts_identification_of_the_adjoints(name):
    # when rung 0 is projective, Hom(eL, -) agrees with tensoring by rung 1,
    # and Le (x) - agrees with Hom out of the l-side rung 1: the concrete form
    # of identifying consecutive adjoints via finitely generated projectives
    import numpy as np
    from ladderkit.modules import hom_module, is_isomorphic, random_module, tensor_over
    from ladderkit.recollement import TensorFunctor

    rec = rec_for(name)
    rep = ladder_report(rec, 4, 0)
    rt, lt = rep.r_rungs, rep.l_rungs
    rng = np.random.default_rng(9)
    for _ in range(3):
        n = random_module(rec.gamma, rng, max_summands=2)
        if rt[0].projective:
            via_hom = rec.functor_r().apply(n).module
            via_tensor, _ = tensor_over(rt[1].bimodule, n)
            assert is_isomorphic(via_hom, via_tensor, seed=0).is_yes
        if lt[0].projective:
            via_tensor2 = rec.functor_l().apply(n).module
            via_hom2, _ = hom_module(lt[1].bimodule, n)
            assert is_isomorphic(via_tensor2, via_hom2, seed=0).is_yes


def test_block_ring_heights_are_size_independent():
    # the (1, 3) heights of the block construction do not depend on n, and
    # the (2, 4) heights of triangular rings do not depend on n or the base
    from ladderkit.algebra import build_ideal_matrix_algebra, build_triangular, dual_numbers_algebra
    from ladderkit.fixtures import parse_idempotent
    from ladderkit.homological import is_stratifying

    dn = dual_numbers_algebra(F)
    ideal = F.asarray(dn.element_from_label("x")).reshape(2, 1)
    g3 = build_ideal_matrix_algebra(dn, ideal, 3)
    rec = build_recollement(g3, parse_idempotent(g3, "e3"))
    rep = ladder_report(rec, 10, 0)
    assert rep.l_verdict.describe() == "Exact(1)"
    assert rep.r_verdict.describe() == "Exact(3)"
    assert is_stratifying(rec, 6)["status"] == "Yes"

    t4 = build_triangular(dn, 4)
    rec4 = build_recollement(t4, parse_idempotent(t4, "e4"))
    rep4 = ladder_report(rec4, 10, 0)
    assert rep4.l_verdict.describe() == "Exact(2)"
    assert rep4.r_verdict.describe() == "Exact(4)"


# -- the one-pass tower against the two-pass algorithm it replaced ---------------


def _cyclic_nakayama_recollement(n, loewy):
    arrows = [(i, (i + 1) % n, f"a{i}") for i in range(n)]
    rels = [tuple(f"a{(i + k) % n}" for k in range(loewy)) for i in range(n)]
    alg = algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), F)
    return build_recollement(alg, Idempotent(alg, alg.prim_idempotents[0]))


def _two_pass_reference(rec, max_steps, seed, r_side):
    """Build the whole tower up to the budget (stopping only at a
    non-projective rung), then scan the finished list: the first
    non-projective rung, else the first isomorphic same-parity pair."""
    rungs = []
    current = rec.e_lambda if r_side else rec.lambda_e
    for j in range(max_steps):
        side = ("left-" if r_side else "right-") + ("gamma" if j % 2 == 0 else "lambda")
        rung = TowerRung(j, current, side, projective=False)
        rung.projective = is_projective(rung.tested_module())
        rungs.append(rung)
        if not rung.projective:
            break
        if j + 1 < max_steps:
            current = _next_rung(rec, current, j, r_side)
    for rung in rungs:
        if not rung.projective:
            return rungs, HeightVerdict("exact", n=rung.index + 1, failing_rung=rung.index)
    randomized = False
    for jp in range(1, len(rungs)):
        for j in range(jp % 2, jp, 2):
            res = bimodules_isomorphic(rungs[j].bimodule, rungs[jp].bimodule, seed=seed)
            if res.kind == "probably_no":
                randomized = True
            elif res.kind == "yes":
                return rungs, HeightVerdict(
                    "periodic_infinite",
                    period=jp - j - 1,
                    first_repeat_index=jp,
                    matched_rung=j,
                    rung_gap=jp - j,
                    confidence="randomized" if randomized else "proved-No-impossible",
                    seed=seed,
                )
    return rungs, HeightVerdict("at_least", n=max_steps + 1, seed=seed)


_DIFFERENTIAL_INPUTS = RECOLLEMENT_FIXTURES + ["cyclic3_2", "cyclic4_3"]


@pytest.mark.parametrize("name", _DIFFERENTIAL_INPUTS)
def test_one_pass_tower_matches_two_pass_reference(name):
    if name.startswith("cyclic"):
        n, loewy = map(int, name[len("cyclic") :].split("_"))
        rec = _cyclic_nakayama_recollement(n, loewy)
    else:
        rec = rec_for(name)
    kinds = set()
    for max_steps in (1, 2, 3, 5, 12):
        rep = ladder_report(rec, max_steps, 0)
        for r_side, rungs, verdict in ((True, rep.r_rungs, rep.r_verdict), (False, rep.l_rungs, rep.l_verdict)):
            ref_rungs, ref_verdict = _two_pass_reference(rec, max_steps, 0, r_side)
            assert verdict.to_json() == ref_verdict.to_json()
            assert 0 < len(rungs) <= len(ref_rungs)
            got = [(r.index, r.dim, r.side_tested, r.projective) for r in rungs]
            want = [(r.index, r.dim, r.side_tested, r.projective) for r in ref_rungs[: len(rungs)]]
            assert got == want
            kinds.add(verdict.kind)
    # the small budgets stop some towers early, the large ones decide them
    assert "at_least" in kinds and len(kinds) > 1


@pytest.mark.parametrize("name, rungs", [("preproj-a2", 5), ("morita-square-k", 5), ("m2k", 3)])
def test_periodic_tower_ends_at_first_repeat(name, rungs):
    rep = ladder_report(rec_for(name), 12, 0)
    assert len(rep.r_rungs) == len(rep.l_rungs) == rungs
    assert rep.r_verdict.first_repeat_index == rep.l_verdict.first_repeat_index == rungs - 1


@pytest.mark.parametrize("name", ["t3", "t5", "cyclic3_2"])
def test_towers_search_no_generators(monkeypatch, name):
    """Every rung algebra is the corner, the middle algebra or an opposite
    of one; an opposite reads its partner's generators from the store they
    share, so no greedy search runs once the recollement is built."""
    if name == "cyclic3_2":
        rec = _cyclic_nakayama_recollement(3, 2)
    else:
        alg = build_triangular(ground_field_algebra(F), int(name[1:]))
        rec = build_recollement(alg, Idempotent(alg, alg.prim_idempotents[-1]))
    closures = []
    search = Algebra._subalgebra_span
    monkeypatch.setattr(Algebra, "_subalgebra_span", lambda self, gens: closures.append(self) or search(self, gens))
    rep = ladder_report(rec, 12, 0)
    assert rep.r_rungs and rep.l_rungs and closures == []


# -- a bimodule keeps its two one-sided modules -------------------------------------


def _rungs(name, field):
    alg, default_e = load_fixture(name, field)
    rep = ladder_report(build_recollement(alg, parse_idempotent(alg, default_e)), 12, 0)
    return rep.r_rungs + rep.l_rungs


# ideal-chain is left to F_101, as in the other rung tests over Q: over Q
# the solved Hom systems of its fresh sides cost seconds
_RUNG_INPUTS = [(name, f) for f in (F, Field(None)) for name in RECOLLEMENT_FIXTURES if f.p or name != "ideal-chain"]


@pytest.mark.parametrize("name, field", _RUNG_INPUTS, ids=[f"{n}-{'F101' if f.p else 'Q'}" for n, f in _RUNG_INPUTS])
def test_rung_sides_are_kept_and_match_fresh_modules(name, field):
    rungs = _rungs(name, field)
    assert rungs
    for rung in rungs:
        b = rung.bimodule
        flipped = b.flip().flip()
        assert flipped.left_restrict() is b.left_restrict() and flipped.right_restrict() is b.right_restrict()
        for side in (b.left_restrict, b.right_restrict):
            kept = side()
            assert side() is kept
            fresh = Module(kept.algebra, kept.action.copy())
            assert np.array_equal(kept.action, fresh.action)
            for (u, p), (fu, fp) in zip(kept.idempotent_split(), fresh.idempotent_split(), strict=True):
                assert np.array_equal(u, fu) and np.array_equal(p, fp)
            assert hom_profile(kept) == hom_profile(fresh)
            projective_cover(kept)  # the kept side reads Hom off its cover
            reg = regular_module(kept.algebra)
            assert_hom_matches_block_system(kept, reg)
            assert modules._kept(fresh) is modules._kept(kept) and modules._kept(kept).cover is not None


def test_towers_solve_no_hom_system_for_a_one_sided_source(monkeypatch):
    """Each side a tower tests for projectivity keeps its cover, so the next
    rung's Hom and the cross-check read Hom off that cover; the isomorphism
    tests between rungs read it off the cover of their left side.  No
    source, one-sided or not, solves the system on the idempotent blocks."""
    sources = []
    full = modules.hom_space

    def traced(m, n):
        out = full(m, n)
        side = m.left_restrict() if isinstance(m, Bimodule) else m
        sources.append((type(m), m.dim * n.dim == 0 or modules._kept(side).cover is not None))
        return out

    def refuse(m, n):
        raise AssertionError("a tower solved the block system")

    monkeypatch.setattr(modules, "hom_space", traced)
    monkeypatch.setattr(ladder_mod, "hom_space", traced)
    monkeypatch.setattr(modules, "_block_system", refuse)
    for name in RECOLLEMENT_FIXTURES:
        height_cross_check(ladder_report(rec_for(name), 12, 0))
    assert set(sources) == {(Module, True), (Bimodule, True)}
