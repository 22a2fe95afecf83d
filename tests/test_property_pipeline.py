"""Property tests: random bound quiver algebras through the whole pipeline.

Hypothesis draws a small quiver with monomial relations; whenever the
presentation is finite-dimensional, the induced recollement at the first
vertex must satisfy every axiom the engine checks, and the ladder verdicts
must be prefix-consistent with their towers.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ladderkit.algebra import AlgebraError, Idempotent, QuiverPresentation, algebra_from_quiver
from ladderkit.ladder import ladder_report
from ladderkit.linalg import Field
from ladderkit.modules import dual, hom_space, is_isomorphic, random_module
from ladderkit.recollement import build_recollement, counit_e_r, unit_e_l, verify_canonical_sequences

F = Field(101)


@st.composite
def bound_quivers(draw):
    vertices = draw(st.integers(2, 3))
    n_arrows = draw(st.integers(1, 4))
    arrows = []
    for i in range(n_arrows):
        s = draw(st.integers(0, vertices - 1))
        t = draw(st.integers(0, vertices - 1))
        arrows.append((s, t, f"a{i}"))
    # kill each composable length-2 path independently; unkilled cycles make
    # the presentation infinite-dimensional and the example is discarded
    relations = []
    for x in arrows:
        for y in arrows:
            if x[1] == y[0] and draw(st.booleans()):
                relations.append((x[2], y[2]))
    return QuiverPresentation(vertices, arrows, relations, path_length_bound=5)


@settings(max_examples=12, deadline=None)
@given(bound_quivers(), st.integers(0, 10**6))
def test_random_quiver_recollement_pipeline(q, seed):
    try:
        alg = algebra_from_quiver(q, F)
    except AlgebraError:
        assume(False)
        return
    assume(alg.dim <= 16)
    e = Idempotent(alg, alg.prim_idempotents[0])
    rec = build_recollement(alg, e)
    rng = np.random.default_rng(seed)

    m = random_module(rec.lam, rng, max_summands=2)
    n = random_module(rec.gamma, rng, max_summands=2)

    assert verify_canonical_sequences(rec, m)["status"] == "PASS"

    fe, fl, fr, fq, fp = rec.functor_e(), rec.functor_l(), rec.functor_r(), rec.functor_q(), rec.functor_p()
    em = fe.apply(m).module
    ln = fl.apply(n).module
    rn = fr.apply(n).module
    assert len(hom_space(ln, m)) == len(hom_space(n, em))
    assert len(hom_space(em, n)) == len(hom_space(m, rn))
    assert fq.apply(ln).module.dim == 0
    assert fp.apply(rn).module.dim == 0
    assert unit_e_l(rec, n)[0].is_isomorphism()
    assert counit_e_r(rec, n)[0].is_isomorphism()
    assert is_isomorphic(m, dual(dual(m)), seed=0).is_yes

    rep = ladder_report(rec, max_steps=6, seed=0)
    for verdict, rungs in ((rep.r_verdict, rep.r_rungs), (rep.l_verdict, rep.l_rungs)):
        assert verdict.meets(1)
        if verdict.kind == "exact":
            assert all(r.projective for r in rungs[: verdict.n - 1])
            assert not rungs[verdict.n - 1].projective
        else:
            assert all(r.projective for r in rungs)
