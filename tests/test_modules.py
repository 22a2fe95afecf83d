import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ladderkit.linalg as linalg
import ladderkit.modules as modules
from ladderkit.algebra import (
    Algebra,
    AlgebraError,
    FieldRestrictionError,
    Idempotent,
    QuiverPresentation,
    algebra_from_quiver,
    algebra_from_structure_constants,
    algebra_radical_rows,
    build_triangular,
    dual_numbers_algebra,
    enveloping,
    ground_field_algebra,
    opposite,
    preprojective_a2,
)
from ladderkit.fixtures import fixture_names, load_fixture, parse_idempotent
from ladderkit.ladder import ladder_report
from ladderkit.linalg import JOIN_PRODUCTS, DimensionMismatch, Field, block_diag, intersect_kernels, kernel_basis, rank, rref, solve, solve_matrix
from ladderkit.modules import (
    Bimodule,
    HomBasis,
    Module,
    ModuleMap,
    cover_sequence,
    direct_sum,
    dual,
    hom_into_regular,
    hom_module,
    hom_profile,
    hom_space,
    is_injective,
    is_isomorphic,
    is_projective,
    minimal_resolution,
    module_pool,
    module_span_rows,
    projective_cover,
    projective_indecomposables,
    quotient_module,
    radical,
    random_module,
    regular_bimodule,
    regular_module,
    simples,
    simples_by_idempotent,
    submodule,
    tensor_over,
    zero_module,
)

from ladderkit.recollement import build_recollement
from ladderkit.verify import RECOLLEMENT_FIXTURES, run_suite

from test_pd_walk import finished, pd_bound

SRC = Path(modules.__file__).resolve().parent
F = Field(101)
K = ground_field_algebra(F)
# rref calls of projective_cover(S^32) over k[x,y]/(x,y)^2: one for the
# radical, one for the quotient coordinates of the top and one for each of
# the two rank profiles, whatever the size of the top (deterministic)
RREF_CALLS_KXY_OMEGA5 = 4


def fraction_nullity(rows):
    """Independent oracle: nullity of a rational matrix by plain list-of-lists
    Gaussian elimination with Fractions (no ladderkit code)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    col = 0
    r = 0
    while r < len(mat) and col < ncols:
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        rank += 1
        r += 1
        col += 1
    return ncols - rank


def hom_dim_oracle(actions_m, actions_n):
    """dim Hom by brute-force: stack the intertwining conditions F A_i = B_i F
    over the rationals and count the nullity."""
    m = len(actions_m[0])
    n = len(actions_n[0])
    rows = []
    for a, b in zip(actions_m, actions_n):
        for i in range(n):
            for j in range(m):
                row = [Fraction(0)] * (n * m)
                for k in range(m):
                    row[i * m + k] += Fraction(int(a[k][j]))
                for k in range(n):
                    row[k * m + j] -= Fraction(int(b[i][k]))
                rows.append(row)
    return fraction_nullity(rows)


def test_regular_module_shapes():
    t2 = build_triangular(K, 2)
    reg = regular_module(t2)
    assert reg.dim == 3
    assert regular_module(K).dim == 1


def test_hom_regular_gives_dimension():
    pp = preprojective_a2(F)
    reg = regular_module(pp)
    for m in projective_indecomposables(pp) + simples(pp):
        assert len(hom_space(reg, m)) == m.dim


def test_hom_space_end_contains_identity():
    pp = preprojective_a2(F)
    p1 = projective_indecomposables(pp)[0]
    maps = hom_space(p1, p1)
    assert len(maps) >= 1
    span = maps.matrices.reshape(len(maps), -1)

    assert solve(span.T, F.eye(p1.dim).reshape(-1), F) is not None


def test_hom_p1_p2_preprojective_matches_brute_force():
    pp = preprojective_a2(F)
    p1, p2 = projective_indecomposables(pp)[:2]
    # independent rational-arithmetic oracle on the same action matrices
    acts1 = [[[int(x) for x in row] for row in p1.act_vector(v)] for v in F.eye(pp.dim)]
    acts2 = [[[int(x) for x in row] for row in p2.act_vector(v)] for v in F.eye(pp.dim)]
    expected = hom_dim_oracle(acts1, acts2)
    assert expected == 1  # frozen from the oracle
    assert len(hom_space(p1, p2)) == expected


def test_radical_of_semisimple_is_zero():
    m2 = np.eye(1)
    from ladderkit.algebra import build_ideal_matrix_algebra

    alg = build_ideal_matrix_algebra(K, F.eye(1), 2)
    assert algebra_radical_rows(alg).shape[0] == 0
    reg = regular_module(alg)
    assert radical(reg).source.dim == 0


def test_radical_of_dual_numbers():
    dn = dual_numbers_algebra(F)
    reg = regular_module(dn)
    inc = radical(reg)
    assert inc.source.dim == 1
    # spanned by x: second coordinate
    assert inc.matrix[1, 0] != 0 or inc.matrix[0, 0] == 0


def test_radical_of_t2_projective():
    t2 = build_triangular(K, 2)
    p1 = projective_indecomposables(t2)[0]
    assert radical(p1).source.dim == 1


def test_field_restriction_error():
    f3 = Field(3)
    t2 = build_triangular(ground_field_algebra(f3), 2)  # dim 3 = p
    with pytest.raises(FieldRestrictionError):
        algebra_radical_rows(t2)


def test_projective_indecomposables_dims():
    t2 = build_triangular(K, 2)
    assert [p.dim for p in projective_indecomposables(t2)] == [2, 1]
    pp = preprojective_a2(F)
    assert [p.dim for p in projective_indecomposables(pp)] == [2, 2]
    assert [p.dim for p in projective_indecomposables(K)] == [1]


def test_simples():
    t2 = build_triangular(K, 2)
    assert [s.dim for s in simples(t2)] == [1, 1]
    pp = preprojective_a2(F)
    assert [s.dim for s in simples(pp)] == [1, 1]
    from ladderkit.algebra import build_ideal_matrix_algebra

    m2 = build_ideal_matrix_algebra(K, F.eye(1), 2)
    sims = simples(m2)
    assert len(sims) == 1 and sims[0].dim == 2  # the two idempotents share one simple


def test_projective_cover_of_projective_is_iso():
    pp = preprojective_a2(F)
    for p in projective_indecomposables(pp):
        cover, surj = projective_cover(p)
        assert cover.dim == p.dim
        assert surj.is_isomorphism()


def test_projective_cover_of_simple_over_dual_numbers():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    cover, surj = projective_cover(s)
    assert cover.dim == 2
    assert surj.is_surjective()
    # kernel inside rad(P)
    ker = kernel_basis(surj.matrix, F)
    rad_rows = radical(cover).matrix.T

    for t in range(ker.shape[1]):
        assert solve(rad_rows.T, ker[:, t], F) is not None


def _projective_cover_reference(m):
    """projective_cover's greedy search with the covered top closed by
    module_span_rows after each generator and membership tested by solve."""
    a, f = m.algebra, m.field
    top, proj = quotient_module(m, radical(m).matrix.T)
    covered = f.zeros(0, top.dim)
    gens = []
    for i, e in enumerate(a.prim_idempotents):
        cols = m.act_vector(e)
        for t in range(m.dim):
            if covered.shape[0] == top.dim:
                break
            v = cols[:, t]
            w = f.matmul(proj.matrix, v)
            if f.is_zero(w) or (covered.shape[0] and solve(covered.T, w, f) is not None):
                continue
            gens.append((i, v))
            covered = module_span_rows(top, np.concatenate([covered, w.reshape(1, -1)], axis=0))
    assert covered.shape[0] == top.dim
    projectives = projective_indecomposables(a)
    blocks = [
        f.einsum("ar,abc,c->br", modules._projective_data(a)[i].embedding, m.action, v) for i, v in gens
    ]
    mat = np.concatenate(blocks, axis=1) if blocks else f.zeros(m.dim, 0)
    return tuple(i for i, _ in gens), mat


def _linear_nakayama(n, loewy, field):
    arrows = [(i, i + 1, f"a{i}") for i in range(n - 1)]
    rels = [tuple(f"a{i + k}" for k in range(loewy)) for i in range(n - loewy)]
    return algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def _local_kxy(field):
    loops = [(0, 0, "x"), (0, 0, "y")]
    rels = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    return algebra_from_quiver(QuiverPresentation(1, loops, rels, path_length_bound=2), field)


def _syzygy(cover, surj):
    return submodule(cover, kernel_basis(surj.matrix, cover.field))[0]


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_projective_cover_matches_greedy_span_reference(field):
    """Same generators, cover and surjection as the closure-per-generator
    search, on the regular module, the simples and seeded random modules of
    every fixture (m2k and morita-square-k have isomorphic idempotents) and
    the workload algebras, and on their first three syzygies.  The reference
    builds the surjection one generator at a time; projective_cover groups
    the generators by summand index, so covers with a repeated index and
    covers with several indices are counted."""
    k = ground_field_algebra(field)
    algebras = [load_fixture(name, field)[0] for name in fixture_names()]
    algebras += [
        _local_kxy(field),
        build_triangular(k, 5),
        _linear_nakayama(8, 3, field),
        _cyclic_nakayama(4, 3, field),
    ]
    # two workload algebras in a seeded random basis order, as the benchmark builds them
    perm_rng = np.random.default_rng(5)
    permuted = [_permuted(build_triangular(k, 5), perm_rng), _permuted(_linear_nakayama(8, 3, field), perm_rng)]
    rng = np.random.default_rng(14)
    checked = repeated = mixed = 0
    for alg in algebras + permuted:
        for m in [regular_module(alg), *simples(alg), *(random_module(alg, rng) for _ in range(3))]:
            for _ in range(4):  # m, then its syzygies 1 to 3
                cover, surj = _assert_cover_matches_reference(m)
                checked += 1
                indices = cover._summands or ()
                repeated += len(set(indices)) < len(indices)
                mixed += len(set(indices)) > 1
                m = _syzygy(cover, surj)
                if m.dim == 0:
                    break
    assert checked > 150 and repeated > 10 and mixed > 10, (checked, repeated, mixed)
    # a semisimple sum with every simple repeated: every nonzero candidate is
    # new, so all of them survive the first rank profile and are accepted
    for alg in permuted:
        m = direct_sum([s for s in simples(alg) for _ in range(2)])
        cover, _ = _assert_cover_matches_reference(m)
        assert len(cover._summands) == m.dim == 2 * len(alg.prim_idempotents)


def _assert_cover_matches_reference(m):
    cover, surj = projective_cover(m)
    summands, mat = _projective_cover_reference(m)
    dim = sum(projective_indecomposables(m.algebra)[i].dim for i in summands)
    assert cover.dim == dim and (cover._summands or ()) == summands and surj.matrix.dtype == mat.dtype, m
    assert np.array_equal(surj.matrix, mat), m
    return cover, surj


def _f49_algebras():
    """F_49 = F_7[x]/(x^2 - 3) as a 2-dim F_7-algebra (3 is not a square mod
    7), and F_49[eps]/(eps^2): one idempotent, End(S) = F_49 != F_7."""
    f = Field(7)
    out = []
    for eps in (0, 1):
        basis = [(a, b) for b in range(eps + 1) for a in range(2)]  # x^a eps^b
        mult = np.zeros((len(basis),) * 3, dtype=np.int64)
        for i, (a, b) in enumerate(basis):
            for j, (c, d) in enumerate(basis):
                if b + d <= eps:  # x^a x^c = x^(a+c), x^2 = 3
                    mult[i, j, basis.index(((a + c) % 2, b + d))] = 3 if a + c == 2 else 1
        unit = [1] + [0] * (len(basis) - 1)
        out.append(algebra_from_structure_constants(f, mult, unit, [unit]))
    return out


def test_projective_cover_matches_reference_when_end_of_the_simple_is_larger():
    """The rank-profile cover needs no split algebra: over F_49 and
    F_49[eps]/(eps^2) as F_7-algebras the simple is 2-dim with End(S) = F_49,
    so one generator covers a 2-dim top.  Same generators and surjection as
    the reference on the regular module, A^3, the simple and seeded random
    modules, and over
    F_49[eps]/(eps^2) on A + S and on A^2/A.(eps, x.eps), whose syzygy S
    lies diagonally; then on their first three syzygies."""
    rng = np.random.default_rng(7)
    checked = 0
    for alg in _f49_algebras():
        reg = regular_module(alg)
        (s,) = simples(alg)
        assert s.dim == 2
        mods = [reg, direct_sum([reg] * 3), s, *(random_module(alg, rng) for _ in range(3))]
        if alg.dim == 4:  # basis 1, x, eps, x.eps
            pair = direct_sum([reg, reg])
            diagonal = module_span_rows(pair, pair.field.asarray([[0, 0, 1, 0, 0, 0, 0, 1]]))
            mods += [direct_sum([reg, s]), quotient_module(pair, diagonal)[0]]
        for m in mods:
            for _ in range(4):  # m, then its syzygies 1 to 3
                cover, surj = _assert_cover_matches_reference(m)
                checked += 1
                m = _syzygy(cover, surj)
                if m.dim == 0:
                    break
    assert checked >= 23, checked


def test_projective_cover_grows_the_top_without_a_closure(monkeypatch):
    """Over k[x,y]/(x,y)^2 the n-th syzygy of the simple is S^(2^n).  The
    cover of S^32 makes two rank profiles for its 32 generators and closes
    no span, and the cover of S^8 makes as many rref calls as that of S^32."""
    from ladderkit import linalg

    kxy = _local_kxy(F)
    calls = {"rref": 0, "span": 0}
    real_rref, real_span = linalg.rref, modules.module_span_rows

    def counting_rref(a, field):
        calls["rref"] += 1
        return real_rref(a, field)

    def counting_span(m, vectors):
        calls["span"] += 1
        return real_span(m, vectors)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(modules, "rref", counting_rref)
    monkeypatch.setattr(modules, "module_span_rows", counting_span)
    m, counts = simples(kxy)[0], {}
    for n in range(6):  # the covers of Omega^0(S) .. Omega^5(S)
        calls.update(rref=0, span=0)
        cover, surj = projective_cover(m)
        counts[n] = dict(calls)
        if n < 5:
            m = _syzygy(cover, surj)
    assert m.dim == 32
    assert counts[5] == {"rref": RREF_CALLS_KXY_OMEGA5, "span": 0}
    assert counts[3] == counts[5]
    assert cover.dim == 96 and surj.is_surjective()


def test_projective_cover_of_zero():
    cover, _ = projective_cover(zero_module(K))
    assert cover.dim == 0


def test_is_projective():
    dn = dual_numbers_algebra(F)
    assert is_projective(regular_module(dn))
    assert not is_projective(simples(dn)[0])
    from ladderkit.algebra import build_ideal_matrix_algebra

    m2 = build_ideal_matrix_algebra(K, F.eye(1), 2)
    rng = np.random.default_rng(0)
    for _ in range(3):
        assert is_projective(random_module(m2, rng))  # semisimple: everything projective


def test_minimal_resolution_projective_is_length_zero():
    t2 = build_triangular(K, 2)
    res = minimal_resolution(projective_indecomposables(t2)[0], 5)
    assert finished(res)
    assert pd_bound(res) == ("exact", 0)


def test_minimal_resolution_periodic_simple():
    dn = dual_numbers_algebra(F)
    s = simples(dn)[0]
    res = minimal_resolution(s, 5)
    assert not finished(res)
    assert pd_bound(res) == ("at_least", 6)
    assert all(t.dim == 2 for t in res.terms)  # all syzygies 1-dim, covers 2-dim


def test_minimal_resolution_t2_simples():
    t2 = build_triangular(K, 2)
    s1, s2 = simples(t2)
    assert pd_bound(minimal_resolution(s1, 5)) == ("exact", 1)
    assert pd_bound(minimal_resolution(s2, 5)) == ("exact", 0)


def test_resolution_exactness():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(5)
    m = random_module(pp, rng)
    res = minimal_resolution(m, 4)
    for j in range(1, len(res.terms)):
        dj = res.differentials[j]
        d_prev = res.differentials[j - 1]
        image = dj.matrix
        ker = kernel_basis(d_prev.matrix, F)
        assert rref(image.T, F).rank == rref(ker.T, F).rank
        stacked = np.concatenate([image.T, ker.T], axis=0)
        assert rref(stacked, F).rank == rref(ker.T, F).rank
        # minimality: image inside rad of the previous term
        rad_rows = radical(res.terms[j - 1]).matrix.T

        for t in range(image.shape[1]):
            assert solve(rad_rows.T, image[:, t], F) is not None


def test_dual_properties():
    pp = preprojective_a2(F)
    z = zero_module(pp)
    assert dual(z).dim == 0
    rng = np.random.default_rng(1)
    m = random_module(pp, rng)
    assert dual(m).dim == m.dim
    dd = dual(dual(m))
    assert is_isomorphic(m, dd, seed=0).is_yes
    p1 = projective_indecomposables(pp)[0]
    assert is_injective(dual(p1))  # D sends projectives to injectives


def test_is_injective_over_dual_numbers():
    dn = dual_numbers_algebra(F)
    assert not is_injective(simples(dn)[0])
    assert is_injective(regular_module(dn))  # self-injective
    pp = preprojective_a2(F)
    assert is_injective(regular_module(pp))


def test_tensor_unit_laws():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(2)
    m = random_module(pp, rng)
    t, _ = tensor_over(regular_bimodule(pp), m)
    assert t.dim == m.dim
    assert is_isomorphic(t, m, seed=0).is_yes


def test_hom_module_unit_law():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(3)
    m = random_module(pp, rng)
    h, _ = hom_module(regular_bimodule(pp), m)
    assert h.dim == m.dim
    assert is_isomorphic(h, m, seed=0).is_yes


def test_hom_module_of_zero():
    pp = preprojective_a2(F)
    zero_bim = Bimodule(pp, pp, F.zeros(pp.dim, 0, 0), F.zeros(pp.dim, 0, 0), _validate=False)
    h, _ = hom_module(zero_bim, regular_module(pp))
    assert h.dim == 0


def test_tensor_hom_adjunction_dimensions():
    # dim Hom_A(X (x)_B Y, Z) = dim Hom_B(Y, Hom_A(X, Z)) for a bimodule X
    pp = preprojective_a2(F)
    t2 = build_triangular(K, 2)
    rng = np.random.default_rng(4)
    from ladderkit.algebra import Idempotent
    from ladderkit.recollement import build_recollement

    rec = build_recollement(t2, Idempotent(t2, t2.prim_idempotents[1]))
    x = rec.lambda_e  # (Lambda, Gamma)
    for _ in range(5):
        y = random_module(rec.gamma, rng, max_summands=2)
        z = random_module(rec.lam, rng, max_summands=2)
        xy, _ = tensor_over(x, y)
        hz, _ = hom_module(x, z)
        assert len(hom_space(xy, z)) == len(hom_space(y, hz))


def test_is_isomorphic_basics():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(6)
    m = random_module(pp, rng)
    res = is_isomorphic(m, m, seed=0)
    assert res.is_yes
    p1, p2 = projective_indecomposables(pp)
    r = is_isomorphic(p1, p2, seed=0)
    assert r.kind == "no" and "profile" in r.certificate
    s = simples(pp)[0]
    assert is_isomorphic(s, direct_sum([s, s]), seed=0).kind == "no"


def test_is_isomorphic_rejects_a_negative_seed_before_any_work():
    # numpy's generator takes no negative seed; t_3's regular module reaches
    # the sampling, modules of different dimensions never do
    t3 = build_triangular(K, 3)
    reg = regular_module(t3)
    for m, n in [(reg, reg), (reg, simples(t3)[0])]:
        with pytest.raises(ValueError, match="non-negative seed, got -1"):
            is_isomorphic(m, n, seed=-1)
    assert is_isomorphic(reg, reg, seed=0).is_yes


def test_hom_into_regular_duality_dim():
    t2 = build_triangular(K, 2)
    p1 = projective_indecomposables(t2)[0]
    ht, hb = hom_into_regular(p1)
    assert ht.algebra.same_as(opposite(t2))
    assert ht.dim == len(hb) == 1  # Hom(P1, T2) = e1*T2 is one-dimensional


def test_module_span_and_quotient():
    t2 = build_triangular(K, 2)
    p1 = projective_indecomposables(t2)[0]
    top_vec = F.zeros(p1.dim)
    top_vec[0] = 1
    rows = module_span_rows(p1, top_vec.reshape(1, -1))
    assert rows.shape[0] == 2  # generates all of P1
    sub, incl = submodule(p1, rows.T)
    assert sub.dim == 2
    quot, proj = quotient_module(p1, radical(p1).matrix.T)
    assert quot.dim == 1


def test_submodule_rejects_unreduced_basis():
    # the whole of P1 is invariant, but this basis of it is the identity on no rows
    p1 = projective_indecomposables(build_triangular(K, 2))[0]
    basis = F.asarray([[1, 1], [1, 2]])
    assert rref(basis, F).rank == p1.dim == 2
    with pytest.raises(DimensionMismatch, match="not reduced"):
        submodule(p1, basis)
    sub, _ = submodule(p1, F.eye(2))
    assert sub.dim == 2


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_submodule_rejects_non_invariant_subspaces(field):
    # P1 of t2 has basis (e1, a) with rad(P1) = span(a)
    p1 = projective_indecomposables(build_triangular(ground_field_algebra(field), 2))[0]
    assert p1.dim == 2
    sub, _ = submodule(p1, field.asarray([[0], [1]]))
    assert sub.dim == 1
    # span(e1) is reduced; a.e1 = a fails on row 1, which is no unit row
    with pytest.raises(AlgebraError, match="not invariant"):
        submodule(p1, field.asarray([[1], [0]]))
    # span(e1 + a): both rows are unit rows, coordinates are read off row 0,
    # and only the repeated unit row 1 fails (e1.(e1 + a) = e1)
    with pytest.raises(AlgebraError, match="not invariant"):
        submodule(p1, field.asarray([[1], [1]]))


def test_resolutions_leave_numpy_ma_unimported():
    """np.setdiff1d, np.isin and np.unique import numpy.ma on first use, which
    adds to the resident memory of every run; the engine does without them.
    A fresh interpreter, because the test runner may import numpy.ma itself."""
    code = (
        "import sys\n"
        "from ladderkit.fixtures import load_fixture\n"
        "from ladderkit.linalg import Field\n"
        "from ladderkit.modules import minimal_resolution, regular_module, simples\n"
        "a, _ = load_fixture('preproj-a2', Field(101))\n"
        "for m in [regular_module(a), *simples(a)]:\n"
        "    minimal_resolution(m, 4)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for path in SRC.glob("*.py"):
        assert not re.search(r"\b(setdiff1d|isin|unique)\(", path.read_text()), path.name


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_tensor_with_zero_module_has_empty_relations(field):
    # m.n = 0 pure tensors: the balancing relation matrix is (0, 0)
    t2 = build_triangular(ground_field_algebra(field), 2)
    out, td = tensor_over(regular_bimodule(t2), zero_module(t2))
    assert out.dim == 0
    assert td.proj.shape == (0, 0) and td.sect.shape == (0, 0)


def test_hom_basis_induced_matches_coordinate_loop():
    pp = preprojective_a2(F)
    rng = np.random.default_rng(11)
    mods = [m for m in (random_module(pp, rng, max_summands=2) for _ in range(4)) if m.dim]
    assert len(mods) >= 2
    for m in mods:
        for n in mods:
            src, dst = hom_space(m, n), hom_space(m, n)
            post = hom_space(n, n).matrices[-1]
            pre = hom_space(m, m).matrices[-1]
            want = F.zeros(len(dst), len(src))
            for s, mat in enumerate(src.matrices):
                want[:, s] = dst.coords(F.matmul(post, F.matmul(mat, pre)), F)
            assert np.array_equal(src.induced(dst, F, pre=pre, post=post), want)
            # stacks of pre or post operators give one induced matrix per operator
            pres, posts = hom_space(m, m).matrices, hom_space(n, n).matrices
            for kind, ops in (("pre", pres), ("post", posts)):
                got = src.induced(dst, F, **{kind: ops})
                assert got.shape == (len(ops), len(dst), len(src))
                for k, op in enumerate(ops):
                    want = F.zeros(len(dst), len(src))
                    for s, mat in enumerate(src.matrices):
                        moved = F.matmul(mat, op) if kind == "pre" else F.matmul(op, mat)
                        want[:, s] = dst.coords(moved, F)
                    assert np.array_equal(got[k], want)
            # coords of a stack: one row per map
            stacked = dst.coords(src.matrices, F)
            assert stacked.shape == (len(src), len(dst))
            for s, mat in enumerate(src.matrices):
                assert np.array_equal(stacked[s], dst.coords(mat, F))


def _kron_induced(td, f, op_left=None, op_right=None, target=None):
    """Reference for TensorData.induced on one pair of operators: the
    Kronecker product op_left (x) op_right between the quotient coordinates."""
    big = np.kron(
        op_left if op_left is not None else f.eye(td.m_dim),
        op_right if op_right is not None else f.eye(td.n_dim),
    )
    into = target if target is not None else td
    return f.matmul(into.proj, f.matmul(f.normalize(big), td.sect))


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_tensor_induced_on_stacks_matches_kron_reference(field):
    t2 = build_triangular(ground_field_algebra(field), 2)
    reg = regular_bimodule(t2)
    m = regular_module(t2)
    n = max(projective_indecomposables(t2), key=lambda p: p.dim)  # Hom(m, n) = n, dim 2
    s1, s2 = simples(t2)
    zero_bim = Bimodule(t2, t2, field.zeros(t2.dim, 0, 0), field.zeros(t2.dim, 0, 0), _validate=False)
    td_m, td_n = tensor_over(reg, m)[1], tensor_over(reg, n)[1]
    hom_mn = hom_space(m, n).matrices
    assert hom_mn.shape == (2, 2, 3)
    # (tensor data, left stack, right stack, target); the right stack of the
    # second case is rectangular and lands in another tensor product
    cases = [
        (td_m, reg.left_action, hom_space(m, m).matrices, None),
        (td_m, None, hom_mn, td_n),
        (tensor_over(reg, zero_module(t2))[1], reg.left_action, field.zeros(2, 0, 0), None),  # n_dim = 0
        (tensor_over(zero_bim, m)[1], field.zeros(2, 0, 0), m.action, None),  # m_dim = 0
        (tensor_over(dual(s1), s2)[1], dual(s1).action, s2.action, None),  # q = 0
    ]
    assert cases[2][0].n_dim == 0 and cases[3][0].m_dim == 0
    assert cases[4][0].proj.shape[0] == 0 and cases[4][0].m_dim * cases[4][0].n_dim > 0
    for td, lefts, rights, target in cases:
        into = target if target is not None else td
        for side, ops in (("op_left", lefts), ("op_right", rights)):
            if ops is None:
                continue
            got = td.induced(field, target=target, **{side: ops})
            assert got.shape == (len(ops), into.proj.shape[0], td.sect.shape[1])
            for k, op in enumerate(ops):
                want = _kron_induced(td, field, target=target, **{side: op})
                assert np.array_equal(got[k], want)
                assert np.array_equal(td.induced(field, target=target, **{side: op}), want)
        if target is None:
            assert np.array_equal(td.induced(field), _kron_induced(td, field))


def test_bimodule_rejects_actions_of_different_dimensions():
    t2 = build_triangular(K, 2)
    with pytest.raises(AlgebraError, match="left action has dimension 3, right action dimension 2"):
        Bimodule(t2, K, t2.left_mult, F.eye(2)[None])


def test_bimodule_rejects_non_commuting_actions():
    # x |-> L(x)^T is a representation of t2^op, but it does not commute with L
    t2 = build_triangular(K, 2)
    with pytest.raises(AlgebraError, match="do not commute"):
        Bimodule(t2, t2, t2.left_mult, t2.left_mult.transpose(0, 2, 1))


def test_module_map_rejects_non_intertwiner():
    t2 = build_triangular(K, 2)
    reg = regular_module(t2)
    e11 = F.zeros(t2.dim, t2.dim)
    e11[0, 0] = 1
    with pytest.raises(AlgebraError, match="does not intertwine"):
        ModuleMap(reg, reg, e11)


def test_module_rejects_a_unit_that_does_not_act_as_the_identity():
    # t2's regular action with e1 acting twice over: 1 = e1 + e2 no longer acts as I
    t2 = build_triangular(K, 2)
    act = t2.left_mult.copy()
    e1 = int(np.flatnonzero(t2.prim_idempotents[0])[0])
    act[e1] = F.normalize(2 * act[e1])
    with pytest.raises(AlgebraError, match="unit does not act as the identity"):
        Module(t2, act)


def test_module_rejects_a_broken_representation_property():
    # x |-> L(x)^T keeps rho(1) = I but multiplies in the opposite order
    t2 = build_triangular(K, 2)
    with pytest.raises(AlgebraError, match="representation property fails at generator"):
        Module(t2, t2.left_mult.transpose(0, 2, 1))


def _fails_module_axioms_reference(a, action, f):
    """The full-basis check: rho(1) = I and rho(b_i) rho(b_j) = rho(b_i b_j)
    for every pair of basis elements."""
    if not f.equal(f.einsum("i,iab->ab", a.unit, action), f.eye(action.shape[1])):
        return True
    return not f.equal(f.matmul(action[:, None], action[None]), f.einsum("ijk,kac->ijac", a.mult, action))


def _module_message_reference(a, action, f):
    """The message of the check on generators x basis as two 4-index
    contractions, before it became two 2-D products; None if it passes."""
    if not f.equal(f.einsum("i,iab->ab", a.unit, action), f.eye(action.shape[1])):
        return "unit does not act as the identity"
    gens = a.generators()[1:]
    acts = f.einsum("gi,iab->gab", gens, action)
    prods = f.einsum("gi,ijk->gjk", gens, a.mult)
    diff = f.normalize(f.einsum("iab,jbc->ijac", acts, action) - f.einsum("ijk,kac->ijac", prods, action))
    bad = np.nonzero(diff)
    return f"representation property fails at generator {bad[0][0]}, basis element {bad[1][0]}" if len(bad[0]) else None


def _module_message_products(a, action, f):
    """The same message from the two 2-D products the check ran before it
    gathered rows: (g n, n) @ (n, d n) and (g d, d) @ (d, n n).  It matches
    _module_message_reference and is fast on large dense operands."""
    if not f.equal(f.einsum("i,iab->ab", a.unit, action), f.eye(action.shape[1])):
        return "unit does not act as the identity"
    gens = a.generators()[1:]
    g, d, n = len(gens), a.dim, action.shape[1]
    acts = f.einsum("gi,iab->gab", gens, action)
    lhs = f.matmul(acts.reshape(g * n, n), action.transpose(1, 0, 2).reshape(n, d * n)).reshape(g, n, d, n).transpose(0, 2, 1, 3)
    rhs = f.matmul(f.einsum("gi,ijk->gjk", gens, a.mult).reshape(g * d, d), action.reshape(d, n * n)).reshape(g, d, n, n)
    bad = np.nonzero(f.normalize(lhs - rhs))
    return f"representation property fails at generator {bad[0][0]}, basis element {bad[1][0]}" if len(bad[0]) else None


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_module_check_on_generators_matches_the_full_basis_check(field):
    # every single-entry mutant of every fixture pool (pools over algebras of
    # dimension at most 12 over Q): the check on generators x basis raises
    # exactly when the full-basis check fails, with the message of the
    # contractions it replaced
    mutants = raised = 0
    for name in RECOLLEMENT_FIXTURES:
        a = load_fixture(name, field)[0]
        if field.p is None and a.dim > 12:
            continue
        for m in module_pool(a).modules.values():
            assert not _fails_module_axioms_reference(a, m.action, field)
            Module(a, m.action)
            for idx in np.ndindex(*m.action.shape):
                act = m.action.copy()
                act[idx] = field.normalize(act[idx] + field.one)
                try:
                    Module(a, act)
                except AlgebraError as err:
                    fails = True
                    assert str(err) == _module_message_reference(a, act, field), (name, m.dim, idx)
                else:
                    fails = False
                assert fails == _fails_module_axioms_reference(a, act, field), (name, m.dim, idx)
                mutants, raised = mutants + 1, raised + fails
    assert raised > mutants // 2 and mutants > (500 if field.p is None else 4000)


def _permuted(alg, rng):
    """alg in a seeded random order of its basis, as the resolutions workload builds it."""
    p = rng.permutation(alg.dim)
    return algebra_from_structure_constants(alg.field, alg.mult[np.ix_(p, p, p)], alg.unit[p], [e[p] for e in alg.prim_idempotents])


def _tensor_modules(alg):
    """The modules l(e(A)) = Ae (x)_{eAe} eA whose check is_stratifying runs, one per vertex e."""
    out = []
    for ei in alg.prim_idempotents:
        rec = build_recollement(alg, Idempotent(alg, ei))
        out.append(rec.functor_l().apply(rec.functor_e().apply(regular_module(alg)).module).module)
    return out


def _module_message(a, action):
    try:
        Module(a, action)
    except AlgebraError as err:
        return str(err)
    return None


def _rejecting_sides(a, action, f):
    """Which side of the check has products at the cells where the two sides
    differ, read off dense sums: at [x, y, u, v], x.(y.v) has products when
    some (x.)[u, b] and (y.)[b, v] are nonzero, (xy).v when some (xy)_k and
    (b_k.)[u, v] are.  A cell is "left" or "right" when only that side has
    products there, else "both"."""
    gens = a.generators()[1:]
    acts, prods = f.einsum("gi,iab->gab", gens, action), f.einsum("gi,ijk->gjk", gens, a.mult)
    nz = lambda x: (x != 0).astype(np.int64)  # noqa: E731
    has_left = np.einsum("iab,jbc->ijac", nz(acts), nz(action)) > 0
    has_right = np.einsum("ijk,kac->ijac", nz(prods), nz(action)) > 0
    failing = f.normalize(f.einsum("iab,jbc->ijac", acts, action) - f.einsum("ijk,kac->ijac", prods, action)) != 0
    parts = {"left": has_left & ~has_right, "right": has_right & ~has_left, "both": has_left & has_right}
    return frozenset(name for name, part in parts.items() if (failing & part).any())


def _gathers(a, m):
    """Whether each side of m's check gathers rows rather than running the
    2-D product, by the rule of linalg._sparse_product."""
    gens = a.generators()[1:]
    acts = m.field.einsum("gi,iab->gab", gens, m.action)
    prods = m.field.einsum("gi,ijk->gjk", gens, a.mult)
    return tuple(
        (op.size - linalg.GATHER_COST * np.count_nonzero(op)) * cols > linalg.GATHER_OVERHEAD for op, cols in ((acts, a.dim * m.dim), (prods, m.dim**2))
    )


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_sparse_module_check_matches_the_contractions_on_tensor_modules(field):
    # the l(e(A)) modules of the resolutions algebras over F_101 (t_2..t_4 over
    # Q), in permuted bases, and a deterministic sample of their single-entry
    # mutants: the check on the nonzero entries raises exactly the message of
    # the 4-index contractions it replaced.  Over F_101 mutants are rejected
    # at cells where only x.(y.v) has products and at cells where only (xy).v
    # has; the few over Q are rejected where only (xy).v has or both have.
    rng = np.random.default_rng(27)
    algebras = [build_triangular(ground_field_algebra(field), n) for n in (range(2, 9) if field.p else range(2, 5))]
    if field.p is not None:
        algebras += [_linear_nakayama(n, loewy, field) for n, loewy in [(6, 2), (8, 2), (10, 2), (8, 3), (10, 3)]]
    seen, gathered = Counter(), set()
    mutants = rejected = 0
    for alg in algebras:
        alg = _permuted(alg, rng)
        for m in _tensor_modules(alg):
            assert m.dim and _module_message_reference(alg, m.action, field) is None
            gathered.update(side for side, on in zip(("left", "right"), _gathers(alg, m)) if on)
            for _ in range((12 if field.p else 30) if m.dim <= 12 else 3):
                act = m.action.copy()
                idx = tuple(int(rng.integers(k)) for k in act.shape)
                act[idx] = field.normalize(act[idx] + field.one)
                got = _module_message(alg, act)
                assert got == _module_message_reference(alg, act, field), (alg, m.dim, idx)
                if got is not None and got.startswith("representation"):
                    seen[_rejecting_sides(alg, act, field)] += 1
                mutants, rejected = mutants + 1, rejected + (got is not None)
    assert rejected > mutants // 2 and mutants > (100 if field.p is None else 500)
    if field.p is not None:  # the large tensor modules gather on both sides, and each side alone rejects
        assert gathered == {"left", "right"}
        assert {frozenset({"left"}), frozenset({"right"})} <= set(seen), seen


def test_module_check_on_a_dense_basis_holds_few_products():
    # t_8's regular module in a random dense basis: every operand of the
    # check is dense, so each side runs as one 2-D product, holding its
    # (g, d, n, n) result, reduced, and the other side's; a gather of every
    # nonzero's row at once would hold g n^2 d n = 25M entries
    rng = np.random.default_rng(28)
    t8 = build_triangular(K, 8)
    d = t8.dim
    t = F.asarray(rng.integers(0, F.p, size=(d, d)))
    while rank(t, F) < d:
        t = F.asarray(rng.integers(0, F.p, size=(d, d)))
    tinv = solve_matrix(t, F.eye(d), F)
    c = F.matmul(F.einsum("ia,jb,ijk->abk", t, t, t8.mult), tinv.T)
    dense = Algebra(F, c, F.matmul(tinv, t8.unit), [F.matmul(tinv, e) for e in t8.prim_idempotents], _validate=False)
    g = len(dense.generators()) - 1
    cells = g * d**3
    assert np.count_nonzero(dense.left_mult) > d**3 // 2 and g * d**4 > 100 * JOIN_PRODUCTS
    m = Module(dense, dense.left_mult, _validate=False)
    dense.generator_products()
    tracemalloc.start()
    try:
        m._validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * cells + 16 * 8 * JOIN_PRODUCTS, peak
    assert _module_message_products(dense, m.action, F) is None
    # single-entry mutants, against the 2-D products (the 4-index
    # contractions take seconds at this size)
    for idx in [(0, 0, 0), (d - 1, 1, 2), (d // 2, d - 1, 0)]:
        act = m.action.copy()
        act[idx] = F.normalize(act[idx] + 1)
        assert _module_message(dense, act) == _module_message_products(dense, act, F) is not None, idx


def test_module_check_makes_as_many_products_on_t4_as_on_t8(monkeypatch):
    # no loop over the dimension or the module: a fixed number of contractions
    calls = Counter()
    for name in ("matmul", "einsum", "sparse_matmul"):
        method = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, *args, _m=method, _n=name: calls.update([_n]) or _m(self, *args))
    counts = []
    for n in (4, 8):
        m = regular_module(build_triangular(K, n))
        m._validate()  # the algebra's generators and their products, computed once
        calls.clear()
        m._validate()
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["sparse_matmul"] == 2, counts
    assert all(_gathers(m.algebra, m))  # t_8's regular module gathers on both sides


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_action_on_columns_per_summand_matches_the_dense_product(field):
    # sums of projectives in shuffled orders with repeated indices, against
    # the dense product with the block-diagonal action
    rng = np.random.default_rng(7)
    for name in ("t3", "preproj-a2", "prop32-dual-numbers", "ideal-chain"):
        a = load_fixture(name, field)[0]
        if field.p is None and a.dim > 12:
            continue
        projs = projective_indecomposables(a)
        for _ in range(3):
            idx = [int(i) for i in rng.permutation([*range(len(projs)), *rng.integers(0, len(projs), size=2)])]
            m = direct_sum([projs[i] for i in idx])
            assert m._summands == tuple(idx)
            cols = field.asarray(rng.integers(-3, 4, size=(m.dim, 4)))
            got = modules._act_on_columns(m, cols)
            assert got.dtype == cols.dtype and np.array_equal(got, field.matmul(m.action, cols)), (name, idx)


def test_hom_from_projective_counts_idempotent_part():
    # dim Hom(P_i, M) equals the rank of e_i acting on M
    pp = preprojective_a2(F)
    projs = projective_indecomposables(pp)
    rng = np.random.default_rng(43)
    for _ in range(4):
        m = random_module(pp, rng, max_summands=2)
        for e, p in zip(pp.prim_idempotents, projs):
            assert len(hom_space(p, m)) == rref(m.act_vector(e), F).rank


# -- differential test of the Hom engine ----------------------------------------


def _hom_space_reference(m, n):
    """Hom(m, n) by the intertwiner kernel: one kron(I, A^T) - kron(B, I) block
    per generator (unit and idempotents included), kernels intersected one
    generator at a time starting from the identity."""
    f = m.field
    if m.dim == 0 or n.dim == 0:
        return []
    constraints = []
    eye_m, eye_n = f.eye(m.dim), f.eye(n.dim)
    for g in m.algebra.generators():
        constraints.append(f.normalize(np.kron(eye_n, m.act_vector(g).T) - np.kron(n.act_vector(g), eye_m)))
    basis = intersect_kernels(constraints, n.dim * m.dim, f)
    return [basis[:, t].reshape(n.dim, m.dim) for t in range(basis.shape[1])]


def _assert_same_hom_basis(m, n):
    got = hom_space(m, n)
    want = _hom_space_reference(m, n)
    assert isinstance(got, HomBasis) and got.source is m and got.target is n
    assert got.matrices.shape == (len(want), n.dim, m.dim)
    assert len(got) == len(want) == got.positions.shape[0]
    for s, w in enumerate(want):
        assert np.array_equal(got.matrices[s], w)
        # positions[s] is the last nonzero row-major entry of map s
        assert got.positions[s] == np.flatnonzero(got.matrices[s].reshape(-1))[-1]
        assert np.array_equal(got.map(s).matrix, w)
    return len(got)


@pytest.mark.parametrize(
    "name,field",
    [(name, F) for name in RECOLLEMENT_FIXTURES] + [(name, Field(None)) for name in ("t2", "t3", "preproj-a2")],
)
def test_hom_space_matches_kron_reference(name, field):
    alg, _ = load_fixture(name, field)
    rng = np.random.default_rng(2003)
    mods = [random_module(alg, rng) for _ in range(5)] + projective_indecomposables(alg)
    for m in mods:
        for n in mods:
            _assert_same_hom_basis(m, n)


def _random_ses(a, rng):
    """A seeded 0 -> A -> B -> C -> 0 over a: a nonzero random module B and
    the submodule generated by one random vector, pushed into rad(B) half of
    the time (a uniform vector almost always generates a cyclic B, and proper
    radical submodules are where Hom(M, -) fails to be exact)."""
    f = a.field
    hi = f.p if f.is_prime_field else 7
    b = random_module(a, rng)
    while b.dim == 0:
        b = random_module(a, rng)
    jrows = algebra_radical_rows(a)
    vec = f.asarray(rng.integers(0, hi, size=b.dim))
    if len(jrows) and rng.integers(0, 2):
        j = f.matmul(f.asarray(rng.integers(0, hi, size=len(jrows))), jrows)
        vec = f.matmul(b.act_vector(j), vec)
    rows = module_span_rows(b, vec[None, :])
    _, incl = submodule(b, rows.T)
    _, proj = quotient_module(b, rows)
    return incl, proj


def _pushed_rank(maps, post, f):
    """Rank of g |-> post.g on the span of a list of maps, flattened."""
    return rank(np.stack([f.matmul(post, g).reshape(-1) for g in maps]), f) if maps else 0


@pytest.mark.parametrize(
    "name,field",
    [(name, F) for name in RECOLLEMENT_FIXTURES] + [("t2", Field(None))],
    ids=[f"{name}-F101" for name in RECOLLEMENT_FIXTURES] + ["t2-Q"],
)
def test_hom_functor_ranks_match_the_kron_reference(name, field):
    """hom_space and HomBasis.induced on seeded random short exact sequences
    and on each source's cover sequence: the Hom dimensions and the ranks of
    Hom(M, A) -> Hom(M, B) -> Hom(M, C) agree with the np.kron null space
    of _hom_space_reference and the ranks of the composed, flattened maps.
    Hom(M, -) is left exact for every M, and exact on every sequence iff M
    is projective, which the cover sequence alone detects.  Sources: the
    projective indecomposables and simples of the middle algebra and the
    corner (the dual numbers for prop32-dual-numbers), and the seed-0 rung
    modules."""
    from ladderkit.ladder import _hom_functor_exact_on

    alg, default_e = load_fixture(name, field)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    rep = ladder_report(rec, 12, 0)
    sources = [m for a in (rec.lam, rec.gamma) for m in (*projective_indecomposables(a), *simples(a))]
    sources += [r.tested_module() for r in rep.r_rungs + rep.l_rungs]
    rng = np.random.default_rng(16)
    random_seqs = {}
    exact_counts = {True: 0, False: 0}
    proper = 0
    for m in sources:
        a = m.algebra
        if a not in random_seqs:
            random_seqs[a] = [_random_ses(a, rng) for _ in range(4)]
        for k, (incl, proj) in enumerate([cover_sequence(m), *random_seqs[a]]):
            sub, mid, quo = incl.source, incl.target, proj.target
            assert rank(incl.matrix, field) == sub.dim and rank(proj.matrix, field) == quo.dim
            assert sub.dim + quo.dim == mid.dim and field.is_zero(field.matmul(proj.matrix, incl.matrix))
            ha, hb, hc = hom_space(m, sub), hom_space(m, mid), hom_space(m, quo)
            ref_a, ref_b, ref_c = _hom_space_reference(m, sub), _hom_space_reference(m, mid), _hom_space_reference(m, quo)
            assert (len(ha), len(hb), len(hc)) == (len(ref_a), len(ref_b), len(ref_c))
            rank_i = rank(ha.induced(hb, field, post=incl.matrix), field)
            rank_p = rank(hb.induced(hc, field, post=proj.matrix), field)
            assert rank_i == _pushed_rank(ref_a, incl.matrix, field) == len(ha)
            assert rank_p == _pushed_rank(ref_b, proj.matrix, field)
            assert len(hb) - rank_p == rank_i
            exact = rank_p == len(hc)
            assert (_hom_functor_exact_on(m, incl, proj) is None) == exact
            if is_projective(m):
                assert exact
            elif k == 0:  # the cover sequence
                assert not exact
            exact_counts[exact] += 1
            proper += 0 < sub.dim < mid.dim
    assert exact_counts[True] and (exact_counts[False] or all(map(is_projective, sources)))  # m2k is semisimple
    assert proper


def _enveloping_modules(rungs) -> list:
    """The dense reference: each rung bimodule M as a left module over
    A (x) B^op, acting by (a (x) b).x = a.x.b; one product algebra per pair
    of factors."""
    envs, out = {}, []
    for rung in rungs:
        b = rung.bimodule
        key = (id(b.left), id(b.right))
        if key not in envs:
            envs[key] = enveloping(b.left, b.right)
        act = b.field.einsum("iab,jbc->ijac", b.left_action, b.right_action)
        out.append(Module(envs[key], act.reshape(-1, b.dim, b.dim), _validate=False))
    return out


def _assert_rungs_match_enveloping_reference(rep, seed=0) -> int:
    """On every same-parity rung pair of both towers, the bimodules and their
    enveloping modules give the same Hom basis, profile and isomorphism test
    (kind, trials, certificate, witness); returns the number of pairs."""
    pairs = 0
    for rungs in (rep.r_rungs, rep.l_rungs):
        refs = _enveloping_modules(rungs)
        for j, (rung, ref) in enumerate(zip(rungs, refs)):
            b = rung.bimodule
            assert hom_profile(b) == hom_profile(ref)
            for other, other_ref in zip(rungs[j % 2 :: 2], refs[j % 2 :: 2]):
                c = other.bimodule
                got, want = hom_space(b, c), hom_space(ref, other_ref)
                assert got.source is b and got.target is c
                assert np.array_equal(got.matrices, want.matrices) and np.array_equal(got.positions, want.positions)
                res, res_ref = is_isomorphic(b, c, seed), is_isomorphic(ref, other_ref, seed)
                assert (res.kind, res.trials, res.certificate) == (res_ref.kind, res_ref.trials, res_ref.certificate)
                assert (res.witness is None) == (res_ref.witness is None)
                if res.witness is not None:
                    assert np.array_equal(res.witness.matrix, res_ref.witness.matrix)
                pairs += 1
    return pairs


def test_hom_space_matches_reference_over_enveloping_algebra():
    pairs, kinds = 0, set()
    for name in RECOLLEMENT_FIXTURES:
        alg, e = load_fixture(name, F)
        rep = ladder_report(build_recollement(alg, parse_idempotent(alg, e)), 12, 0)
        pairs += _assert_rungs_match_enveloping_reference(rep)
        kinds |= {rep.r_verdict.kind, rep.l_verdict.kind}
    assert pairs >= 90 and kinds == {"exact", "periodic_infinite"}
    # the reference itself: over the enveloping algebra, whose generators
    # start with sums of idempotents, hom_space matches the kron reference
    alg, e = load_fixture("preproj-a2", F)
    rep = ladder_report(build_recollement(alg, parse_idempotent(alg, e)), 6, 0)
    mods = _enveloping_modules(rep.r_rungs[::2])
    env = mods[0].algebra
    assert len(mods) >= 2 and len(env.generators_beyond_idempotents()) < len(env.generators())
    for m in mods:
        for n in mods:
            _assert_same_hom_basis(m, n)


def test_rung_profiles_where_the_enveloping_radical_is_out_of_reach():
    # dim G * dim L >= 101 > dim G, dim L: over F_101 the trace-form radical
    # of G (x) L^op is out of reach, the factors' radicals are not
    def rungs_over(p, idempotent):
        alg, _ = load_fixture("ideal-chain", Field(p))
        rep = ladder_report(build_recollement(alg, parse_idempotent(alg, idempotent)), 12, 0)
        return rep.r_rungs + rep.l_rungs

    for idempotent, env_dim in (("e1+e3+e6", 132), ("e1+e3+e4+e5+e6", 330)):
        rungs = rungs_over(101, idempotent)
        assert rungs[0].bimodule.left.dim * rungs[0].bimodule.right.dim == env_dim
        profiles = [hom_profile(r.bimodule) for r in rungs]
        assert all(p[2] and p[3] for p in profiles)
        assert hom_profile(_enveloping_modules(rungs[:1])[0])[2:] == ((), ())
        rungs_353 = rungs_over(353, idempotent)
        assert [hom_profile(r.bimodule) for r in rungs_353] == profiles
        if env_dim == 132:  # over F_353 a 330-dim enveloping algebra's radical takes about a minute
            assert [hom_profile(m) for m in _enveloping_modules(rungs_353)] == profiles


def test_hom_space_matches_reference_in_unadapted_bases():
    # conjugated actions make every e_i act by a non-diagonal projection
    alg = preprojective_a2(F)
    rng = np.random.default_rng(17)
    mods = []
    for _ in range(4):
        m = random_module(alg, rng, max_summands=2)
        while True:
            g = F.asarray(rng.integers(0, F.p, size=(m.dim, m.dim)))
            if rref(g, F).rank == m.dim:
                break
        ginv = solve_matrix(g, F.eye(m.dim), F)
        act = F.normalize(np.einsum("ab,ibc,cd->iad", g, m.action, ginv))
        mods.append(Module(alg, act))
    idem_acts = [mod.act_vector(e) for mod in mods for e in alg.prim_idempotents]
    assert any(np.count_nonzero(act - np.diag(np.diagonal(act))) for act in idem_acts)
    for m in mods:
        for n in mods:
            _assert_same_hom_basis(m, n)


def test_hom_space_zero_module_and_zero_hom():
    t2 = build_triangular(K, 2)
    z = zero_module(t2)
    p1, p2 = projective_indecomposables(t2)
    for m in (z, p1):
        assert _assert_same_hom_basis(z, m) == 0
        assert _assert_same_hom_basis(m, z) == 0
    s1, s2 = simples(t2)
    assert _assert_same_hom_basis(s1, s2) == 0  # no common idempotent block
    assert _assert_same_hom_basis(s1, p1) == 0  # a block, but the arrow kills it
    assert _assert_same_hom_basis(s2, p1) == 1


# -- Hom out of sums of projectives and kept covers ---------------------------------


def _solved(m, n):
    """hom_space's (matrices, positions) from the linear system, past the
    algebra's table: a source passed with no record and no summand indices
    is never read off a cover."""
    return modules._hom_basis(Module(m.algebra, m.action, _validate=False), n, None)


def _assert_shortcut_matches_system(m, n):
    got, (matrices, positions) = hom_space(m, n), _solved(m, n)
    assert got.matrices.dtype == matrices.dtype and got.matrices.shape == matrices.shape
    assert np.array_equal(got.matrices, matrices) and np.array_equal(got.positions, positions)
    return len(got)


@pytest.mark.parametrize(
    "name,field",
    [(name, F) for name in RECOLLEMENT_FIXTURES] + [(name, Field(None)) for name in ("t2", "prop32-dual-numbers")],
)
def test_hom_shortcuts_match_the_linear_system(name, field):
    """Sums of projective indecomposables (shuffled, with repeats) and modules
    with a kept cover (projective or not: the regular module, simples, seeded
    random modules and their syzygies) give hom_space's basis of the linear
    system, against every target, the zero module and Hom = 0 included.  The
    split of a sum of projectives is the block diagonal of its summands'
    splits, as is the rref of a block-diagonal matrix."""
    alg, _ = load_fixture(name, field)
    rng = np.random.default_rng(15)
    projs = projective_indecomposables(alg)
    free = [direct_sum([projs[i] for i in rng.permutation(len(projs))]) for _ in range(2)]
    free.append(direct_sum([projs[int(i)] for i in rng.integers(0, len(projs), size=3)]))
    free += projs
    for q in free:
        assert q._summands is not None
        splits = [projs[i].idempotent_split() for i in q._summands]
        blocks = [tuple(block_diag(field, [sp[j][k] for sp in splits]) for k in (0, 1)) for j in range(len(projs))]
        assert all(np.array_equal(u, v) and u.dtype == v.dtype for pair in zip(q.idempotent_split(), blocks, strict=True) for u, v in zip(*pair))
    covered = [regular_module(alg), *simples(alg), *(random_module(alg, rng) for _ in range(3))]
    for m in list(covered):
        for _ in range(2):
            incl, _ = cover_sequence(m)
            m = incl.source
            covered.append(m)
    covered = [m for m in covered if m.dim and m._summands is None]  # a random module may be its free q0
    for m in covered:
        projective_cover(m)
        assert modules._kept(m).cover is not None
    z = zero_module(alg)
    projective_cover(z)
    targets = [z, regular_module(alg), *projs, *simples(alg), *(random_module(alg, rng) for _ in range(3))]
    dims = [_assert_shortcut_matches_system(m, n) for m in free + covered + [z] for n in targets]
    assert 0 in dims and max(dims) > 1


def test_cover_kept_and_its_kernel_computed_once(monkeypatch):
    """A second projective_cover returns the kept cover; minimal_resolution,
    cover_sequence and hom_space share one kernel of each surjection, and a
    syzygy with an earlier one's content reuses its cover and kernel."""
    calls = []
    real = modules.kernel_basis
    monkeypatch.setattr(modules, "kernel_basis", lambda a, f: calls.append(a.shape) or real(a, f))
    alg, _ = load_fixture("prop32-dual-numbers", F)
    m = random_module(alg, np.random.default_rng(4))
    while is_projective(m):
        m = random_module(alg, np.random.default_rng(len(calls) + m.dim))
    cover, surj = projective_cover(m)
    again, surj2 = projective_cover(m)
    assert again is cover and np.array_equal(surj.matrix, surj2.matrix)
    calls.clear()
    res = minimal_resolution(m, 3)
    steps = len(calls)
    # one kernel per distinct syzygy: Omega^3 M has the content of Omega^2 M
    assert steps == 3 and len(res.terms) == 4 and res.terms[0] is cover and res.terms[3] is res.terms[2]
    cover_sequence(m)
    hom_space(m, regular_module(alg))
    assert len(calls) == steps
    # kept arrays only: no module or ModuleMap on the record, which would point back to one
    assert not any(isinstance(x, (Module, ModuleMap)) for x in vars(modules._kept(m)).values())


def test_idempotent_split_rejects_incomplete_system():
    # an algebra built without validation whose idempotents miss part of the unit
    t2 = build_triangular(K, 2)
    broken = Algebra(F, t2.mult, t2.unit, t2.prim_idempotents[:1], _validate=False)
    reg = Module(broken, broken.left_mult, _validate=False)
    with pytest.raises(AlgebraError):
        hom_space(reg, reg)


# -- derived data kept on the algebra -----------------------------------------------


def test_projective_indecomposables_cached_in_new_lists():
    pp = preprojective_a2(F)
    first = projective_indecomposables(pp)
    second = projective_indecomposables(pp)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    first.append(zero_module(pp))
    third = projective_indecomposables(pp)
    assert len(third) == 2 and all(a is b for a, b in zip(third, second))


def test_algebra_radical_rows_read_only():
    t2 = build_triangular(K, 2)
    rows = algebra_radical_rows(t2)
    assert rows is algebra_radical_rows(t2)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1


# -- Hom profiles read off ranks ----------------------------------------------------


def _hom_profile_reference(m):
    """The profile by Hom spaces: dim Hom(m, S) and dim Hom(S, m) solved for
    one top(A.e_i) per isomorphism class, deduplicated here on the tops
    themselves (S_i ~ S_j exactly when e_i acts nontrivially on S_j)."""
    f = m.field
    idem_dims = tuple(rref(m.act_vector(e), f).rank for e in m.algebra.prim_idempotents)
    try:
        tops = simples_by_idempotent(m.algebra)
    except FieldRestrictionError:
        return (m.dim, idem_dims, (), ())
    sims = []
    for i, s in enumerate(tops):
        e_i = m.algebra.prim_idempotents[i]
        if not any(o.dim == s.dim and rref(o.act_vector(e_i), f).rank > 0 for o in sims):
            sims.append(s)
    return (m.dim, idem_dims, tuple(len(hom_space(m, s)) for s in sims), tuple(len(hom_space(s, m)) for s in sims))


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_hom_profile_matches_hom_space_reference(name, field):
    alg, default_e = load_fixture(name, field)
    rng = np.random.default_rng(17)
    mods = projective_indecomposables(alg) + simples(alg) + [random_module(alg, rng) for _ in range(10)]
    mods.append(zero_module(alg))
    for m in mods:
        assert hom_profile(m) == _hom_profile_reference(m)
        assert hom_profile(m) is hom_profile(m)  # kept with the content
    if field.p is None and name == "ideal-chain":
        return  # over Q, the projectives of its rungs' 66-dim enveloping algebras take seconds each
    rep = ladder_report(build_recollement(alg, parse_idempotent(alg, default_e)), 12, 0)
    rungs = rep.r_rungs + rep.l_rungs
    assert rungs
    for rung, ref in zip(rungs, _enveloping_modules(rungs)):
        assert hom_profile(rung.bimodule) == _hom_profile_reference(ref)
        assert hom_profile(rung.bimodule) is hom_profile(rung.bimodule)
    if field.p is None:  # over F_101 in test_hom_space_matches_reference_over_enveloping_algebra
        assert _assert_rungs_match_enveloping_reference(rep)


@pytest.mark.parametrize("name,p", [("t3", 5), ("preproj-a2", 3)])
def test_hom_profile_without_radical_is_empty(name, p):
    small = Field(p)
    alg, _ = load_fixture(name, small)
    assert small.p <= alg.dim
    rng = np.random.default_rng(3)
    for m in projective_indecomposables(alg) + [random_module(alg, rng) for _ in range(4)]:
        got = hom_profile(m)
        assert got[2:] == ((), ()) and got == _hom_profile_reference(m)


def _cyclic_nakayama(n, loewy, field):
    arrows = [(i, (i + 1) % n, f"a{i}") for i in range(n)]
    rels = [tuple(f"a{(i + k) % n}" for k in range(loewy)) for i in range(n)]
    return algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def test_ladder_report_profiles_without_hom_systems_against_simples(monkeypatch):
    tops_calls, hom_calls = [], []
    real_tops, real_hom = modules.simples_by_idempotent, modules.hom_space

    def counting_tops(a):
        out = real_tops(a)
        tops_calls.append((a, out))  # held, so ids stay unique
        return out

    def counting_hom(m, n):
        hom_calls.append((m, n))
        return real_hom(m, n)

    monkeypatch.setattr(modules, "simples_by_idempotent", counting_tops)
    monkeypatch.setattr(modules, "hom_space", counting_hom)
    pp, pp_e = load_fixture("preproj-a2", F)
    nak = _cyclic_nakayama(4, 3, F)
    for alg, e in ((pp, parse_idempotent(pp, pp_e)), (nak, Idempotent(nak, nak.prim_idempotents[0]))):
        rep = ladder_report(build_recollement(alg, e), 12, 0)
        assert rep.r_verdict.kind and rep.l_verdict.kind
    algebras = [id(a) for a, _ in tops_calls]
    assert algebras and len(algebras) == len(set(algebras))
    simple_ids = {id(s) for _, tops in tops_calls for s in tops}
    assert hom_calls and not any(id(m) in simple_ids or id(n) in simple_ids for m, n in hom_calls)


# -- the algebra's table of module contents ------------------------------------------


def _table_algebras(field, seed):
    """Every fixture, and workload algebras in a seeded random basis order."""
    k, rng = ground_field_algebra(field), np.random.default_rng(seed)
    workload = [build_triangular(k, 5), _linear_nakayama(8, 3, field), _cyclic_nakayama(4, 3, field), _local_kxy(field)]
    return [load_fixture(name, field)[0] for name in fixture_names()] + [_permuted(a, rng) for a in workload]


def _same_content(m):
    """A new module object with m's action, as a sum of the same projectives if m is one."""
    out = Module(m.algebra, m.action.copy(), _validate=False)
    out._summands = m._summands  # not in the content's key: set as direct_sum sets it
    return out


@pytest.mark.parametrize("seed", [5, 7])
def test_table_serves_what_a_fresh_computation_gives(seed):
    """Resolve simples and seeded random modules three steps deep, then ask
    again on new objects of the same content: every cover (summands and pi),
    syzygy and Hom basis then comes from the algebra's table, and equals the
    table-free references."""
    served = 0
    for alg in _table_algebras(F, seed):
        rng = np.random.default_rng(seed)
        chain = []
        for m in [*simples(alg), *(random_module(alg, rng, max_summands=2) for _ in range(2))]:
            for _ in range(3):
                chain.append(m)
                m = cover_sequence(m)[0].source
                if m.dim == 0:
                    break
        targets = [regular_module(alg), *simples(alg), *chain[:3]]
        for m in chain:
            for n in targets:
                hom_space(m, n)
        for m in chain:
            again = _same_content(m)
            kept = modules._kept(again)
            assert kept.cover is not None and kept.syzygy is not None and kept is modules._kept(m)
            cover, surj = projective_cover(again)
            summands, mat = _projective_cover_reference(m)
            assert cover._summands == summands and surj.matrix.dtype == mat.dtype and np.array_equal(surj.matrix, mat)
            incl, _ = cover_sequence(again)
            kernel = kernel_basis(surj.matrix, F)
            assert np.array_equal(incl.matrix, kernel)
            assert np.array_equal(incl.source.action, submodule(cover, kernel)[0].action)
            for n in targets:
                target = _same_content(n)
                assert modules._content_id(alg, target) in kept.homs
                got, want = hom_space(again, target), _hom_space_reference(m, n)
                assert got.matrices.shape == (len(want), n.dim, m.dim)
                assert all(np.array_equal(g, w) for g, w in zip(got.matrices, want))
                assert [np.flatnonzero(w.reshape(-1))[-1] for w in want] == got.positions.tolist()
                served += 1
    assert served > 500, served


def test_second_module_of_equal_content_resolves_without_elimination(monkeypatch):
    """Two distinct Module objects with equal content: the second
    minimal_resolution reads covers, kernels and syzygies off the table."""
    alg, _ = load_fixture("prop32-dual-numbers", F)
    m = random_module(alg, np.random.default_rng(4))
    first = minimal_resolution(m, 4)
    calls = []
    real = linalg.rref
    for mod in (linalg, modules):
        monkeypatch.setattr(mod, "rref", lambda a, f: calls.append(a.shape) or real(a, f))
    again = minimal_resolution(Module(alg, m.action.copy()), 4)
    assert calls == []
    assert [t.dim for t in again.terms] == [t.dim for t in first.terms] and len(first.terms) == 5
    assert all(np.array_equal(d.matrix, e.matrix) for d, e in zip(first.differentials, again.differentials))


def test_equal_content_reads_one_split_and_profile(monkeypatch):
    """A second Module object with an equal action reads the idempotent split
    and the Hom profile off the content's record: the same objects, with no
    elimination.  A rung bimodule keeps both on a record of its own."""
    alg, default_e = load_fixture("prop32-dual-numbers", F)
    m = random_module(alg, np.random.default_rng(4))
    rung = ladder_report(build_recollement(alg, parse_idempotent(alg, default_e)), 12, 0).r_rungs[-1].bimodule
    calls = []
    real = linalg.rref
    for mod in (linalg, modules):
        monkeypatch.setattr(mod, "rref", lambda a, f: calls.append(a.shape) or real(a, f))
    split, profile = m.idempotent_split(), hom_profile(m)
    assert calls  # the first profile eliminates
    calls.clear()
    again = Module(alg, m.action.copy())
    assert again.idempotent_split() is split and hom_profile(again) is profile
    assert calls == []
    rung_split, rung_profile = rung.idempotent_split(), hom_profile(rung)
    calls.clear()
    assert rung.idempotent_split() is rung_split and hom_profile(rung) is rung_profile
    assert calls == []


def _leaves(x):
    """x, or what a tuple, list or dict holds, all the way down."""
    if isinstance(x, (tuple, list)):
        return [y for v in x for y in _leaves(v)]
    if isinstance(x, dict):
        return [y for v in x.values() for y in _leaves(v)]
    return [x]


def test_a_suite_pass_keeps_nothing_derived_on_a_module(monkeypatch):
    """Every Module made in a run_suite pass holds its algebra, action, dim,
    summand indices and record id only; what is derived from it is on its
    content's record, and no record holds a module or a map."""
    made = []
    init, hand_out = Module.__init__, modules._hand_out

    def tracked_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Module, "__init__", tracked_init)
    monkeypatch.setattr(modules, "_hand_out", lambda a, kept: made.append(hand_out(a, kept)) or made[-1])
    run_suite(seed=0)
    assert len(made) > 1000
    assert all(vars(m).keys() <= {"algebra", "action", "dim", "_summands", "_id"} for m in made)
    algebras = {id(m.algebra): m.algebra for m in made}.values()
    values = [v for a in algebras for r in modules._table(a)[1] for v in _leaves(list(vars(r).values()))]
    assert len(values) > 1000 and not any(isinstance(v, (Module, ModuleMap, Bimodule)) for v in values)


@pytest.mark.parametrize("build", [_local_kxy, dual_numbers_algebra, lambda f: _f49_algebras()[1]], ids=["kxy", "dual-numbers", "F49-eps"])
def test_random_modules_over_a_local_algebra_are_not_all_free(build):
    """The map Q1 -> Q0 goes into rad(Q0), so the cokernel keeps Q0's top and
    is projective only when the map is 0."""
    alg = build(F)
    rng = np.random.default_rng(0)
    draws = [random_module(alg, rng) for _ in range(12)]
    assert all(m.dim for m in draws)
    assert sum(not is_projective(m) for m in draws) >= 3


def test_hom_target_over_an_equal_algebra_built_apart_is_keyed_by_content():
    """hom_space accepts a target over an equal algebra built apart: its
    content is looked up in the source algebra's table, not by its id in its
    own algebra's table, whose ids are given in another order."""
    a, b = (load_fixture("t3", F)[0] for _ in range(2))
    sa, sb = simples(a), simples(b)
    for s in sb[::-1]:
        hom_space(s, s)  # b's ids run in the reverse order
    for x in sa:
        for y, z in zip(sa, sb):
            want, got = hom_space(x, y), hom_space(x, z)
            assert got.target is z and np.array_equal(got.matrices, want.matrices) and np.array_equal(got.positions, want.positions)
    assert [len(hom_space(x, z)) for x, z in zip(sa, sb)] == [1, 1, 1]
