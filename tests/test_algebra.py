import tracemalloc

import numpy as np
import pytest

from ladderkit.algebra import (
    AlgebraError,
    Algebra,
    FieldRestrictionError,
    Idempotent,
    QuiverPresentation,
    algebra_from_quiver,
    algebra_radical_rows,
    algebra_from_structure_constants,
    build_ideal_matrix_algebra,
    build_morita_square,
    build_triangular,
    corner,
    dual_numbers_algebra,
    enveloping,
    ground_field_algebra,
    opposite,
    preprojective_a2,
    quotient_by_idempotent_ideal,
)
from ladderkit.fixtures import load_fixture, parse_idempotent
from ladderkit.linalg import DIM_BOUND, Field, in_span, kernel_basis, rref, solve
from ladderkit.modules import _simple_classes
from ladderkit.verify import RECOLLEMENT_FIXTURES

F = Field(101)


def matrix_units_2x2(field):
    # E_ij E_kl = delta_jk E_il; basis order E11, E12, E21, E22
    d = 4
    c = field.zeros(d, d, d)
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (i, j), a in pos.items():
        for (k, l), b in pos.items():
            if j == k:
                c[a, b, pos[(i, l)]] = 1
    unit = field.zeros(d)
    unit[pos[(1, 1)]] = unit[pos[(2, 2)]] = 1
    e1 = field.zeros(d)
    e1[pos[(1, 1)]] = 1
    e2 = field.zeros(d)
    e2[pos[(2, 2)]] = 1
    return algebra_from_structure_constants(field, c, unit, [e1, e2])


def test_ground_field_is_one_dimensional():
    k = ground_field_algebra(F)
    assert k.dim == 1
    assert np.array_equal(k.multiply(k.unit, k.unit), k.unit)


def test_full_matrix_units():
    m2 = matrix_units_2x2(F)
    assert m2.dim == 4
    # E11 + E22 = unit, idempotents orthogonal (validated at construction)
    assert np.array_equal(F.normalize(m2.prim_idempotents[0] + m2.prim_idempotents[1]), m2.unit)


def test_broken_associativity_reports_triple():
    # unit u, generators a, b with a*a = b, a*b = 0, b*a = a: (aa)a != a(aa)
    c = F.zeros(3, 3, 3)
    for j in range(3):
        c[0, j, j] = 1
        c[j, 0, j] = 1
    c[1, 1, 2] = 1  # a*a = b
    c[2, 1, 1] = 1  # b*a = a
    with pytest.raises(AlgebraError, match="associativity"):
        algebra_from_structure_constants(F, c, [1, 0, 0], [[1, 0, 0]])


def test_unit_failure_detected():
    c = F.zeros(1, 1, 1)
    c[0, 0, 0] = 2
    with pytest.raises(AlgebraError, match="unit"):
        algebra_from_structure_constants(F, c, [1], [[1]])


def test_bad_idempotent_system_detected():
    k = ground_field_algebra(F)
    with pytest.raises(AlgebraError, match="idempotent"):
        algebra_from_structure_constants(F, k.mult, k.unit, [[2]])


# -- quivers -----------------------------------------------------------------


def test_a2_quiver_matches_triangular():
    q = QuiverPresentation(vertices=2, arrows=[(0, 1, "a")], path_length_bound=2)
    pa = algebra_from_quiver(q, F)
    t2 = build_triangular(ground_field_algebra(F), 2)
    assert pa.dim == t2.dim == 3
    # hand mapping: e1 -> E[1,1], e2 -> E[2,2], a -> E[2,1]
    perm = [pa.labels.index("e1"), pa.labels.index("a"), pa.labels.index("e2")]
    t2perm = [t2.labels.index("E[1,1]:0"), t2.labels.index("E[2,1]:0"), t2.labels.index("E[2,2]:0")]
    for x in range(3):
        for y in range(3):
            lhs = pa.mult[perm[x], perm[y]][perm]
            rhs = t2.mult[t2perm[x], t2perm[y]][t2perm]
            assert np.array_equal(lhs, rhs)


def test_preprojective_a2_basis():
    pp = preprojective_a2(F)
    assert pp.dim == 4
    assert set(pp.labels) == {"e1", "e2", "a", "b"}
    a = pp.element_from_label("a")
    b = pp.element_from_label("b")
    assert np.all(pp.multiply(a, b) == 0)
    assert np.all(pp.multiply(b, a) == 0)


def test_single_vertex_quiver_is_ground_field():
    q = QuiverPresentation(vertices=1, arrows=[], path_length_bound=1)
    assert algebra_from_quiver(q, F).dim == 1


def test_infinite_quiver_rejected():
    loop = QuiverPresentation(vertices=1, arrows=[(0, 0, "x")], path_length_bound=4)
    with pytest.raises(AlgebraError, match="finite"):
        algebra_from_quiver(loop, F)


def test_loop_with_relation_is_truncated_polynomials():
    q = QuiverPresentation(vertices=1, arrows=[(0, 0, "x")], monomial_relations=[("x", "x")], path_length_bound=2)
    alg = algebra_from_quiver(q, F)
    dn = dual_numbers_algebra(F)
    assert alg.dim == dn.dim == 2
    x1 = alg.element_from_label("x")
    assert np.all(alg.multiply(x1, x1) == 0)


# -- opposite / enveloping -----------------------------------------------------


def test_opposite_involution_and_commutative_fixed_point():
    dn = dual_numbers_algebra(F)
    assert np.array_equal(opposite(dn).mult, dn.mult)  # commutative
    t2 = build_triangular(ground_field_algebra(F), 2)
    assert np.array_equal(opposite(opposite(t2)).mult, t2.mult)
    assert opposite(t2).dim == 3


def test_opposite_is_built_once():
    t2 = build_triangular(ground_field_algebra(F), 2)
    assert opposite(t2) is opposite(t2)
    assert opposite(opposite(t2)) is t2


def test_same_as_identity_and_distinct_algebras():
    t2 = build_triangular(ground_field_algebra(F), 2)
    assert t2.same_as(t2)
    assert t2.same_as(build_triangular(ground_field_algebra(F), 2))
    op = opposite(t2)
    assert op.dim == t2.dim and not t2.same_as(op)


def test_opposite_of_triangular_is_transposed_table():
    t2 = build_triangular(ground_field_algebra(F), 2)
    op = opposite(t2)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(op.mult[i, j], t2.mult[j, i])


def test_enveloping_dimensions_and_unit():
    k = ground_field_algebra(F)
    dn = dual_numbers_algebra(F)
    pp = preprojective_a2(F)
    t2 = build_triangular(k, 2)
    assert enveloping(k, k).dim == 1
    ek = enveloping(dn, k)
    assert ek.dim == 2 and np.array_equal(ek.mult, dn.mult)
    assert enveloping(t2, pp).dim == 12
    assert len(enveloping(t2, pp).prim_idempotents) == 4


# -- corner and quotient ---------------------------------------------------------


def test_corner_at_unit_is_identity_transformation():
    t2 = build_triangular(ground_field_algebra(F), 2)
    e = Idempotent(t2, t2.unit)
    c, emb = corner(t2, e)
    assert c.dim == t2.dim
    # embedding is a basis of the whole algebra; multiplication agrees through it
    from ladderkit.linalg import solve

    x, y = F.asarray([1, 2, 3]), F.asarray([4, 0, 7])
    cx = solve(emb.matrix, x, F)
    cy = solve(emb.matrix, y, F)
    assert np.array_equal(F.matmul(emb.matrix, c.multiply(cx, cy).reshape(-1, 1))[:, 0], t2.multiply(x, y))


def test_corner_t2_at_e2_is_ground_field():
    t2 = build_triangular(ground_field_algebra(F), 2)
    c, _ = corner(t2, Idempotent(t2, t2.prim_idempotents[1]))
    assert c.dim == 1


def test_corner_of_prop32_ring_recovers_base():
    # the (2,2) corner of the block ring is the base algebra again
    dn = dual_numbers_algebra(F)
    ideal = F.asarray(dn.element_from_label("x")).reshape(2, 1)
    g = build_ideal_matrix_algebra(dn, ideal, 2)
    c, _ = corner(g, Idempotent(g, g.prim_idempotents[1]))
    assert c.dim == dn.dim == 2
    # local base: c has one primitive idempotent and a nilpotent
    assert len(c.prim_idempotents) == 1


def test_quotient_extremes():
    t2 = build_triangular(ground_field_algebra(F), 2)
    q0, _ = quotient_by_idempotent_ideal(t2, Idempotent(t2, t2.unit))
    assert q0.dim == 0
    qa, _ = quotient_by_idempotent_ideal(t2, Idempotent(t2, F.zeros(3)))
    assert qa.dim == 3
    assert np.array_equal(qa.mult, t2.mult)


def test_quotient_t2_by_e2_is_ground_field():
    t2 = build_triangular(ground_field_algebra(F), 2)
    q, proj = quotient_by_idempotent_ideal(t2, Idempotent(t2, t2.prim_idempotents[1]))
    assert q.dim == 1
    assert proj.ideal_rows.shape[0] == 2
    assert q.dim == t2.dim - proj.ideal_rows.shape[0]


# -- block matrix builders ----------------------------------------------------------


def test_triangular_dims_and_idempotents():
    k = ground_field_algebra(F)
    assert build_triangular(k, 1).dim == 1
    assert build_triangular(k, 2).dim == 3
    t3 = build_triangular(k, 3)
    assert t3.dim == 6
    assert len(t3.prim_idempotents) == 3


def test_triangular_equals_zero_ideal_matrix():
    k = ground_field_algebra(F)
    zero_ideal = F.zeros(1, 0)
    for n in (2, 3):
        a = build_triangular(k, n)
        b = build_ideal_matrix_algebra(k, zero_ideal, n)
        assert np.array_equal(a.mult, b.mult)
        assert np.array_equal(a.unit, b.unit)


def test_full_ideal_gives_matrix_algebra():
    k = ground_field_algebra(F)
    m2 = build_ideal_matrix_algebra(k, F.eye(1), 2)
    assert m2.dim == 4
    ref = matrix_units_2x2(F)
    # same dimension and semisimple structure; check the trace form is nondegenerate
    assert algebra_radical_rows(m2).shape[0] == 0
    assert algebra_radical_rows(ref).shape[0] == 0


def test_ideal_matrix_dimension_count():
    dn = dual_numbers_algebra(F)
    ideal = F.asarray(dn.element_from_label("x")).reshape(2, 1)
    g = build_ideal_matrix_algebra(dn, ideal, 2)
    assert g.dim == 2 + 1 + 2 + 2  # base, ideal, base, base


def test_non_ideal_rejected():
    t2 = build_triangular(ground_field_algebra(F), 2)
    # span{E11} is not a two-sided ideal (E21*E11 = E21 leaves it)
    bad = F.zeros(3, 1)
    bad[t2.labels.index("E[1,1]:0"), 0] = 1
    with pytest.raises(AlgebraError, match="ideal"):
        build_ideal_matrix_algebra(t2, bad, 2)


def test_non_chain_rejected():
    t2 = build_triangular(ground_field_algebra(F), 2)
    e21 = t2.element_from_label("E[2,1]:0")
    e22 = t2.element_from_label("E[2,2]:0")
    rad = F.asarray(e21).reshape(3, 1)
    big = np.stack([e21, e22], axis=1)
    with pytest.raises(AlgebraError, match="chain"):
        build_ideal_matrix_algebra(t2, [rad, big], 3)  # increasing, not decreasing


def test_morita_square_shape():
    k = ground_field_algebra(F)
    sq = build_morita_square(k)
    pp = preprojective_a2(F)
    assert sq.dim == 4 * k.dim
    assert np.array_equal(sq.mult, pp.mult)  # base = ground field: literally the quiver algebra
    dn = dual_numbers_algebra(F)
    sq2 = build_morita_square(dn)
    assert sq2.dim == 4 * dn.dim
    # the two diagonal idempotents (sums over the base factor) are orthogonal and sum to 1
    half = len(sq2.prim_idempotents) // 2
    d1 = F.normalize(sum(sq2.prim_idempotents[:half]))
    d2 = F.normalize(sum(sq2.prim_idempotents[half:]))
    assert np.all(sq2.multiply(d1, d2) == 0)
    assert np.array_equal(F.normalize(d1 + d2), sq2.unit)


def test_generators_generate():
    for alg in (build_triangular(ground_field_algebra(F), 3), preprojective_a2(F)):
        gens = alg.generators()
        assert gens.shape[1] == alg.dim
        assert alg._subalgebra_span(list(gens)).shape[0] == alg.dim


# -- generator closure against the pairwise squaring it replaced -----------------


def _subalgebra_span_reference(alg, gens):
    """Reduced rows of the subalgebra generated by gens, by squaring the span:
    all pairwise products of its basis, until it stops growing."""
    f = alg.field
    if not gens:
        return f.zeros(0, alg.dim)
    basis = rref(np.stack(gens), f)
    rows = basis.matrix[: basis.rank]
    while True:
        left = f.einsum("ai,ijk->ajk", rows, alg.mult)
        prods = f.einsum("bj,ajk->abk", rows, left).reshape(-1, alg.dim)
        r = rref(np.concatenate([rows, prods], axis=0), f)
        if r.rank == rows.shape[0]:
            return rows
        rows = r.matrix[: r.rank]


def _radical_square_rows(alg):
    """Reduced rows of J^2, from all pairwise products of J's rows."""
    f = alg.field
    j = algebra_radical_rows(alg)
    left = f.einsum("ai,ijk->ajk", j, alg.mult)
    r = rref(f.einsum("bj,ajk->abk", j, left).reshape(-1, alg.dim), f)
    return r.matrix[: r.rank]


def _radical_top_reference(alg):
    """Reduced rows of the elements of J that vanish on the pivot columns of
    rref(J^2): the complement of J^2 in J that generators() lifts J/J^2 to."""
    f = alg.field
    try:
        j = algebra_radical_rows(alg)
    except FieldRestrictionError:
        return f.zeros(0, alg.dim)
    sq = rref(_radical_square_rows(alg), f)
    coeffs = kernel_basis(j[:, list(sq.pivots)].T, f).T
    r = rref(f.matmul(coeffs, j), f)
    return r.matrix[: r.rank]


def _generators_reference(alg):
    """Algebra.generators' greedy search on the reference span: the lifts of
    a basis of J/J^2 first, then the basis vectors."""
    f = alg.field
    gens = [alg.unit] + list(alg.prim_idempotents)
    span = _subalgebra_span_reference(alg, gens)
    candidates = list(_radical_top_reference(alg))
    for t in range(alg.dim):
        v = f.zeros(alg.dim)
        v[t] = f.one
        candidates.append(v)
    for v in candidates:
        if span.shape[0] == alg.dim:
            break
        if not in_span(span, v, f):
            gens.append(v)
            span = _subalgebra_span_reference(alg, gens)
    assert span.shape[0] == alg.dim
    return f.asarray(np.stack(gens))


def _cyclic_nakayama(n, loewy, field):
    arrows = [(i, (i + 1) % n, f"a{i}") for i in range(n)]
    rels = [tuple(f"a{(i + k) % n}" for k in range(loewy)) for i in range(n)]
    return algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def _linear_nakayama(n, loewy, field):
    arrows = [(i, i + 1, f"a{i}") for i in range(n - 1)]
    rels = [tuple(f"a{i + k}" for k in range(loewy)) for i in range(n - loewy)]
    return algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def _local_kxy(field):
    loops = [(0, 0, "x"), (0, 0, "y")]
    rels = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    return algebra_from_quiver(QuiverPresentation(1, loops, rels, path_length_bound=2), field)


_FIXTURE_DIMS = {"t2": 3, "t3": 6, "preproj-a2": 4, "prop32-dual-numbers": 7, "morita-square-k": 4, "m2k": 4, "ideal-chain": 22}


def _closure_corpus(field, max_dim):
    """The fixtures, t_2..t_8, three cyclic and one linear Nakayama algebra and
    k[x,y]/(x,y)^2, with their opposites, two corners each and enveloping
    algebras, of dimension at most max_dim.  Pairs (algebra, searched):
    tensor products (enveloping algebras, the Morita square) are handed
    their factors' generators, opposites share them, the rest search."""
    k = ground_field_algebra(field)
    # (dimension, builder): only what fits within max_dim is built
    builders = [(_FIXTURE_DIMS[name], lambda name=name: load_fixture(name, field)[0]) for name in RECOLLEMENT_FIXTURES]
    builders += [(n * (n + 1) // 2, lambda n=n: build_triangular(k, n)) for n in range(2, 9)]
    builders += [
        (12, lambda: _cyclic_nakayama(3, 4, field)),  # paths of length 3 within the Q cap
        (20, lambda: _cyclic_nakayama(5, 4, field)),
        (30, lambda: _cyclic_nakayama(6, 5, field)),
        (27, lambda: _linear_nakayama(10, 3, field)),
        (3, lambda: _local_kxy(field)),
    ]
    out = []
    for dim, build in builders:
        if dim > max_dim:
            continue
        a = build()
        assert a.dim == dim
        idems = [a.prim_idempotents[-1]]
        if len(a.prim_idempotents) > 1:
            idems.append(field.normalize(a.unit - a.prim_idempotents[0]))
        corners = [corner(a, Idempotent(a, e))[0] for e in idems]
        # flags first: building a product computes its factors' generators;
        # the opposite reads its partner's from the store they share
        out += [(x, "generators" not in x._shared) for x in [a, *corners]] + [(opposite(a), False)]
        out += [(enveloping(c, a), False) for c in corners if c.dim * a.dim <= max_dim]
        if a.dim * a.dim <= max_dim:
            out.append((enveloping(a, a), False))
    return out


@pytest.mark.parametrize("field, max_dim", [(Field(101), 66), (Field(32749), 66), (Field(None), 22)], ids=["F101", "F32749", "Q"])
def test_generator_closure_matches_pairwise_squaring(field, max_dim):
    algebras = _closure_corpus(field, max_dim)
    assert len(algebras) > 40
    for alg, searched in algebras:
        gens = alg.generators()
        if searched:
            assert np.array_equal(gens, _generators_reference(alg)), alg
        # spans at the start, middle and end of the greedy search, and the
        # idempotents' alone (no unit among the generators)
        start = 1 + len(alg.prim_idempotents)
        for sub in (gens[:start], gens[: (start + len(gens)) // 2], gens, alg.prim_idempotents):
            got = alg._subalgebra_span(list(sub))
            assert np.array_equal(got, _subalgebra_span_reference(alg, list(sub))), (alg, len(sub))
    assert sum(searched for _, searched in algebras) > 30


@pytest.mark.parametrize("field, max_dim", [(Field(101), 66), (Field(None), 22)], ids=["F101", "Q"])
def test_generators_beyond_idempotents_lift_a_basis_of_the_radical_top(field, max_dim):
    # over a basic algebra (A/J = k^n, n the number of distinguished
    # idempotents) the idempotents and any lift of a basis of J/J^2 generate,
    # and the search finds exactly that many further generators; m2k and the
    # algebras built on it have J = 0 but are not basic.  Tensor products are
    # handed their factors' generators, g (x) 1 with g (x) e_j inside, so they
    # may need fewer
    checked = 0
    for alg, searched in _closure_corpus(field, max_dim):
        if not searched:
            continue
        j = algebra_radical_rows(alg)
        if alg.dim - j.shape[0] != len(alg.prim_idempotents):
            continue
        top = j.shape[0] - _radical_square_rows(alg).shape[0]
        assert len(alg.generators_beyond_idempotents()) == top, alg
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("n, p", [(3, 5), (4, 3)])
def test_generators_without_the_trace_form_still_generate(n, p):
    # p <= dim puts the radical out of reach: the candidates are the basis vectors
    field = Field(p)
    alg = build_triangular(ground_field_algebra(field), n)
    with pytest.raises(FieldRestrictionError):
        algebra_radical_rows(alg)
    gens = alg.generators()
    assert alg._subalgebra_span(list(gens)).shape[0] == alg.dim
    assert np.array_equal(gens, _generators_reference(alg))


def _beyond_idempotents_reference(alg):
    """The filter generators_beyond_idempotents used before it became a
    slice: the generators outside the span of the distinguished idempotents."""
    f = alg.field
    gens = alg.generators()
    if alg.prim_idempotents:
        r = rref(np.stack(alg.prim_idempotents), f)
        gens = [g for g in gens if not in_span(r.matrix[: r.rank], g, f)]
    return f.asarray(np.stack(gens)) if len(gens) else f.zeros(0, alg.dim)


@pytest.mark.parametrize("field, max_dim", [(Field(101), 66), (Field(None), 12)], ids=["F101", "Q"])
def test_generators_beyond_idempotents_match_the_span_filter(field, max_dim):
    algebras = _closure_corpus(field, max_dim)
    assert any(not searched for _, searched in algebras)  # products and opposites included
    for alg, _ in algebras:
        got, want = alg.generators_beyond_idempotents(), _beyond_idempotents_reference(alg)
        assert got.shape == want.shape and np.array_equal(got, want), alg
        assert np.array_equal(alg.generators()[: 1 + len(alg.prim_idempotents)], np.stack([alg.unit, *alg.prim_idempotents]))


_STORE_CASES = {
    "t3": lambda: load_fixture("t3", F)[0],
    "morita-square-k": lambda: load_fixture("morita-square-k", F)[0],
    "enveloping": lambda: enveloping(load_fixture("t2", F)[0], load_fixture("t3", F)[0]),
}


@pytest.mark.parametrize("opposite_first", [True, False], ids=["opposite-first", "opposite-after"])
@pytest.mark.parametrize("name", sorted(_STORE_CASES))
def test_opposite_shares_generators_radical_and_simple_classes(name, opposite_first):
    a = _STORE_CASES[name]()
    op = opposite(a) if opposite_first else None
    derived = [a.generators(), algebra_radical_rows(a), _simple_classes(a)]
    op = op or opposite(a)
    assert op.generators() is derived[0]
    assert algebra_radical_rows(op) is derived[1]
    assert _simple_classes(op) is derived[2]
    # what the opposite would derive on its own: the same radical rows and
    # simple classes, and the shared generators generate it
    alone = Algebra(F, op.mult, op.unit, op.prim_idempotents, _validate=False)
    assert np.array_equal(algebra_radical_rows(alone), derived[1])
    assert _simple_classes(alone) == derived[2]
    assert alone._subalgebra_span(list(derived[0])).shape[0] == a.dim


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_corner_coordinates_match_solve(name):
    alg, default_e = load_fixture(name, F)
    for e in [parse_idempotent(alg, default_e)] + [Idempotent(alg, ei) for ei in alg.prim_idempotents]:
        sub, emb = corner(alg, e)
        assert np.array_equal(sub.unit, solve(emb.matrix, e.element, F))
        absorbed = [ei for ei in alg.prim_idempotents if F.equal(alg.multiply(e.element, ei), ei)]
        assert len(sub.prim_idempotents) == len(absorbed) > 0
        for got, ei in zip(sub.prim_idempotents, absorbed):
            assert np.array_equal(got, solve(emb.matrix, ei, F))


def test_dimension_bound_rejects_before_allocating():
    t7 = build_triangular(ground_field_algebra(F), 7)  # dim 28
    huge = np.broadcast_to(np.int64(0), (DIM_BOUND + 1,) * 3)  # a view: no memory behind it
    tracemalloc.start()
    try:
        with pytest.raises(AlgebraError, match="784 exceeds 512"):
            enveloping(t7, t7)
        with pytest.raises(AlgebraError, match="513 exceeds 512"):
            Algebra(F, huge, np.zeros(DIM_BOUND + 1, dtype=np.int64), [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("field", [Field(101), Field(None)], ids=["F101", "Q"])
@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_quotient_structure_matches_triple_contraction(name, field):
    # A/AeA multiplies by restricting A's structure constants to the kept
    # coordinates; the reference takes the section through the full product
    alg = load_fixture(name, field)[0]
    for ei in alg.prim_idempotents:
        quo, qp = quotient_by_idempotent_ideal(alg, Idempotent(alg, ei))
        prods = field.einsum("ia,jb,ijk->abk", qp.section, qp.section, alg.mult)
        assert np.array_equal(quo.mult, field.einsum("abk,tk->abt", prods, qp.projection)), (name, ei)
