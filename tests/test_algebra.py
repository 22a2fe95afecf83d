import numpy as np
import pytest

from ladderkit.algebra import (
    AlgebraError,
    Algebra,
    Idempotent,
    QuiverPresentation,
    algebra_from_quiver,
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
from ladderkit.linalg import Field

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
    from ladderkit.modules import algebra_radical_rows

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
