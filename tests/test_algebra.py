import tracemalloc
from collections import Counter
from fractions import Fraction

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
from ladderkit.fixtures import fixture_names, load_fixture, parse_idempotent
from ladderkit.linalg import DIM_BOUND, Field, in_span, kernel_basis, rank, rref, solve, solve_matrix
from ladderkit.modules import _simple_classes
from ladderkit.recollement import build_recollement
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
    with pytest.raises(AlgebraError, match=r"^associativity fails at basis triple \(i=1, x=1, j=1\)$"):
        algebra_from_structure_constants(F, c, [1, 0, 0], [[1, 0, 0]])
    # the reported triple is a failing one: (b_1 b_1) b_1 = b_2 b_1 = b_1, b_1 (b_1 b_1) = b_1 b_2 = 0
    alg = Algebra(F, c, [1, 0, 0], [[1, 0, 0]], _validate=False)
    b = F.eye(3)
    assert not F.equal(alg.multiply(alg.multiply(b[1], b[1]), b[1]), alg.multiply(b[1], alg.multiply(b[1], b[1])))


def test_unit_failure_detected():
    c = F.zeros(1, 1, 1)
    c[0, 0, 0] = 2
    with pytest.raises(AlgebraError, match="unit"):
        algebra_from_structure_constants(F, c, [1], [[1]])


def test_bad_idempotent_system_detected():
    k = ground_field_algebra(F)
    with pytest.raises(AlgebraError, match="idempotent"):
        algebra_from_structure_constants(F, k.mult, k.unit, [[2]])


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_idempotent_system_errors_name_the_first_failing_pair(field):
    t3 = build_triangular(ground_field_algebra(field), 3)
    e1, e2, e3 = t3.prim_idempotents
    cases = [
        ([e1, e2, e2], "idempotent system fails at pair (1, 2)"),  # e2 e2 = e2, not 0; the sum is wrong too
        ([e1, e3, field.normalize(e2 + e3)], "idempotent system fails at pair (1, 2)"),  # e3 (e2 + e3) = e3
        ([e3, e2, field.normalize(e1 + e1)], "idempotent system fails at pair (2, 2)"),  # (2 e1)^2 = 4 e1
        ([e1, e2], "idempotents do not sum to the unit"),
        ([e3, e1], "idempotents do not sum to the unit"),
    ]
    for idems, message in cases:
        alg = Algebra(field, t3.mult, t3.unit, idems, _validate=False)
        assert _validate_reference(alg) == message
        with pytest.raises(AlgebraError) as err:
            algebra_from_structure_constants(field, t3.mult, t3.unit, idems)
        assert str(err.value) == message
    algebra_from_structure_constants(field, t3.mult, t3.unit, [e2, e3, e1])  # any order passes


# -- the support check against the dense one -----------------------------------


def _validate_reference(alg):
    """The dense check _validate ran before it restricted associativity to
    the support of each L_i: 2 d^5 operations, then k^2 products of
    idempotents.  Returns the error message it raises, or None."""
    f, d = alg.field, alg.dim
    if d == 0:
        return "zero algebra cannot carry idempotents" if alg.prim_idempotents else None
    ident = f.eye(d)
    if not f.equal(alg.left_mult_matrix(alg.unit), ident):
        return "unit fails unit*b_i = b_i"
    if not f.equal(alg.right_mult_matrix(alg.unit), ident):
        return "unit fails b_i*unit = b_i"
    for i in range(d):
        li = alg.left_mult[i]
        lhs = f.matmul(alg.right_mult, li)
        rhs = f.matmul(li[None, :, :], alg.right_mult)
        if not f.equal(lhs, rhs):
            j = next(j for j in range(d) if not f.equal(lhs[j], rhs[j]))
            x = int(np.nonzero(f.normalize(lhs[j] - rhs[j]))[1][0])
            return f"associativity fails at basis triple (i={i}, x={x}, j={j})"
    if not alg.prim_idempotents:
        return "a complete system of primitive idempotents is required"
    total = f.zeros(d)
    for a, ea in enumerate(alg.prim_idempotents):
        total = f.normalize(total + ea)
        for b, eb in enumerate(alg.prim_idempotents):
            if not f.equal(alg.multiply(ea, eb), ea if a == b else f.zeros(d)):
                return f"idempotent system fails at pair ({a}, {b})"
    if not f.equal(total, alg.unit):
        return "idempotents do not sum to the unit"
    return None


def _validate_message(alg):
    try:
        alg._validate()
    except AlgebraError as err:
        return str(err)
    return None


def _rejecting_comparisons(alg, i):
    """Which of _validate's three comparisons fail at i, read off the dense
    pair R_j L_i, L_i R_j.  Both vanish where the row k is not a row of L_i
    and the column x not a column of it; a difference at a row and a column
    of L_i is the core block, one off its rows is R_j L_i there, one off its
    columns is L_i R_j there."""
    f = alg.field
    li = alg.left_mult[i]
    rows, cols = (li != 0).any(1), (li != 0).any(0)
    diff = f.normalize(f.matmul(alg.right_mult, li) - f.matmul(li[None, :, :], alg.right_mult)) != 0  # [j, k, x]
    assert not diff[:, ~rows][:, :, ~cols].any()
    parts = {"core": diff[:, rows][:, :, cols], "lhs off rows": diff[:, ~rows], "rhs off cols": diff[:, rows][:, :, ~cols]}
    return frozenset(name for name, part in parts.items() if part.any())


def _assert_same_verdict(alg, seen):
    """The support check and the dense one raise the same message, or neither
    raises; an associativity failure is filed under the comparisons that
    reject it."""
    got, want = _validate_message(alg), _validate_reference(alg)
    assert got == want, (alg, got, want)
    if got is not None and got.startswith("associativity"):
        seen[_rejecting_comparisons(alg, int(got.split("i=")[1].split(",")[0]))] += 1
    return got is None


def _entry(field, rng):
    """A nonzero field element: signed fractions over Q."""
    if field.p is None:
        return Fraction(int(rng.integers(1, 6)) * int(rng.choice([-1, 1])), int(rng.integers(1, 4)))
    return int(rng.integers(1, field.p))


def _random_unital(field, d, density, rng):
    """b_0 is the unit; each structure constant of b_i b_j (i, j >= 1) is
    nonzero with the given probability."""
    c = field.zeros(d, d, d)
    for j in range(d):
        c[0, j, j] = c[j, 0, j] = field.one
    for idx in zip(*np.nonzero(rng.random((d - 1, d - 1, d)) < density)):
        c[idx[0] + 1, idx[1] + 1, idx[2]] = _entry(field, rng)
    unit = field.zeros(d)
    unit[0] = field.one
    # the unit alone, or b_1 and 1 - b_1: the idempotent check runs where associativity holds
    b1 = field.eye(d)[1]
    idems = [unit] if rng.random() < 0.5 else [b1, field.normalize(unit - b1)]
    return Algebra(field, c, unit, idems, _validate=False)


def _dense_basis_change(alg, rng):
    """alg in a random basis b'_a = sum_i t[i, a] b_i: dense structure constants."""
    f, d = alg.field, alg.dim
    t = f.asarray(rng.integers(0, f.p, size=(d, d)))
    while rank(t, f) < d:
        t = f.asarray(rng.integers(0, f.p, size=(d, d)))
    tinv = solve_matrix(t, f.eye(d), f)
    c = f.matmul(f.einsum("ia,jb,ijk->abk", t, t, alg.mult), tinv.T)
    return Algebra(f, c, f.matmul(tinv, alg.unit), [f.matmul(tinv, e) for e in alg.prim_idempotents], _validate=False)


def _resolution_corpus(field):
    """The resolutions workload's algebras on their unpermuted bases."""
    k = ground_field_algebra(field)
    out = [build_triangular(k, n) for n in range(2, 9)]
    out += [_linear_nakayama(n, loewy, field) for n, loewy in [(6, 2), (8, 2), (10, 2), (8, 3), (10, 3)]]
    return out + [_local_kxy(field)]


def _with_corners_and_quotients(algebras):
    """Each algebra, then its corner and quotient at the first and the last vertex."""
    out = []
    for a in algebras:
        out.append(a)
        for ei in {0: a.prim_idempotents[0], 1: a.prim_idempotents[-1]}.values():
            e = Idempotent(a, ei)
            out += [corner(a, e)[0], quotient_by_idempotent_ideal(a, e)[0]]
    return [a for a in out if a.dim]


def _mutants(alg, count, rng):
    """count single-entry mutants (one structure constant plus one) at
    random positions, and count that make a zero product b_i b_j nonzero."""
    f = alg.field
    positions = [tuple(int(t) for t in np.unravel_index(rng.integers(alg.mult.size), alg.mult.shape)) for _ in range(count)]
    zero_pairs = np.argwhere((alg.mult == 0).all(2))
    for i, j in zero_pairs[rng.permutation(len(zero_pairs))[:count]]:
        positions.append((int(i), int(j), int(rng.integers(alg.dim))))
    for idx in positions:
        c = alg.mult.copy()
        c[idx] = f.normalize(c[idx] + f.one)
        yield Algebra(f, c, alg.unit, alg.prim_idempotents, _validate=False)


# each comparison alone rejects some algebra: none of the three is redundant
_EACH_COMPARISON_ALONE = {frozenset({"core"}), frozenset({"lhs off rows"}), frozenset({"rhs off cols"})}


@pytest.mark.parametrize("field", [Field(3), F, Field(None)], ids=["F3", "F101", "Q"])
def test_support_check_matches_dense_check_on_random_constants(field):
    rng = np.random.default_rng(31)
    seen = Counter()
    verdicts = []
    for density in (0.05, 0.1, 0.2, 0.5, 1.0):
        for d in range(2, 7):
            for _ in range(8):
                alg = _random_unital(field, d, density, rng)
                verdicts.append(_assert_same_verdict(alg, seen))
                if verdicts[-1]:  # mutate what passes
                    for m in _mutants(alg, 4, rng):
                        _assert_same_verdict(m, seen)
    assert 10 < sum(verdicts) < len(verdicts) - 10
    assert _EACH_COMPARISON_ALONE <= set(seen), seen


@pytest.mark.parametrize("field, max_dim", [(F, 66), (Field(None), 7)], ids=["F101", "Q"])
def test_support_check_matches_dense_check_on_mutants(field, max_dim):
    # single-entry mutants of the fixtures, the resolutions workload's
    # algebras, their corners and quotients, and (F_101) the fixtures in a
    # dense random basis
    rng = np.random.default_rng(32)
    algebras = [load_fixture(name, field)[0] for name in RECOLLEMENT_FIXTURES]
    if field.p is not None:
        algebras += _resolution_corpus(field)
    algebras = [a for a in _with_corners_and_quotients(algebras) if a.dim <= max_dim]
    if field.p is not None:
        algebras += [_dense_basis_change(a, rng) for a in algebras if a.dim <= 7]
    seen = Counter()
    mutants = rejected = 0
    for alg in algebras:
        assert _assert_same_verdict(alg, seen)
        for m in _mutants(alg, 16 if alg.dim <= 12 else 6, rng):
            rejected += not _assert_same_verdict(m, seen)
            mutants += 1
    assert mutants > (300 if field.p is None else 2000)
    # most mutants break the unit axioms first; those that keep them reach associativity
    assert rejected > mutants // 2 and sum(seen.values()) > mutants // 20
    assert _EACH_COMPARISON_ALONE <= set(seen), seen


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


def _generators_reference(alg, span_of=_subalgebra_span_reference):
    """Algebra.generators' greedy search, by default on the reference span:
    the lifts of a basis of J/J^2 first, then the basis vectors, each added
    with a closure of its own unless the span already holds it."""
    f = alg.field
    gens = [alg.unit] + list(alg.prim_idempotents)
    span = span_of(alg, gens)
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
            span = span_of(alg, gens)
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


def _permuted(alg, perm):
    """The same algebra in the basis b'_i = b_perm[i]."""
    mult = alg.mult[np.ix_(perm, perm, perm)]
    return algebra_from_structure_constants(alg.field, mult, alg.unit[perm], [e[perm] for e in alg.prim_idempotents])


def _one_closure_corpus(field):
    """Every fixture with its opposite, and its corner and its nonzero
    quotient at the default idempotent."""
    out = []
    for name in fixture_names():
        a, default_e = load_fixture(name, field)
        out += [a, opposite(a)]
        if default_e is not None:
            e = parse_idempotent(a, default_e)
            out += [corner(a, e)[0], quotient_by_idempotent_ideal(a, e)[0]]
    return [a for a in out if a.dim]


def _resolutions_corpus_permuted(field, seed):
    """The algebras of the resolutions benchmark, each in a seeded basis order."""
    k = ground_field_algebra(field)
    algebras = [build_triangular(k, n) for n in range(2, 9)]
    algebras += [_linear_nakayama(n, loewy, field) for n, loewy in [(6, 2), (8, 2), (10, 2), (8, 3), (10, 3)]]
    algebras.append(_local_kxy(field))
    rng = np.random.default_rng(seed)
    return [_permuted(a, rng.permutation(a.dim)) for a in algebras]


@pytest.mark.parametrize("field", [Field(3), Field(5), Field(101), Field(None)], ids=["F3", "F5", "F101", "Q"])
def test_one_closure_over_all_lifts_matches_the_greedy_lift_loop(field):
    # one closure over the idempotents and all the lifts of a basis of J/J^2
    # gives the rows of the loop that closed once per lift; over F_3 and F_5
    # most of the corpus has p <= dim, where only basis vectors are searched
    algebras = _one_closure_corpus(field)
    if field.p == 101:
        algebras += _resolutions_corpus_permuted(field, 5)
    for alg in algebras:
        gens = alg.generators()
        assert np.array_equal(gens, _generators_reference(alg, span_of=Algebra._subalgebra_span)), alg
        assert alg._subalgebra_span(list(gens)).shape[0] == alg.dim, alg
    assert len(algebras) == (29 + 13 if field.p == 101 else 29)


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


def _absorbed_reference(a, e):
    """The loop corner ran before it read the absorbed idempotents from one
    contraction: e_i with e e_i = e_i = e_i e, in order."""
    f = a.field
    return [ei for ei in a.prim_idempotents if f.equal(a.multiply(e, ei), ei) and f.equal(a.multiply(ei, e), ei)]


@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_corner_coordinates_match_solve(name):
    # the default idempotent and every sum of distinguished ones
    alg, default_e = load_fixture(name, F)
    k = len(alg.prim_idempotents)
    sums = [sum((alg.prim_idempotents[t] for t in range(k) if mask >> t & 1), F.zeros(alg.dim)) for mask in range(1, 2**k)]
    for e in [parse_idempotent(alg, default_e)] + [Idempotent(alg, F.normalize(v)) for v in sums]:
        sub, emb = corner(alg, e)
        assert np.array_equal(sub.unit, solve(emb.matrix, e.element, F))
        absorbed = _absorbed_reference(alg, e.element)
        assert len(sub.prim_idempotents) == len(absorbed) > 0
        for got, ei in zip(sub.prim_idempotents, absorbed):
            assert np.array_equal(got, solve(emb.matrix, ei, F))


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
def test_corner_rejects_idempotents_that_absorb_no_distinguished_one(field):
    # E11 + E21 and E22 + E21 in t2 are idempotents that absorb no
    # distinguished idempotent; the second absorbs E22 on one side only
    t2 = load_fixture("t2", field)[0]
    e11, e21, e22 = (t2.element_from_label(f"E[{s}]:0") for s in ("1,1", "2,1", "2,2"))
    for e in (field.normalize(e11 + e21), field.normalize(e22 + e21)):
        assert _absorbed_reference(t2, e) == []
        with pytest.raises(AlgebraError, match="sum of distinguished primitive idempotents"):
            corner(t2, Idempotent(t2, e))
    assert field.equal(t2.multiply(e, e22), e22) and not field.equal(t2.multiply(e22, e), e22)


@pytest.mark.parametrize("field", [F, Field(None)], ids=["F101", "Q"])
@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_enveloping_vectors_match_kron(name, field):
    # the unit, idempotents and generators of G (x) L^op and L (x) G^op are
    # the np.kron products of the factors' vectors
    alg, default_e = load_fixture(name, field)
    rec = build_recollement(alg, parse_idempotent(alg, default_e))
    for a, b in [(rec.gamma, rec.lam), (rec.lam, rec.gamma)]:
        env = enveloping(a, b)
        unit = field.normalize(np.kron(a.unit, b.unit))
        idems = [field.normalize(np.kron(x, y)) for x in a.prim_idempotents for y in b.prim_idempotents]
        rest = [np.kron(g, b.unit) for g in a.generators_beyond_idempotents()]
        rest += [np.kron(a.unit, g) for g in b.generators_beyond_idempotents()]
        assert env.unit.dtype == unit.dtype and np.array_equal(env.unit, unit)
        assert len(env.prim_idempotents) == len(idems)
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(env.prim_idempotents, idems))
        gens = env.generators()
        assert np.array_equal(gens, field.asarray(np.stack([unit, *idems, *(field.normalize(g) for g in rest)])))


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
