import re
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from ladderkit.algebra import preprojective_a2
from ladderkit.linalg import (
    SMALL_RREF_CELLS,
    DimensionMismatch,
    Field,
    _rref_numpy,
    _rref_rows,
    block_diag,
    column_space_basis,
    intersect_kernels,
    kernel_and_section,
    kernel_basis,
    quotient_coordinates,
    rank,
    rref,
    solve,
    solve_matrix,
    unit_rows,
)
from ladderkit.modules import module_span_rows, random_module

F101 = Field(101)
F5 = Field(5)
Q = Field(None)


def test_field_rejects_composite():
    with pytest.raises(ValueError):
        Field(15)
    with pytest.raises(ValueError):
        Field(2)


def test_field_rejects_primes_beyond_int64_bound():
    with pytest.raises(ValueError):
        Field(2147483647)
    with pytest.raises(ValueError):
        Field(32771)  # the first prime above 2^15


def test_matmul_exact_at_largest_accepted_prime():
    f = Field(32749)  # the largest prime below 2^15
    p = f.p
    for k in (4, 512):
        row = f.asarray([[p - 1] * k])
        got = f.matmul(row, row.T)
        assert int(got[0, 0]) == sum((p - 1) * (p - 1) for _ in range(k)) % p


def _asarray_q_reference(data):
    """Field.asarray over Q before it returned Fraction input as copied: every
    entry wrapped in Fraction again."""
    a = np.array(data, dtype=object, copy=True)
    flat = a.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = Fraction(v)
    return flat.reshape(a.shape)


def test_asarray_q_returns_a_fresh_array():
    src = Q.asarray([[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(5, 7)]])
    before = src.copy()
    got = Q.asarray(src)
    assert got is not src and not np.shares_memory(got, src)
    got.setflags(write=False)
    assert src.flags.writeable
    src[0, 0] = Fraction(9)
    assert got[0, 0] == Fraction(1, 2)
    src[0, 0] = before[0, 0]
    got = Q.asarray(src)
    got[1, 1] = Fraction(4)
    assert np.array_equal(src, before)


def test_asarray_q_converts_mixed_integers_and_fractions():
    data = [[1, np.int64(-2), Fraction(3, 4)], [np.int64(0), 7, Fraction(-1, 3)]]
    got = Q.asarray(data)
    assert got.dtype == object and got.shape == (2, 3)
    assert all(type(x) is Fraction for x in got.flat)
    assert got.tolist() == [[1, -2, Fraction(3, 4)], [0, 7, Fraction(-1, 3)]]
    assert all(type(x) is Fraction for x in Q.asarray(np.arange(6, dtype=np.int64).reshape(2, 3)).flat)
    assert Q.asarray(np.empty((0, 3), dtype=object)).shape == (0, 3)


def test_asarray_q_fraction_input_matches_the_entry_loop():
    rng = np.random.default_rng(31)
    for shape in [(0,), (5,), (3, 4), (2, 3, 4), (4, 0, 2)]:
        for mixed in (False, True):
            nums, dens = rng.integers(-9, 10, size=shape), rng.integers(1, 7, size=shape)
            data = np.empty(shape, dtype=object)
            for idx in np.ndindex(*shape):
                data[idx] = Fraction(int(nums[idx]), int(dens[idx]))
                if mixed and rng.random() < 0.3:
                    data[idx] = int(nums[idx]) if rng.random() < 0.5 else np.int64(nums[idx])
            got, want = Q.asarray(data), _asarray_q_reference(data)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert all(type(x) is Fraction for x in got.flat)


def test_rref_identity():
    ident = F101.eye(3)
    r = rref(ident, F101)
    assert np.array_equal(r.matrix, ident)
    assert r.pivots == (0, 1, 2)
    assert r.rank == 3


def test_rref_zero():
    z = F101.zeros(2, 4)
    r = rref(z, F101)
    assert np.array_equal(r.matrix, z)
    assert r.pivots == ()
    assert r.rank == 0


def test_rref_rank_one_over_q():
    # [[1,2],[2,4]] row-reduces to [[1,2],[0,0]] by hand
    m = Q.asarray([[1, 2], [2, 4]])
    r = rref(m, Q)
    assert r.rank == 1
    assert np.array_equal(r.matrix, Q.asarray([[1, 2], [0, 0]]))


def test_kernel_identity_empty():
    assert kernel_basis(F101.eye(4), F101).shape == (4, 0)


def test_kernel_zero_full():
    k = kernel_basis(F101.zeros(3, 3), F101)
    assert k.shape == (3, 3)
    assert np.all(F101.matmul(F101.zeros(3, 3), k) == 0)


def test_kernel_sum_condition_f5():
    # x0 + x1 = 0 over F_5: kernel spanned by (1, 4), solved by hand
    k = kernel_basis(F5.asarray([[1, 1]]), F5)
    assert k.shape == (2, 1)
    v = k[:, 0]
    assert (int(v[0]) + int(v[1])) % 5 == 0
    assert not np.all(v == 0)


@pytest.mark.parametrize("field", [F101, F5, Q], ids=["F101", "F5", "Q"])
def test_kernel_and_section_of_full_row_rank(field):
    rng = np.random.default_rng(15)
    for m, n in [(0, 3), (1, 1), (2, 5), (3, 3), (4, 9), (6, 8)]:
        while True:
            a = field.asarray(rng.integers(0, 5, size=(m, n)) * (rng.random((m, n)) < 0.6))
            if rank(a, field) == m:
                break
        kernel, section = kernel_and_section(a, field)
        assert kernel.dtype == a.dtype and np.array_equal(kernel, kernel_basis(a, field))
        assert section.shape == (n, m) and field.equal(field.matmul(a, section), field.eye(m))
        assert np.array_equal(section, solve_matrix(a, field.eye(m), field))
    with pytest.raises(DimensionMismatch):
        kernel_and_section(field.asarray([[1, 2], [2, 4]]), field)


@pytest.mark.parametrize("field", [F101, Q], ids=["F101", "Q"])
def test_block_diag_matches_scipy(field):
    from scipy.linalg import block_diag as scipy_block_diag

    rng = np.random.default_rng(16)
    shapes = [(2, 3), (0, 2), (1, 1), (3, 0), (2, 2)]
    blocks = [field.asarray(rng.integers(0, 9, size=(4,) + s)) for s in shapes]
    got = block_diag(field, blocks)
    assert got.dtype == blocks[0].dtype and got.shape == (4, 8, 8)
    for k in range(4):
        want = scipy_block_diag(*[b[k].astype(object) for b in blocks])
        assert np.array_equal(got[k], want)


def test_solve_identity():
    b = F101.asarray([3, 7, 1])
    x = solve(F101.eye(3), b, F101)
    assert np.array_equal(x, b)


def test_solve_inconsistent():
    assert solve(F101.zeros(2, 2), F101.asarray([1, 0]), F101) is None


def test_solve_scalar_inverse_f5():
    # 2x = 1 over F_5 has x = 3
    x = solve(F5.asarray([[2]]), F5.asarray([1]), F5)
    assert x is not None and int(x[0]) == 3


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(F101.eye(3), F101.asarray([1, 2]), F101)


def test_kron_identities():
    assert np.array_equal(F101.normalize(np.kron(F101.eye(2), F101.eye(3))), F101.eye(6))
    assert np.all(F101.normalize(np.kron(F101.zeros(2, 2), F101.eye(2))) == 0)
    assert np.array_equal(Q.normalize(np.kron(Q.asarray([[2]]), Q.asarray([[3]]))), Q.asarray([[6]]))


def _random_matrix(data, field, rows, cols):
    entries = data.draw(st.lists(st.integers(0, 100), min_size=rows * cols, max_size=rows * cols))
    return field.asarray(np.array(entries).reshape(rows, cols))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_idempotent_and_rank_nullity(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    m = _random_matrix(data, F101, rows, cols)
    r = rref(m, F101)
    again = rref(r.matrix, F101)
    assert np.array_equal(again.matrix, r.matrix)
    assert again.rank == r.rank
    k = kernel_basis(m, F101)
    assert r.rank + k.shape[1] == cols
    assert np.all(F101.matmul(m, k) == 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_exactness(data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    m = _random_matrix(data, F101, rows, cols)
    xs = _random_matrix(data, F101, cols, 1)
    b = F101.matmul(m, xs)[:, 0]
    x = solve(m, b, F101)
    assert x is not None
    assert np.array_equal(F101.matmul(m, x.reshape(-1, 1))[:, 0], b)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kron_associative_up_to_reindexing(data):
    a = _random_matrix(data, F101, 2, 2)
    b = _random_matrix(data, F101, 3, 3)
    c = _random_matrix(data, F101, 2, 2)
    left = F101.normalize(np.kron(np.kron(a, b), c))
    right = F101.normalize(np.kron(a, np.kron(b, c)))
    # lexicographic ordering makes the reindexing bijection the identity
    assert np.array_equal(left, right)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kron_acts_on_pure_tensors(data):
    a = _random_matrix(data, F101, 3, 2)
    b = _random_matrix(data, F101, 2, 3)
    x = _random_matrix(data, F101, 2, 1)
    y = _random_matrix(data, F101, 3, 1)
    lhs = F101.matmul(F101.normalize(np.kron(a, b)), F101.normalize(np.kron(x, y)))
    rhs = F101.normalize(np.kron(F101.matmul(a, x), F101.matmul(b, y)))
    assert np.array_equal(lhs, rhs)


def test_kernel_intersection():
    mats = [F101.asarray([[1, 1, 0]]), F101.asarray([[0, 1, 1]])]
    k = intersect_kernels(mats, 3, F101)
    assert k.shape[1] == 1
    for m2 in mats:
        assert np.all(F101.matmul(m2, k) == 0)


def test_rational_solve_exact():
    m = Q.asarray([[1, 2], [3, 5]])
    b = Q.asarray([Fraction(1, 3), Fraction(2, 7)])
    x = solve(m, b, Q)
    assert x is not None
    assert np.array_equal(Q.matmul(m, x.reshape(-1, 1))[:, 0], b)


# -- coordinates on reduced bases -------------------------------------------------


def _left_inverse_reference(a, field):
    """X with X @ a = I for a matrix of full column rank, from the rref of
    [a | I]: the engine's left inverse before coordinates were read off
    reduced bases."""
    nrows, ncols = a.shape
    r = rref(np.concatenate([field.normalize(np.array(a, copy=True)), field.eye(nrows)], axis=1), field)
    if len([p for p in r.pivots if p < ncols]) != ncols:
        raise DimensionMismatch("matrix does not have full column rank")
    return r.matrix[:ncols, ncols:]


def _engine_bases(field, rng):
    """Bases as the engine builds them: column spaces, kernels, kernel
    intersections and transposed module spans, over random matrices."""
    def rand(rows, cols):
        # low-rank products make kernels and proper column spaces likely
        k = int(rng.integers(1, 4))
        return field.matmul(field.asarray(rng.integers(0, 7, size=(rows, k))), field.asarray(rng.integers(0, 7, size=(k, cols))))

    out = []
    for _ in range(6):
        a = rand(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        out += [column_space_basis(a, field), kernel_basis(a, field)]
        n = int(rng.integers(2, 6))
        out.append(intersect_kernels([rand(1, n), rand(2, n)], n, field))
    alg = preprojective_a2(field)
    for _ in range(4):
        m = random_module(alg, rng, max_summands=2)
        vecs = field.asarray(rng.integers(0, 7, size=(int(rng.integers(1, 3)), m.dim)))
        out.append(module_span_rows(m, vecs).T)
    return [b for b in out if b.shape[1]]


@pytest.mark.parametrize("field", [F101, Q], ids=["F101", "Q"])
def test_unit_rows_match_left_inverse_reference(field):
    rng = np.random.default_rng(5)
    bases = _engine_bases(field, rng)
    assert len(bases) >= 15
    for b in bases:
        rows = unit_rows(b)
        k = b.shape[1]
        assert np.array_equal(b[rows], field.eye(k))
        x = _left_inverse_reference(b, field)
        coeff = field.asarray(rng.integers(0, 7, size=(k, 3)))
        v = field.matmul(b, coeff)
        assert np.array_equal(v[rows], coeff)
        assert np.array_equal(field.matmul(x, v), coeff)


def test_unit_rows_empty_shapes():
    assert unit_rows(F101.zeros(0, 0)).shape == (0,)
    assert unit_rows(F101.zeros(4, 0)).shape == (0,)
    assert unit_rows(Q.zeros(3, 0)).shape == (0,)
    with pytest.raises(DimensionMismatch):
        unit_rows(F101.zeros(0, 2))


def test_unit_rows_rejects_unreduced_basis():
    b = F101.asarray([[1, 1], [1, 2], [0, 0]])  # full column rank, no unit rows
    assert rank(b, F101) == 2
    with pytest.raises(DimensionMismatch, match="not reduced"):
        unit_rows(b)


@pytest.mark.parametrize("field", [F101, Q], ids=["F101", "Q"])
def test_quotient_coordinates(field):
    rows = field.asarray([[1, 2, 0, 3], [2, 4, 1, 1]])
    proj, sect = quotient_coordinates(rows, field)
    assert proj.shape == (2, 4) and sect.shape == (4, 2)
    assert np.array_equal(proj, kernel_basis(rows, field).T)
    assert np.array_equal(field.matmul(proj, sect), field.eye(2))
    assert field.is_zero(field.matmul(proj, rows.T))
    assert np.array_equal(sect, field.eye(4)[:, [1, 3]])  # the non-pivot coordinates


def test_quotient_coordinates_empty_shapes():
    for n in (0, 3):
        proj, sect = quotient_coordinates(F101.zeros(0, n), F101)
        assert np.array_equal(proj, F101.eye(n)) and np.array_equal(sect, F101.eye(n))
    proj, sect = quotient_coordinates(F101.eye(3), F101)
    assert proj.shape == (0, 3) and sect.shape == (3, 0)


# -- differential tests against sympy's DomainMatrix ------------------------------

# just below, at and just above the bound between the two rref kernels
DIFF_SHAPES = [(0, 0), (0, 5), (5, 0), (3, 4), (31, 33), (32, 32), (25, 41), (41, 25)]
F32749 = Field(32749)  # the largest accepted prime


def test_diff_shapes_straddle_kernel_bound():
    sides = {np.sign(r * c - SMALL_RREF_CELLS) for r, c in DIFF_SHAPES}
    assert sides == {-1, 0, 1}


def _diff_matrices(field, rng):
    """Dense, sparse, rank-deficient and zero matrices of every DIFF_SHAPES
    shape; over F_32749 the dense entries lie near p - 1."""
    def entries(shape):
        if field.p is None:
            nums = rng.integers(-9, 10, size=shape).tolist()
            dens = rng.integers(1, 4, size=shape).tolist()
            return Q.asarray([[Fraction(n, d) for n, d in zip(nr, dr)] for nr, dr in zip(nums, dens)]).reshape(shape)
        lo = field.p - 8 if field.p > 1000 else 0
        return field.asarray(rng.integers(lo, field.p, size=shape))

    out = []
    for rows, cols in DIFF_SHAPES:
        k = max(1, min(rows, cols) // 3)
        low_rank = field.matmul(entries((rows, k)), entries((k, cols)))
        sparse = field.asarray(entries((rows, cols)) * (rng.random((rows, cols)) < 0.08))
        out += [entries((rows, cols)), sparse, low_rank, field.zeros(rows, cols)]
    return out


def _to_domain_matrix(a, field):
    dom = QQ if field.p is None else GF(field.p)
    conv = (lambda x: QQ(x.numerator, x.denominator)) if field.p is None else (lambda x: dom(int(x)))
    return DomainMatrix([[conv(x) for x in row] for row in a.tolist()], a.shape, dom)


def _from_domain_rows(rows, ncols, field):
    """numpy array in the engine's form from a list of sympy rows; GF(p)
    elements are symmetric residues."""
    if field.p is None:
        conv = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        conv = lambda x: int(x) % field.p
    return field.asarray([[conv(x) for x in row] for row in rows]).reshape(len(rows), ncols)


def _assert_same_rref(got, want_matrix, want_pivots, field):
    assert got.pivots == want_pivots
    assert got.rank == len(want_pivots)
    assert got.matrix.dtype == want_matrix.dtype
    assert got.matrix.shape == want_matrix.shape
    assert np.array_equal(got.matrix, want_matrix)
    if field.p is None:
        assert all(isinstance(x, Fraction) for x in got.matrix.flat)


FIELDS_DIFF = pytest.mark.parametrize("field", [F101, F32749, Q], ids=["F101", "F32749", "Q"])


@FIELDS_DIFF
def test_rref_matches_sympy(field):
    rng = np.random.default_rng(11)
    for a in _diff_matrices(field, rng):
        ref, pivots = _to_domain_matrix(a, field).rref()
        want = _from_domain_rows(ref.to_list(), a.shape[1], field)
        _assert_same_rref(rref(a, field), want, tuple(pivots), field)
        if field.p is not None:  # both kernels, whichever side of the bound
            _assert_same_rref(_rref_rows(a, field), want, tuple(pivots), field)
            _assert_same_rref(_rref_numpy(a, field), want, tuple(pivots), field)


@FIELDS_DIFF
def test_kernel_basis_matches_sympy(field):
    rng = np.random.default_rng(12)
    for a in _diff_matrices(field, rng):
        # scaled to end in 1, sympy's basis is the standard one (each free
        # coordinate 1 in turn), which kernel_basis returns
        ns = _to_domain_matrix(a, field).nullspace(divide_last=True)
        want = _from_domain_rows(ns.to_list(), a.shape[1], field).T
        got = kernel_basis(a, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@FIELDS_DIFF
def test_solve_matrix_matches_sympy(field):
    """Against the canonical solution read off sympy's rref of [a | b]: the
    pivot unknowns take the last columns, the free ones are 0."""
    rng = np.random.default_rng(13)
    inconsistent = 0
    for a in _diff_matrices(field, rng):
        rows, cols = a.shape
        consistent = field.matmul(a, field.asarray(rng.integers(0, 5, size=(cols, 2))))
        arbitrary = field.asarray(rng.integers(0, 5, size=(rows, 2)))
        for b in (consistent, arbitrary):
            ref, pivots = _to_domain_matrix(np.concatenate([a, b], axis=1), field).rref()
            got = solve_matrix(a, b, field)
            if pivots and pivots[-1] >= cols:
                assert got is None
                assert b is arbitrary
                inconsistent += 1
                continue
            want = field.zeros(cols, 2)
            aug = _from_domain_rows(ref.to_list(), cols + 2, field)
            for i, pc in enumerate(pivots):
                want[pc] = aug[i, cols:]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    assert inconsistent > 0


# -- contractions against plain numpy ---------------------------------------------

# every contraction spec the engine passes to Field.einsum
EINSUM_SPECS = [
    "abk,tk->abt",
    "gi,iab->gab",
    "i,iab->ab",
    "i,j,ijk->k",
    "ia,jb,ijk->abk",
    "iab,bj->ija",
    "iab,jba->ij",
    "iab,jbc->ijac",
    "iab,rb->ira",
    "ijk,kac->ijac",
    "ik,abk->abi",
    "ikm,jln->ijklmn",
    "is,iab->sab",
    "it,iab->tab",
    "na,bm->abnm",
    "s,sab->ab",
]
# the two halves of the pairwise products in test_algebra's closure reference,
# and test_modules' per-generator projective cover blocks
REFERENCE_SPECS = ["ai,ijk->ajk", "bj,ajk->abk", "ar,abc,c->br"]

# (a, b) shapes: broadcast stacks, vectors and empty inner or outer sizes
MATMUL_SHAPES = [
    ((3, 4), (4, 2)),
    ((5, 3, 4), (4, 2)),
    ((3, 1, 2, 4), (2, 4, 3)),
    ((1, 3, 3), (4, 3, 3)),
    ((4,), (4, 3)),
    ((2, 4), (4,)),
    ((3, 0), (0, 2)),
    ((0, 3), (3, 2)),
    ((2, 0, 3), (3, 4)),
]


def test_einsum_specs_cover_the_engine():
    import ladderkit

    src = Path(ladderkit.__file__).parent
    used = {m for p in src.glob("*.py") for m in re.findall(r'\.einsum\("([^"]+)"', p.read_text())}
    assert used == set(EINSUM_SPECS)


def _operand_shapes(spec, sizes):
    return [tuple(sizes[c] for c in term) for term in spec.split("->")[0].split(",")]


def _q_operand(rng, shape, kind):
    """Fractions with mixed denominators and signs, many zeros; "int" has
    denominator 1 throughout, "big" entries beyond int64."""
    nums = rng.integers(-9, 10, size=shape) * (rng.random(shape) < 0.6)
    dens = np.ones(shape, dtype=np.int64) if kind == "int" else rng.integers(1, 7, size=shape)
    a = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        a[idx] = Fraction(int(nums[idx]), int(dens[idx]))
    if kind == "big" and a.size:
        a.flat[0] = Fraction(2**70, 3)
        a.flat[-1] = -Fraction(2**65 + 1, 7)
    return a


def _q_cases(rng, shapes):
    for kinds in (["mixed"] * len(shapes), ["int"] * len(shapes), ["big"] + ["mixed"] * (len(shapes) - 1)):
        yield [_q_operand(rng, s, k) for s, k in zip(shapes, kinds)]


def _assert_q_result(got, want):
    want = np.asarray(want, dtype=object)
    assert got.dtype == object and got.shape == want.shape
    assert all(isinstance(x, Fraction) for x in got.flat)
    assert np.all(got == want)


def _fp_operands(rng, field, shapes):
    return [field.asarray(rng.integers(field.p - 8, field.p, size=s) * (rng.random(s) < 0.7)) for s in shapes]


def _assert_fp_result(got, want, exact, field):
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.asarray(exact % field.p, dtype=np.int64))


def _spec_sizes(spec, rng):
    """Random sizes of the spec's indices, then the same with each index 0 in turn."""
    letters = sorted(set(spec) - set(",->"))
    sizes = {c: int(rng.integers(1, 4)) for c in letters}
    return [sizes] + [{**sizes, c: 0} for c in letters]


@pytest.mark.parametrize("spec", EINSUM_SPECS + REFERENCE_SPECS)
def test_einsum_q_matches_fraction_einsum(spec):
    rng = np.random.default_rng(21)
    for sizes in _spec_sizes(spec, rng):
        for ops in _q_cases(rng, _operand_shapes(spec, sizes)):
            _assert_q_result(Q.einsum(spec, *ops), np.einsum(spec, *ops))


@pytest.mark.parametrize("field", [F101, F32749], ids=["F101", "F32749"])
@pytest.mark.parametrize("spec", EINSUM_SPECS + REFERENCE_SPECS)
def test_einsum_fp_matches_reduced_einsum(spec, field):
    rng = np.random.default_rng(22)
    for sizes in _spec_sizes(spec, rng):
        ops = _fp_operands(rng, field, _operand_shapes(spec, sizes))
        exact = np.einsum(spec, *[o.astype(object) for o in ops])
        _assert_fp_result(field.einsum(spec, *ops), np.einsum(spec, *ops) % field.p, exact, field)


def test_matmul_q_matches_fraction_matmul():
    rng = np.random.default_rng(23)
    for shapes in MATMUL_SHAPES:
        for a, b in _q_cases(rng, shapes):
            _assert_q_result(Q.matmul(a, b), a @ b)


@pytest.mark.parametrize("field", [F101, F32749], ids=["F101", "F32749"])
def test_matmul_fp_matches_reduced_matmul(field):
    rng = np.random.default_rng(24)
    for shapes in MATMUL_SHAPES:
        a, b = _fp_operands(rng, field, shapes)
        _assert_fp_result(field.matmul(a, b), (a @ b) % field.p, a.astype(object) @ b.astype(object), field)


def test_equal_over_q_is_entrywise():
    a = Q.asarray([[Fraction(1, 2), 0], [Fraction(2**70, 3), -1]])
    assert Q.equal(a, Q.asarray([[Fraction(2, 4), 0], [Fraction(2**71, 6), -1]]))
    assert not Q.equal(a, Q.asarray([[Fraction(1, 2), 0], [Fraction(2**70 + 1, 3), -1]]))
    assert not Q.equal(a, a[:1])
