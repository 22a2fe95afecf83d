import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ladderkit.linalg import (
    DimensionMismatch,
    Field,
    Mat,
    intersect_kernels,
    kernel_basis,
    kron,
    left_inverse,
    rank,
    rref,
    solve,
)

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
    assert np.array_equal(kron(F101.eye(2), F101.eye(3), F101), F101.eye(6))
    assert np.all(kron(F101.zeros(2, 2), F101.eye(2), F101) == 0)
    assert np.array_equal(kron(Q.asarray([[2]]), Q.asarray([[3]]), Q), Q.asarray([[6]]))


def test_kron_field_mismatch_guard():
    a = Mat(F101.eye(2), F101)
    b = Mat(F5.eye(2), F5)
    with pytest.raises(DimensionMismatch):
        a @ b


def test_mat_matmul():
    a = Mat(F5.asarray([[1, 2], [3, 4]]), F5)
    b = Mat(F5.asarray([[0, 1], [1, 0]]), F5)
    assert (a @ b) == Mat(F5.asarray([[2, 1], [4, 3]]), F5)


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
    left = kron(kron(a, b, F101), c, F101)
    right = kron(a, kron(b, c, F101), F101)
    # lexicographic ordering makes the reindexing bijection the identity
    assert np.array_equal(left, right)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kron_acts_on_pure_tensors(data):
    a = _random_matrix(data, F101, 3, 2)
    b = _random_matrix(data, F101, 2, 3)
    x = _random_matrix(data, F101, 2, 1)
    y = _random_matrix(data, F101, 3, 1)
    lhs = F101.matmul(kron(a, b, F101), F101.normalize(np.kron(x, y)))
    rhs = F101.normalize(np.kron(F101.matmul(a, x), F101.matmul(b, y)))
    assert np.array_equal(lhs, rhs)


def test_left_inverse_and_kernel_intersection():
    m = F101.asarray([[1, 0], [2, 1], [3, 4]])
    x = left_inverse(m, F101)
    assert np.array_equal(F101.matmul(x, m), F101.eye(2))
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
