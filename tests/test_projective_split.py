"""The projective indecomposables from one split of the regular module.

_projective_data reads every A.e_i off Module.idempotent_split's helper
_split_by applied to the right actions x -> x.e_i, and restricts the regular
action to a basis of unit columns by a gather.  The reference kept here is
what it did before: column_space_basis of each right action and the dense
product of the left-multiplication tensor with that basis."""

import numpy as np
import pytest

import ladderkit.algebra as algebra_mod
import ladderkit.linalg as linalg
import ladderkit.modules as modules
from ladderkit.algebra import Algebra, AlgebraError, build_triangular, ground_field_algebra, opposite
from ladderkit.fixtures import fixture_names, load_fixture
from ladderkit.linalg import Field, column_space_basis, rank, solve_matrix, unit_rows
from ladderkit.modules import _intern, _projective_data, regular_module, submodule

from test_algebra import _local_kxy, _with_corners_and_quotients, _workload_algebras
from test_modules import _permuted

F = Field(101)
Q = Field(None)


def _fresh(a: Algebra) -> Algebra:
    """The same algebra as a new object, with an empty table of module contents."""
    return Algebra(a.field, a.mult, a.unit, a.prim_idempotents, a.labels, _validate=False)


def _projective_data_reference(a: Algebra) -> list:
    """The records of the A.e_i as they were built before the split: the
    dense right action of e_i, its column_space_basis, the dense product
    of the regular action with that basis, and the invariance check."""
    f, reg = a.field, regular_module(a)
    out = []
    for i, e in enumerate(a.prim_idempotents):
        cols = column_space_basis(f.einsum("i,iab->ab", e, a.right_mult), f)
        moved = f.matmul(reg.action, cols)
        coords = unit_rows(cols)
        act = moved[:, coords]
        rest = np.ones(a.dim, dtype=bool)
        rest[coords] = False
        assert f.equal(f.matmul(cols[rest], act), moved[:, rest])
        kept = _intern(a, act)
        if kept.index is not None:
            kept = _intern(a, act, i)
        kept.index, kept.embedding = i, cols
        out.append(kept)
    return out


def _assert_same_projectives(a: Algebra):
    f = a.field
    got, want = _projective_data(_fresh(a)), _projective_data_reference(_fresh(a))
    assert len(got) == len(want) == len(a.prim_idempotents), a
    for g, w in zip(got, want):
        assert g.embedding.dtype == w.embedding.dtype and g.embedding.shape == w.embedding.shape, a
        assert np.array_equal(g.embedding, w.embedding), a
        assert g.action.shape == w.action.shape and f.content_key(g.action) == f.content_key(w.action), a
        assert (g.id, g.index) == (w.id, w.index), a


def _corpus(field, max_dim):
    """Every fixture and workload algebra with its corners and quotients at
    the first and last vertex, and each one's opposite, of dimension at most
    max_dim; over F_p also the resolutions corpus in a seeded basis order."""
    algebras = [load_fixture(name, field)[0] for name in fixture_names()]
    algebras += [a for a in _workload_algebras(field) if a.dim <= max_dim]
    algebras = [a for a in _with_corners_and_quotients(algebras) if a.dim <= max_dim]
    algebras += [opposite(a) for a in algebras]
    if field.p is not None:
        rng = np.random.default_rng(5)
        algebras += [_permuted(a, rng) for a in _workload_algebras(field)[:13]]
    return algebras


@pytest.mark.parametrize("field, max_dim, count", [(F, 66, 250), (Q, 22, 200)], ids=["F101", "Q"])
def test_projectives_from_one_split_match_the_dense_reference(field, max_dim, count):
    algebras = _corpus(field, max_dim)
    for a in algebras:
        _assert_same_projectives(a)
    assert len(algebras) > count


def _conjugated(a: Algebra, seed: int) -> Algebra:
    """a in the basis b'_c = sum_i t[i, c] b_i for a seeded invertible t:
    dense structure constants, idempotents that are no coordinate vectors."""
    f, d, rng = a.field, a.dim, np.random.default_rng(seed)
    t = f.asarray(rng.integers(0, 7, size=(d, d)))
    while rank(t, f) < d:
        t = f.asarray(rng.integers(0, 7, size=(d, d)))
    tinv = solve_matrix(t, f.eye(d), f)
    mult = f.matmul(f.einsum("ia,jb,ijk->abk", t, t, a.mult), tinv.T)
    return Algebra(f, mult, f.matmul(tinv, a.unit), [f.matmul(tinv, e) for e in a.prim_idempotents])


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
@pytest.mark.parametrize("name", ["t3", "preproj-a2"])
def test_projectives_in_a_dense_basis_take_the_rref_branch(field, name):
    for seed in range(3):
        a = _conjugated(load_fixture(name, field)[0], seed)
        rights = [a.right_mult_matrix(e) for e in a.prim_idempotents]
        assert any(np.count_nonzero(r) > np.count_nonzero(np.diagonal(r)) for r in rights)
        _assert_same_projectives(a)
        cols = [kept.embedding for kept in _projective_data(_fresh(a))]
        assert any(np.count_nonzero(c) > c.shape[1] for c in cols)  # not unit columns: the dense product


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_a_unit_column_subspace_that_is_not_invariant_is_refused(field):
    for name in ("t2", "t3", "preproj-a2"):
        a = load_fixture(name, field)[0]
        reg, eye = regular_module(a), field.eye(a.dim)
        refused = 0
        for e in a.prim_idempotents:
            cols = eye[:, np.flatnonzero(e)]  # e_i is a basis vector b_k
            if column_space_basis(a.right_mult_matrix(e), field).shape[1] == 1:  # A.e_i = k.e_i
                assert submodule(reg, cols)[0].dim == 1
                continue
            with pytest.raises(AlgebraError, match="subspace is not invariant under the action"):
                submodule(reg, cols)
            refused += 1
        assert refused, name


@pytest.mark.parametrize("field", [F, Q], ids=["F101", "Q"])
def test_multiplication_matrices_match_the_dense_contraction(field):
    rng = np.random.default_rng(3)
    for a in (load_fixture("t3", field)[0], load_fixture("preproj-a2", field)[0], _local_kxy(field)):
        xs = [field.zeros(a.dim), *field.eye(a.dim), field.asarray(rng.integers(1, 50, size=a.dim)), a.unit]
        for x in xs:
            for got, tensor in ((a.left_mult_matrix(x), a.left_mult), (a.right_mult_matrix(x), a.right_mult)):
                want = field.einsum("i,iab->ab", x, tensor)
                assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def test_projectives_of_coordinate_fixtures_need_no_elimination(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an elimination or a dense product while cutting out the projectives")

    algebras = [build_triangular(ground_field_algebra(F), 8)] + [load_fixture(name, F)[0] for name in fixture_names()]
    for mod, name in ((linalg, "rref"), (modules, "rref"), (algebra_mod, "rref"), (linalg.Field, "matmul")):
        monkeypatch.setattr(mod, name, refuse)
    for a in algebras:
        assert len(_projective_data(a)) == len(a.prim_idempotents)
    assert not calls
