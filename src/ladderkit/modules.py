"""Finite-dimensional modules, bimodules, Hom spaces, covers and resolutions.

A left module is one action matrix per algebra basis element.  A bimodule
stores its two one-sided actions; its left module over the enveloping algebra
A (x) B^op the caller passes in is only materialized when two bimodules must
be compared, so large enveloping algebras never arise implicitly.
Everything reduces to exact linear algebra.  Hom spaces come back in one
canonical basis, read off e_i.N out of a sum of projectives or a kept cover,
else solved on the blocks e_j.N x e_i.M cut out by the idempotents; tensor
products are quotients by balancing relations; projectivity is decided by
projective-cover dimensions.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Algebra, AlgebraError, FieldRestrictionError, algebra_radical_rows, ground_field_algebra, opposite
from .linalg import (
    Field,
    block_diag,
    column_space_basis,
    kernel_and_section,
    kernel_basis,
    quotient_coordinates,
    rank,
    rref,
    unit_rows,
)

__all__ = [
    "Module",
    "ModuleMap",
    "Bimodule",
    "Resolution",
    "regular_module",
    "regular_bimodule",
    "zero_module",
    "direct_sum",
    "submodule",
    "quotient_module",
    "module_span_rows",
    "hom_space",
    "HomBasis",
    "radical",
    "projective_indecomposables",
    "simples",
    "simples_by_idempotent",
    "projective_cover",
    "cover_sequence",
    "is_projective",
    "minimal_resolution",
    "dual",
    "is_injective",
    "hom_into_regular",
    "tensor_over",
    "TensorData",
    "hom_module",
    "hom_profile",
    "is_isomorphic",
    "bimodules_isomorphic",
    "IsoResult",
    "serialize_module",
    "random_module",
    "indecomposables",
    "ModulePool",
    "module_pool",
]


class Module:
    """Left module over an algebra: one dim x dim action matrix per basis element."""

    _summands = None  # (i, ...) on a direct sum of the A.e_i
    _cover = None  # _Cover, once projective_cover ran

    def __init__(self, algebra: Algebra, action: np.ndarray, _validate=True):
        self.algebra = algebra
        f = algebra.field
        self.action = f.asarray(action)
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim or self.action.shape[1] != self.action.shape[2]:
            raise AlgebraError(f"action array has shape {self.action.shape}, need ({algebra.dim}, n, n)")
        self.dim = self.action.shape[1]
        self.action.setflags(write=False)
        self._split = None
        self._profile = None
        self._gp_verdicts = {}  # cutoff -> GPVerdict, see is_gorenstein_projective
        if _validate:
            self._validate()

    @classmethod
    def _wrap(cls, algebra: Algebra, action: np.ndarray, split: tuple, summands: tuple, gp_verdicts: dict) -> "Module":
        """A module on a read-only, reduced action array, its idempotent split
        and kept GP verdicts, taken as they are: no copy, reduction or validation."""
        m = cls.__new__(cls)
        m.algebra, m.action, m.dim = algebra, action, action.shape[1]
        m._split, m._profile, m._gp_verdicts, m._summands = split, None, gp_verdicts, summands
        return m

    def _validate(self):
        f = self.algebra.field
        if self.algebra.dim == 0:
            if self.dim != 0:
                raise AlgebraError("nonzero module over the zero algebra")
            return
        unit_act = self.act_vector(self.algebra.unit)
        if not f.equal(unit_act, f.eye(self.dim)):
            raise AlgebraError("unit does not act as the identity")
        # x.(y.v) = (xy).v for the generators x after the unit and the basis y:
        # the x it holds for form a subalgebra containing 1, so all of A
        acts = f.einsum("gi,iab->gab", self.algebra.generators()[1:], self.action)
        lhs = f.einsum("iab,jbc->ijac", acts, self.action)
        rhs = f.einsum("ijk,kac->ijac", self.algebra.generator_products(), self.action)
        if not f.equal(lhs, rhs):
            bad = np.nonzero(f.normalize(lhs - rhs))
            raise AlgebraError(f"representation property fails at generator {bad[0][0]}, basis element {bad[1][0]}")

    def act_vector(self, x) -> np.ndarray:
        """Matrix by which the algebra element with coefficient vector x acts."""
        return self.algebra.field.einsum("i,iab->ab", x, self.action)

    @property
    def field(self) -> Field:
        return self.algebra.field

    def idempotent_split(self) -> tuple:
        """One pair (U_i, P_i) per distinguished idempotent e_i, computed once.

        U_i (dim x d_i) is a basis of e_i.M, the transposed nonzero rows of
        rref(E_i^T), so it is the identity on its pivot rows; P_i = E_i[pivots]
        (d_i x dim) gives coordinates on it, and E_i = U_i P_i.  When E_i is a
        coordinate projection (the usual case) that rref is read off directly.
        """
        if self._split is None and self._summands is not None:
            self._split = _free_split(self.algebra, self._summands)
        if self._split is None:
            f = self.field
            eye = f.eye(self.dim)
            split = []
            for e in self.algebra.prim_idempotents:
                act = self.act_vector(e)
                support = np.flatnonzero(np.diagonal(act))
                if np.count_nonzero(act) == support.size:
                    split.append((eye[:, support], act[support]))
                    continue
                r = rref(act.T, f)
                split.append((r.matrix[: r.rank].T, act[list(r.pivots)]))
            if sum(u.shape[1] for u, _ in split) != self.dim:
                raise AlgebraError("the distinguished idempotents do not split the module: sum of dim e_i.M != dim M")
            self._split = tuple(split)
        return self._split

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


class ModuleMap:
    """A linear map intertwining two modules over the same algebra."""

    def __init__(self, source: Module, target: Module, matrix: np.ndarray, _validate=True):
        if not source.algebra.same_as(target.algebra):
            raise AlgebraError("module map needs source and target over the same algebra")
        self.source = source
        self.target = target
        f = source.field
        self.matrix = f.asarray(matrix).reshape(target.dim, source.dim)
        self.matrix.setflags(write=False)
        if _validate:
            self._validate()

    def _validate(self):
        f = self.source.field
        gens = self.source.algebra.generators()
        lhs = f.matmul(self.matrix, f.einsum("gi,iab->gab", gens, self.source.action))
        rhs = f.matmul(f.einsum("gi,iab->gab", gens, self.target.action), self.matrix)
        if not f.equal(lhs, rhs):
            raise AlgebraError("matrix does not intertwine the actions")

    @property
    def rank(self) -> int:
        return rref(self.matrix, self.source.field).rank

    def is_injective(self) -> bool:
        return self.rank == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank == self.target.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.rank == self.source.dim

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


class Bimodule:
    """(A, B)-bimodule stored by its one-sided actions.

    left_action[i] is the matrix of the i-th basis element of A acting on the
    left; right_action[j] is the matrix of x -> x.b_j.  The validation checks
    both representation properties and that the actions commute (on generator
    pairs, which suffices by bilinearity).
    """

    def __init__(self, left: Algebra, right: Algebra, left_action, right_action, _validate=True):
        if left.field != right.field:
            raise AlgebraError("bimodule factors need a common field")
        f = left.field
        self.left = left
        self.right = right
        self.left_action = f.asarray(left_action)
        self.right_action = f.asarray(right_action)
        self.dim = self.left_action.shape[1] if left.dim else self.right_action.shape[1]
        self._env_module: Optional[Module] = None
        if _validate:
            Module(left, self.left_action)
            Module(opposite(right), self.right_action)
            if self.left_action.shape[1] != self.right_action.shape[1]:
                raise AlgebraError(
                    f"left action has dimension {self.left_action.shape[1]}, right action dimension {self.right_action.shape[1]}"
                )
            lg = f.einsum("gi,iab->gab", left.generators(), self.left_action)[:, None]
            rh = f.einsum("gi,iab->gab", right.generators(), self.right_action)[None]
            if not f.equal(f.matmul(lg, rh), f.matmul(rh, lg)):
                raise AlgebraError("left and right actions do not commute")

    @property
    def field(self) -> Field:
        return self.left.field

    def left_restrict(self) -> Module:
        return Module(self.left, self.left_action, _validate=False)

    def right_restrict(self) -> Module:
        """The right B-module structure, as a left module over B^op."""
        return Module(opposite(self.right), self.right_action, _validate=False)

    def flip(self) -> "Bimodule":
        """The same space as a (B^op, A^op)-bimodule; pure data swap."""
        return Bimodule(opposite(self.right), opposite(self.left), self.right_action, self.left_action, _validate=False)

    def env_module(self, env: Algebra) -> Module:
        """The left module over env = A (x) B^op, one algebra object shared
        across many bimodules."""
        if self._env_module is None or not self._env_module.algebra.same_as(env):
            f = self.field
            act = f.einsum("iab,jbc->ijac", self.left_action, self.right_action)
            act = act.reshape(self.left.dim * self.right.dim, self.dim, self.dim)
            self._env_module = Module(env, act, _validate=False)
        return self._env_module

    def __repr__(self):
        return f"Bimodule(dim={self.dim}, left {self.left!r}, right {self.right!r})"


def regular_module(a: Algebra) -> Module:
    return Module(a, a.left_mult, _validate=False)


def regular_bimodule(a: Algebra) -> Bimodule:
    return Bimodule(a, a, a.left_mult, a.right_mult, _validate=False)


def zero_module(a: Algebra) -> Module:
    return Module(a, a.field.zeros(a.dim, 0, 0), _validate=False)


def direct_sum(mods: Sequence[Module]) -> Module:
    if not mods:
        raise AlgebraError("direct sum needs at least one summand")
    a = mods[0].algebra
    out = Module(a, block_diag(a.field, [m.action for m in mods]), _validate=False)
    if all(m._summands is not None for m in mods):
        out._summands = tuple(i for m in mods for i in m._summands)
    return out


def module_span_rows(m: Module, vectors: np.ndarray) -> np.ndarray:
    """Row basis of the submodule generated by the given row vectors."""
    f = m.field
    if vectors.size == 0:
        return f.zeros(0, m.dim)
    r = rref(vectors.reshape(-1, m.dim), f)
    rows = r.matrix[: r.rank]
    while rows.shape[0]:
        new = f.einsum("iab,rb->ira", m.action, rows).reshape(-1, m.dim)
        r = rref(np.concatenate([rows, new], axis=0), f)
        if r.rank == rows.shape[0]:
            break
        rows = r.matrix[: r.rank]
    return rows


def submodule(m: Module, incl_cols: np.ndarray) -> tuple[Module, ModuleMap]:
    """Module structure on an invariant subspace given by reduced columns.

    The columns must be the identity on some rows (linalg.unit_rows), as every
    basis from column_space_basis, kernel_basis or transposed rref rows is;
    coordinates are then read off those rows.  Raises DimensionMismatch for a
    basis that is not reduced and AlgebraError for one that is not invariant.
    """
    f = m.field
    if incl_cols.shape[1] == 0:
        sub = zero_module(m.algebra)
        return sub, ModuleMap(sub, m, f.zeros(m.dim, 0), _validate=False)
    moved = _act_on_columns(m, incl_cols)
    coords = unit_rows(incl_cols)
    act = moved[:, coords]
    # incl_cols @ act equals moved on the coordinate rows by construction;
    # every other row, a repeated unit row included, must be checked
    rest = np.ones(m.dim, dtype=bool)
    rest[coords] = False
    if not f.equal(f.matmul(incl_cols[rest], act), moved[:, rest]):
        raise AlgebraError("subspace is not invariant under the action")
    sub = Module(m.algebra, act, _validate=False)
    return sub, ModuleMap(sub, m, incl_cols, _validate=False)


def _act_on_columns(m: Module, cols: np.ndarray) -> np.ndarray:
    """m.action @ cols.  On a sum of projective indecomposables the rows of
    the summands A.e_i take i's kept action, one product per distinct i."""
    f, k = m.field, cols.shape[1]
    if m._summands is None:
        return f.matmul(m.action, cols)
    data = _projective_data(m.algebra)
    ends = np.cumsum([data[i].action.shape[1] for i in m._summands])
    out = np.empty((m.algebra.dim, m.dim, k), dtype=cols.dtype)
    for i in dict.fromkeys(m._summands):
        p = data[i].action
        rows = np.concatenate([np.arange(end - p.shape[1], end) for end, j in zip(ends, m._summands) if j == i])
        out[:, rows] = f.matmul(p[:, None], cols[rows].reshape(-1, p.shape[1], k)).reshape(p.shape[0], rows.size, k)
    return out


def quotient_module(m: Module, sub_rows: np.ndarray) -> tuple[Module, ModuleMap]:
    """Quotient by an invariant subspace given as a row span; deterministic
    complement basis = non-pivot coordinates of the rref."""
    f = m.field
    proj, sect = quotient_coordinates(sub_rows, f)
    quot = Module(m.algebra, f.matmul(proj, f.matmul(m.action, sect)), _validate=False)
    return quot, ModuleMap(m, quot, proj, _validate=False)


# -- Hom spaces ---------------------------------------------------------------


def hom_space(m: Module, n: Module) -> HomBasis:
    """Canonical basis of Hom(m, n), stacked in a HomBasis.

    Hom(A.e_i, N) = e_i.N (Lux & Szoke, Exp. Math. 12, 2003), so a sum P of
    projective indecomposables needs no system, and a module with a kept
    cover pi: P -> M has Hom(M, N) = {psi.sigma : psi in Hom(P, N),
    psi.ker(pi) = 0}, sigma a linear section.  Any other module solves
    X = sum_i V_i Y_i P_i (V_i a basis of e_i.N, P_i coordinates on e_i.M)
    under the generators beyond the idempotents, one batched product.
    One rref of [conditions | reversed basis matrices] ends every path: its
    rows past the condition pivots are the rref of the reversed Hom(m, n),
    so the basis is the same unique one, the identity on the coordinates
    where some map has its last nonzero row-major entry, in increasing order
    of that coordinate (the pivots, read back through the reversal).
    """
    if not m.algebra.same_as(n.algebra):
        raise AlgebraError("hom_space needs modules over the same algebra")
    f = m.field
    size = n.dim * m.dim
    empty = HomBasis(m, n, f.zeros(0, n.dim, m.dim), np.zeros(0, dtype=np.int64))
    if size == 0:
        return empty
    free, covered = m._summands is not None, m._cover is not None
    if free or covered:  # Hom(P, N), P = m or its cover
        stack = _free_hom_stack(m._summands if free else m._cover.module._summands, n)
    else:
        blocks = [
            f.einsum("na,bm->abnm", v, p).reshape(-1, n.dim, m.dim)
            for (v, _), (_, p) in zip(n.idempotent_split(), m.idempotent_split())
        ]
        stack = np.concatenate(blocks)  # (unknowns, n, m)
    u = stack.shape[0]
    if u == 0:
        return empty
    if free:
        res = f.zeros(u, 0)
    elif covered:
        kernel, section = _cover_arrays(m, section=True)
        res = f.matmul(stack, kernel).reshape(u, n.dim * kernel.shape[1])
        stack = f.matmul(stack, section)
    else:
        gens = m.algebra.generators_beyond_idempotents()
        am = f.einsum("gi,iab->gab", gens, m.action)
        bn = f.einsum("gi,iab->gab", gens, n.action)
        res = f.normalize(f.matmul(stack[:, None], am[None]) - f.matmul(bn[None], stack[:, None])).reshape(u, -1)
    res = res[:, np.any(res != 0, axis=0)]  # drop conditions no unknown touches
    r = rref(np.concatenate([res, stack.reshape(u, -1)[:, ::-1]], axis=1), f)
    c = res.shape[1]
    first = sum(1 for pc in r.pivots if pc < c)
    rows = r.matrix[first : r.rank, c:][::-1, ::-1]
    positions = np.array([size - 1 - (pc - c) for pc in r.pivots[first : r.rank]][::-1], dtype=np.int64)
    matrices = np.ascontiguousarray(rows).reshape(-1, n.dim, m.dim)
    matrices.setflags(write=False)
    return HomBasis(m, n, matrices, positions)


def _free_hom_stack(summands: tuple, n: Module) -> np.ndarray:
    """Basis of Hom(P, N), P the sum of the A.e_i, i in summands, stacked
    (u, dim N, dim P): a.e_i |-> a.v on one summand, v a column of V_i."""
    a, f = n.algebra, n.field
    images = {}  # i -> (dim N, dim e_i.N, dim A.e_i)
    for i in summands:
        if i not in images:
            v, emb = n.idempotent_split()[i][0], _projective_data(a)[i].embedding
            img = f.matmul(emb.T, f.matmul(n.action, v).reshape(a.dim, -1)) if v.shape[1] else f.zeros(emb.shape[1], 0)
            images[i] = img.reshape(emb.shape[1], n.dim, v.shape[1]).transpose(1, 2, 0)
    return block_diag(f, [images[i] for i in summands]).transpose(1, 0, 2)


@dataclass
class HomBasis:
    """Basis of Hom(source, target), stacked, with its coordinate positions.

    hom_space's basis is the identity on one row-major coordinate per map
    (the map's last nonzero entry), so the coordinates of any map in the span
    are its entries at those positions."""

    source: Module
    target: Module
    matrices: np.ndarray  # (h, target.dim, source.dim)
    positions: np.ndarray  # (h,) flat indices into target.dim * source.dim

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def map(self, s: int) -> ModuleMap:
        return ModuleMap(self.source, self.target, self.matrices[s], _validate=False)

    def coords(self, mat: np.ndarray, f: Field) -> np.ndarray:
        """Coordinates of a map in the span; for a stack (..., t, s) of maps,
        one row of coordinates per map."""
        flat = mat.reshape(*mat.shape[:-2], mat.shape[-2] * mat.shape[-1])
        return f.normalize(flat[..., self.positions])

    def induced(self, target: "HomBasis", f: Field, pre: Optional[np.ndarray] = None, post: Optional[np.ndarray] = None) -> np.ndarray:
        """Matrix of g |-> post.g.pre from this basis's span into target's,
        in both bases' coordinates: column s holds target's coordinates of
        post.matrices[s].pre.  For a stack (k, ., .) of pre or post
        operators the result is the stack (k, len(target), len(self))."""
        g = self.matrices
        if pre is not None:
            g = f.matmul(g, pre[..., None, :, :])
        if post is not None:
            g = f.matmul(post[..., None, :, :], g)
        return np.swapaxes(target.coords(g, f), -1, -2)


# -- radical, covers, projectivity --------------------------------------------


def _radical_action(m: Module) -> tuple[np.ndarray, np.ndarray]:
    """J(algebra) acting on m, one contraction over the radical rows, laid out
    side by side (dim, r*dim), whose columns span rad(M) = J.M, and stacked
    (r*dim, dim), whose kernel is soc(M) = {x : J.x = 0}."""
    jrows = algebra_radical_rows(m.algebra)
    jact = m.field.einsum("gi,iab->gab", jrows, m.action)
    n, r = m.dim, jrows.shape[0]
    return jact.transpose(1, 0, 2).reshape(n, r * n), jact.reshape(r * n, n)


def radical(m: Module) -> ModuleMap:
    """Inclusion of rad(M) = J(algebra) . M."""
    spans, _ = _radical_action(m)
    _, inclusion = submodule(m, column_space_basis(spans, m.field) if spans.size else spans)
    return inclusion


@dataclass
class _ProjectiveData:
    """What an algebra keeps of A.e_i: arrays, and a weak reference to the
    module last handed out, so nothing kept refers back to the algebra."""

    action: np.ndarray
    embedding: np.ndarray  # columns into the regular module, elements of A
    split: tuple
    handed_out: weakref.ref
    gp_verdicts: dict  # cutoff -> GPVerdict of A.e_i


def _projective_data(a: Algebra) -> list[_ProjectiveData]:
    """One entry per distinguished idempotent, built once per algebra."""
    if "projectives" not in a._derived:
        reg = regular_module(a)
        data = []
        for e in a.prim_idempotents:
            cols = column_space_basis(a.right_mult_matrix(e), a.field)
            sub, _ = submodule(reg, cols)
            cols.setflags(write=False)
            data.append(_ProjectiveData(sub.action, cols, sub.idempotent_split(), weakref.ref(sub), {}))
        a._derived["projectives"] = data
    return a._derived["projectives"]


def projective_indecomposables(a: Algebra) -> list[Module]:
    """The modules A.e_i for the distinguished primitive idempotents, in a
    new list on each call.  While a caller holds them the same modules come
    back; otherwise the arrays kept on the algebra are wrapped again."""
    out = []
    for i, entry in enumerate(_projective_data(a)):
        p = entry.handed_out()
        if p is None:
            p = Module._wrap(a, entry.action, entry.split, (i,), entry.gp_verdicts)
            entry.handed_out = weakref.ref(p)
        out.append(p)
    return out


def _free_split(a: Algebra, summands: tuple) -> tuple:
    """idempotent_split of the sum of the A.e_i, i in summands: block
    diagonal, as is the rref of a block-diagonal matrix."""
    splits = [_projective_data(a)[i].split for i in summands]
    return tuple(tuple(block_diag(a.field, [sp[j][k] for sp in splits]) for k in (0, 1)) for j in range(len(splits[0])))


def simples_by_idempotent(a: Algebra) -> list[Module]:
    """top(P_i) for each distinguished idempotent (iso repeats possible)."""
    out = []
    for p in projective_indecomposables(a):
        rad_incl = radical(p)
        top, _ = quotient_module(p, rad_incl.matrix.T)
        out.append(top)
    return out


def _simple_classes(a: Algebra, tops: Optional[list] = None) -> tuple:
    """Indices i, one per class of isomorphic tops S_i = top(A.e_i), shared
    with the opposite as ints.  S_i ~ S_j exactly when e_i acts nontrivially
    on S_j, so the first index of each class is chosen deterministically."""
    if "simple_classes" not in a._shared:
        tops = simples_by_idempotent(a) if tops is None else tops
        chosen: list[int] = []
        for i, (s, e_i) in enumerate(zip(tops, a.prim_idempotents)):
            if not any(tops[j].dim == s.dim and rank(tops[j].act_vector(e_i), a.field) > 0 for j in chosen):
                chosen.append(i)
        a._shared["simple_classes"] = tuple(chosen)
    return a._shared["simple_classes"]


def simples(a: Algebra) -> list[Module]:
    """Pairwise non-isomorphic simples, one per primitive idempotent class."""
    tops = simples_by_idempotent(a)
    return [tops[i] for i in _simple_classes(a, tops)]


def projective_cover(m: Module) -> tuple[Module, ModuleMap]:
    """Minimal projective cover: P -> M surjective with kernel inside rad(P).

    Generators are accepted greedily whenever their image in top(M) is new;
    each accepted generator contributes one indecomposable summand and one
    simple to the top, so the induced map on tops is an isomorphism.

    The covered part of the top is a submodule, kept as rref rows with their
    pivots.  An accepted w adds the submodule A.w, which contains w: its
    rows are reduced against the covered rows and the residual's rref is
    inserted in pivot order, giving the unique rref of the sum.
    The cover and the surjection's matrix are kept on m.
    """
    a = m.algebra
    f = m.field
    if m._cover is not None:
        return m._cover.module, ModuleMap(m._cover.module, m, m._cover.surj, _validate=False)
    if m.dim == 0:
        z = zero_module(a)
        m._cover = _Cover(z, f.zeros(0, 0))
        return z, ModuleMap(z, m, m._cover.surj, _validate=False)
    rad_incl = radical(m)
    top, proj = quotient_module(m, rad_incl.matrix.T)
    projectives = projective_indecomposables(a)
    covered = f.zeros(0, top.dim)
    pivots: list[int] = []
    gens: list[tuple[int, np.ndarray]] = []
    for i, e in enumerate(a.prim_idempotents):
        if len(pivots) == top.dim:
            break
        cols = m.act_vector(e)
        images = f.matmul(proj.matrix, cols)
        for t in range(m.dim):
            w = images[:, t]
            if f.is_zero(w) or (pivots and f.equal(f.matmul(w[pivots], covered), w)):
                continue
            gens.append((i, cols[:, t]))
            spanned = f.einsum("iab,rb->ira", top.action, w.reshape(1, -1)).reshape(-1, top.dim)
            if pivots:
                spanned = f.normalize(spanned - f.matmul(spanned[:, pivots], covered))
            r = rref(spanned, f)
            new, new_pivots = r.matrix[: r.rank], list(r.pivots)
            if pivots:
                covered = f.normalize(covered - f.matmul(covered[:, new_pivots], new))
            covered = np.concatenate([covered, new])[np.argsort(pivots + new_pivots)]
            pivots = sorted(pivots + new_pivots)
            if len(pivots) == top.dim:
                break
    if len(pivots) != top.dim:
        raise AlgebraError("projective cover construction failed to cover the top")
    summands = [projectives[i] for i, _ in gens]
    cover = direct_sum(summands) if summands else zero_module(a)
    # the generators come grouped by summand index i: per group, [b, k, r] is
    # the image x.v_k of the r-th basis vector x of A.e_i, from two products
    blocks = []
    for i, group in itertools.groupby(gens, key=lambda g: g[0]):
        vs = np.stack([v for _, v in group])
        images = f.matmul(f.matmul(m.action, vs.T).transpose(1, 2, 0), _projective_data(a)[i].embedding)
        blocks.append(images.reshape(m.dim, -1))
    mat = np.concatenate(blocks, axis=1) if blocks else f.zeros(m.dim, 0)
    surj = ModuleMap(cover, m, mat, _validate=False)
    m._cover = _Cover(cover, surj.matrix)
    return cover, surj


@dataclass
class _Cover:
    """A kept cover pi: P -> M: no ModuleMap, which would point back to M."""

    module: Module
    surj: np.ndarray
    kernel: Optional[np.ndarray] = None  # ker pi, on first use
    section: Optional[np.ndarray] = None  # pi.sigma = 1, on first use


def _cover_arrays(m: Module, section: bool = False) -> tuple:
    """ker pi of m's kept cover and, if asked, a section sigma (pi.sigma = 1),
    each computed once; both from one rref when both are new."""
    c = m._cover
    if section and c.section is None:
        kernel, c.section = kernel_and_section(c.surj, m.field)
        c.kernel = kernel if c.kernel is None else c.kernel
    elif c.kernel is None:
        c.kernel = kernel_basis(c.surj, m.field)
    return c.kernel, c.section


def cover_sequence(m: Module) -> tuple[ModuleMap, ModuleMap]:
    """The inclusion of Omega(M) = ker pi into the cover P, and pi: P -> M."""
    cover, surj = projective_cover(m)
    _, incl = submodule(cover, _cover_arrays(m)[0])
    return incl, surj


def is_projective(m: Module) -> bool:
    cover, _ = projective_cover(m)
    return cover.dim == m.dim


@dataclass
class Resolution:
    """Minimal projective resolution up to a cutoff.

    differentials[0] maps terms[0] onto the target; differentials[i] maps
    terms[i] into terms[i-1].  finished means the last syzygy vanished, so the
    projective dimension is known exactly.
    """

    target: Module
    terms: list
    differentials: list
    cutoff: int
    finished: bool = False

    def pd_bound(self) -> tuple[str, int]:
        """('exact', n) or ('at_least', cutoff + 1)."""
        if self.finished:
            # the resolution stops at the first zero syzygy, so the terms are P_0 .. P_pd
            return ("exact", len(self.terms) - 1)
        return ("at_least", self.cutoff + 1)


def minimal_resolution(m: Module, cutoff: int) -> Resolution:
    f = m.field
    terms: list[Module] = []
    diffs: list[ModuleMap] = []
    current = m
    incl_prev: Optional[ModuleMap] = None
    finished = False
    for _ in range(cutoff + 1):
        incl, surj = cover_sequence(current)
        cover = surj.source
        terms.append(cover)
        if incl_prev is None:
            diffs.append(surj)
        else:
            diffs.append(ModuleMap(cover, terms[-2], f.matmul(incl_prev.matrix, surj.matrix), _validate=False))
        incl_prev, current = incl, incl.source
        if current.dim == 0:
            finished = True
            break
    return Resolution(m, terms, diffs, cutoff, finished=finished)


# -- duality -------------------------------------------------------------------


def dual(m: Module) -> Module:
    """k-linear dual, a module over the opposite algebra (actions transpose)."""
    return Module(opposite(m.algebra), m.action.transpose(0, 2, 1), _validate=False)


def is_injective(m: Module) -> bool:
    return is_projective(dual(m))


def hom_into_regular(m: Module) -> tuple[Module, HomBasis]:
    """Hom_A(M, A) as a module over A^op: (f.a)(x) = f(x)a, with its basis."""
    a = m.algebra
    f = m.field
    hb = hom_space(m, regular_module(a))
    return Module(opposite(a), hb.induced(hb, f, post=a.right_mult)), hb


# -- tensor products -----------------------------------------------------------


@dataclass
class TensorData:
    """Projection/section presenting M (x)_B N as a quotient of the pure
    tensor space (row-major coordinates: index = s * n_dim + t)."""

    proj: np.ndarray  # (q, m*n)
    sect: np.ndarray  # (m*n, q)
    m_dim: int
    n_dim: int

    def induced(
        self,
        f: Field,
        op_left: Optional[np.ndarray] = None,
        op_right: Optional[np.ndarray] = None,
        target: Optional["TensorData"] = None,
    ) -> np.ndarray:
        """Matrix of op_left (x) op_right (identity where None) from this
        tensor product into target's (default: this one), in both quotient
        coordinates.  For a stack (k, ., .) of operators on one side the
        result is the stack (k, q', q).

        Each operator acts on its own index of the section, read as
        (m_dim, n_dim, q); the (m*n)^2 Kronecker product is never formed."""
        m, n, q = self.m_dim, self.n_dim, self.sect.shape[1]
        x = self.sect.reshape(m, n, q)
        if op_left is not None:
            x = f.matmul(op_left, x.reshape(m, n * q))
            x = x.reshape(*x.shape[:-1], n, q)
        if op_right is not None:
            x = f.matmul(op_right[..., None, :, :], x)
        into = target if target is not None else self
        return f.matmul(into.proj, x.reshape(*x.shape[:-3], x.shape[-3] * x.shape[-2], q))


def _balanced_tensor(f: Field, b: Algebra, right_action, left_action) -> TensorData:
    """Quotient of k^(m*n) by the span of (x.b (x) y) - (x (x) b.y); generator
    relations suffice by bilinearity."""
    m = right_action.shape[1]
    n = left_action.shape[1]
    gens = b.generators()
    rm = f.einsum("gi,iab->gab", gens, right_action)
    ln = f.einsum("gi,iab->gab", gens, left_action)
    # one (m*n) x (m*n) block per generator; its columns are indexed by pure tensors (s, t)
    rels = f.normalize(np.kron(rm, f.eye(n)[None]) - np.kron(f.eye(m)[None], ln))
    proj, sect = quotient_coordinates(rels.transpose(0, 2, 1).reshape(gens.shape[0] * m * n, m * n), f)
    return TensorData(proj, sect, m, n)


def tensor_over(a_mod, b_mod) -> tuple:
    """Balanced tensor product over the shared middle algebra.

    a_mod: Bimodule (A, B) or a plain right B-module (a Module over B^op);
    b_mod: Bimodule (B, C) or a plain left B-module.  Returns a pair
    (result, TensorData) where the result keeps whatever outer structure the
    inputs carry: a (A, C)-bimodule, a one-sided module, or a plain vector
    space as a module over the ground field.
    """
    if isinstance(a_mod, Bimodule):
        b = a_mod.right
        f = a_mod.field
        ra = a_mod.right_action
    else:
        b = opposite(a_mod.algebra)  # a_mod is a module over B^op
        f = a_mod.field
        ra = a_mod.action
    if isinstance(b_mod, Bimodule):
        if not b_mod.left.same_as(b):
            raise AlgebraError("tensor factors do not share the middle algebra")
        la = b_mod.left_action
    else:
        if not b_mod.algebra.same_as(b):
            raise AlgebraError("tensor factors do not share the middle algebra")
        la = b_mod.action
    td = _balanced_tensor(f, b, ra, la)
    left_act = td.induced(f, op_left=a_mod.left_action) if isinstance(a_mod, Bimodule) else None
    right_act = td.induced(f, op_right=b_mod.right_action) if isinstance(b_mod, Bimodule) else None
    if left_act is not None and right_act is not None:
        return Bimodule(a_mod.left, b_mod.right, left_act, right_act), td
    if left_act is not None:
        return Module(a_mod.left, left_act), td
    if right_act is not None:
        return Module(opposite(b_mod.right), right_act), td
    return Module(ground_field_algebra(f), f.eye(td.proj.shape[0])[None], _validate=False), td


# -- hom modules ----------------------------------------------------------------


def hom_module(m_bimod: Bimodule, n) -> tuple:
    """Hom over the left algebra of an (A, B)-bimodule into an A-module.

    n may be a plain Module over A (result: left B-module) or a Bimodule
    (A, C) (result: (B, C)-bimodule).  Actions: (b.f)(x) = f(x.b) and
    (f.c)(x) = f(x).c.  Returns (module, HomBasis).
    """
    f = m_bimod.field
    a = m_bimod.left
    m_left = m_bimod.left_restrict()
    if isinstance(n, Bimodule):
        if not n.left.same_as(a):
            raise AlgebraError("hom_module needs matching left algebras")
        n_left = n.left_restrict()
    else:
        if not n.algebra.same_as(a):
            raise AlgebraError("hom_module needs matching left algebras")
        n_left = n
    hb = hom_space(m_left, n_left)
    b_act = hb.induced(hb, f, pre=m_bimod.right_action)
    if isinstance(n, Bimodule):
        return Bimodule(m_bimod.right, n.right, b_act, hb.induced(hb, f, post=n.right_action)), hb
    return Module(m_bimod.right, b_act), hb


# -- isomorphism testing ---------------------------------------------------------


@dataclass
class IsoResult:
    kind: str  # "yes" | "no" | "probably_no"
    witness: Optional[ModuleMap] = None
    certificate: Optional[str] = None
    trials: int = 0

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"


def hom_profile(m: Module) -> tuple:
    """Isomorphism invariants of m, computed once: its dimension, the ranks
    of the distinguished idempotents on it, and dim Hom to and from each
    simple S_i (empty when the radical is out of reach of the field).  Those
    are ranks of e_i on top(M) and soc(M): e_i.X ~ Hom(A.e_i, X) = Hom(S_i, X)
    for semisimple X, and Hom between semisimples has symmetric dimension, so
    dim Hom(M, S_i) = dim e_i.M - dim e_i.rad(M), dim Hom(S_i, M) = dim e_i.soc(M)."""
    if m._profile is None:
        f = m.field
        split = m.idempotent_split()  # P_i gives coordinates on e_i.M, so dim e_i.X = rank(P_i X)
        idem_dims = tuple(p.shape[0] for _, p in split)
        try:
            spans, stacked = _radical_action(m)
            coords = [split[i][1] for i in _simple_classes(m.algebra)]
        except FieldRestrictionError:
            to_s = from_s = ()
        else:
            rad, soc = column_space_basis(spans, f), kernel_basis(stacked, f)
            to_s = tuple(p.shape[0] - rank(f.matmul(p, rad), f) for p in coords)
            from_s = tuple(rank(f.matmul(p, soc), f) for p in coords)
        m._profile = (m.dim, idem_dims, to_s, from_s)
    return m._profile


_ISO_TRIALS = 64  # random combinations of a Hom basis tried before "probably_no"


def is_isomorphic(m: Module, n: Module, seed: int = 0) -> IsoResult:
    """Randomized isomorphism test with deterministic No certificates.

    No when dimensions or Hom profiles against the simples differ (ranks of
    the idempotents on top and socle, see hom_profile); Yes with an
    invertible intertwiner as proof; ProbablyNo after the sampling budget.
    """
    if not m.algebra.same_as(n.algebra):
        raise AlgebraError("modules live over different algebras")
    f = m.field
    if m.dim != n.dim:
        return IsoResult("no", certificate=f"dim {m.dim} != {n.dim}")
    if m.dim == 0:
        return IsoResult("yes", witness=ModuleMap(m, n, f.zeros(0, 0), _validate=False))
    pm, pn = hom_profile(m), hom_profile(n)
    if pm != pn:
        return IsoResult("no", certificate=f"hom profile {pm} != {pn}")
    basis = hom_space(m, n)
    if not len(basis):
        return IsoResult("no", certificate="Hom(m, n) = 0")
    for s, mat in enumerate(basis.matrices):
        if rref(mat, f).rank == m.dim:
            return IsoResult("yes", witness=basis.map(s))
    rng = np.random.default_rng(seed)
    for t in range(_ISO_TRIALS):
        if f.is_prime_field:
            coeff = f.asarray(rng.integers(0, f.p, size=len(basis)))
        else:
            coeff = f.asarray(rng.integers(-5, 6, size=len(basis)))
        cand = f.einsum("s,sab->ab", coeff, basis.matrices)
        if rref(cand, f).rank == m.dim:
            return IsoResult("yes", witness=ModuleMap(m, n, cand, _validate=False), trials=t + 1)
    return IsoResult("probably_no", trials=_ISO_TRIALS)


def bimodules_isomorphic(m: Bimodule, n: Bimodule, env: Algebra, seed: int = 0) -> IsoResult:
    """Isomorphism of bimodules = isomorphism over the enveloping algebra env."""
    return is_isomorphic(m.env_module(env), n.env_module(env), seed=seed)


# -- serialization -----------------------------------------------------------------


def serialize_module(m: Module) -> dict:
    """Wire format for report witnesses: {"dim": n, "action": [matrices]}."""
    return {"dim": m.dim, "action": m.action.tolist()}


# -- random generators ------------------------------------------------------------


def random_module(a: Algebra, rng: np.random.Generator, max_summands: int = 3) -> Module:
    """Cokernel of a random map between random sums of projective
    indecomposables; every finite-dimensional module arises this way."""
    projs = projective_indecomposables(a)
    f = a.field
    k0 = int(rng.integers(1, max_summands + 1))
    q0 = direct_sum([projs[int(rng.integers(0, len(projs)))] for _ in range(k0)])
    k1 = int(rng.integers(0, max_summands + 1))
    if k1 == 0:
        return q0
    q1 = direct_sum([projs[int(rng.integers(0, len(projs)))] for _ in range(k1)])
    homs = hom_space(q1, q0)
    if not len(homs):
        return q0
    coeff = rng.integers(0, f.p if f.is_prime_field else 7, size=len(homs))
    mat = f.einsum("s,sab->ab", f.asarray(coeff), homs.matrices)
    quot, _ = quotient_module(q0, column_space_basis(mat, f).T)
    return quot


# -- indecomposables and module pools ---------------------------------------------


def _radical_layers(p: Module) -> Optional[list]:
    """Column bases in P of rad P, rad^2 P, ..., 0 when each rad^k P has a simple
    top (dim Hom to the simples sums to 1); else None, as when J is out of reach."""
    layers, m, incl = [], p, p.field.eye(p.dim)
    while m.dim:
        if sum(hom_profile(m)[2]) != 1:
            return None
        r = radical(m)
        incl, m = p.field.matmul(incl, r.matrix), r.source
        layers.append(incl)
    return layers


def _indecomposable_data(a: Algebra) -> Optional[list]:
    """(i, k, arrays) per simple class i and 1 <= k <= length of P_i when every
    projective indecomposable over a and over its opposite is uniserial, else
    None; kept on a.  The P_i/rad^k P_i are then all the indecomposables of the
    Nakayama algebra a, each once (Auslander, Reiten & Smalo, IV.2 and VI).
    arrays (no modules, as for A.e_i) are the action, the cover P_i ->
    P_i/rad^k P_i with its kernel and a section, and the module's GP
    verdicts; None when rad^k P_i = 0."""
    if "indecomposables" not in a._derived:
        projs = projective_indecomposables(a)
        layers = [_radical_layers(p) for p in projs]
        data = None
        if None not in layers and all(_radical_layers(p) is not None for p in projective_indecomposables(opposite(a))):
            data = []
            for i in _simple_classes(a):
                for k, cols in enumerate(layers[i][:-1], 1):
                    quot, proj = quotient_module(projs[i], cols.T)
                    kernel, section = kernel_and_section(proj.matrix, a.field)
                    for x in (kernel, section):
                        x.setflags(write=False)
                    data.append((i, k, (quot.action, proj.matrix, kernel, section, {})))
                data.append((i, len(layers[i]), None))
        a._derived["indecomposables"] = data
    return a._derived["indecomposables"]


def indecomposables(a: Algebra) -> Optional[list[Module]]:
    """Every indecomposable over a once, when a is certified Nakayama, else
    None: the P_i/rad^k P_i, wrapped again from the kept arrays on each call,
    each but P_i keeping its quotient map as its cover (Hom off e_i.N)."""
    data = _indecomposable_data(a)
    if data is None:
        return None
    projs, out = projective_indecomposables(a), []
    for i, _, arrays in data:
        m = projs[i]
        if arrays is not None:
            m = Module._wrap(a, arrays[0], None, None, arrays[-1])
            m._cover = _Cover(projs[i], *arrays[1:-1])
        out.append(m)
    return out


@dataclass
class ModulePool:
    """Labelled modules to check additive claims on.  Certified: every
    indecomposable once, so an additive claim that holds on the pool holds
    for every module; else seeded samples, evidence only."""

    modules: dict  # label -> Module
    certified: bool

    def where(self, predicate) -> "ModulePool":
        return ModulePool({k: m for k, m in self.modules.items() if predicate(m)}, self.certified)

    def to_json(self) -> dict:
        return {"certified": self.certified, "modules": len(self.modules)}


def module_pool(a: Algebra, samples: int, rng: np.random.Generator) -> ModulePool:
    """The indecomposables over a, labelled P<i>/rad^<k>, when certified;
    else the nonzero ones of `samples` seeded random modules."""
    found = indecomposables(a)
    if found is not None:
        return ModulePool({f"P{i}/rad^{k}": m for (i, k, _), m in zip(_indecomposable_data(a), found)}, True)
    drawn = (random_module(a, rng, max_summands=2) for _ in range(samples))
    return ModulePool({f"sample {t}": m for t, m in enumerate(drawn) if m.dim}, False)
