"""Finite-dimensional modules, bimodules, Hom spaces, covers and resolutions.

A left module is one action matrix per algebra basis element.  A bimodule
stores its two one-sided actions, and hom_space, hom_profile and
is_isomorphic take it as a module over A (x) B^op read off those actions.
Everything reduces to exact linear algebra.  Hom spaces come back in one
canonical basis, read off e_i.N out of the kept projective cover (an A.e_i
is its own); tensor products are quotients by balancing relations;
projectivity is read off the width of the kept cover.

What the engine derives from a module is kept by the module's content, per
algebra, and nowhere else: each algebra keeps one table from (dim, exact key
of the action) to a record of arrays, ints, tuples and dicts, never a module.
A record holds the idempotent split, the Hom profile, the projective cover
(summand indices and pi, then ker pi and a section), the id of the syzygy,
the ids of its support blocks, its projective dimension as far as walked,
the Hom bases out of the content keyed by the target's id, and
Gorenstein-projective verdicts.  Syzygies are walks on these ids, one
support block at a time: pd (_walk_pd), and the Ext and Tor dimensions by
dimension shifting (_shift_dims), which read kept Hom dimensions and build
no resolution complex.  So a second module with an equal action reuses the
first one's split, profile, covers, its whole syzygy chain and its Hom bases
with no new elimination; a module itself holds only its algebra, action,
dimension and record id.  Modules built from a record (the A.e_i, pool
modules, syzygies) are held weakly: while a caller holds one, the same
object comes back, otherwise the kept arrays are wrapped again.  A cover
module is built from its summand indices when asked for.  A bimodule has a
record of the same kind, in no table, for its split and profile.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
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
    "ModulePool",
    "module_pool",
]


class Module:
    """Left module over an algebra: one dim x dim action matrix per basis element."""

    _id = None  # of its content in the algebra's table, once looked up

    def __init__(self, algebra: Algebra, action: np.ndarray, _validate=True):
        self.algebra = algebra
        f = algebra.field
        self.action = f.asarray(action)
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim or self.action.shape[1] != self.action.shape[2]:
            raise AlgebraError(f"action array has shape {self.action.shape}, need ({algebra.dim}, n, n)")
        self.dim = self.action.shape[1]
        self.action.setflags(write=False)
        if _validate:
            self._validate()

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
        # the x it holds for form a subalgebra containing 1, so all of A.  Both
        # sides, [x, y, a, c], come from one sparse product each: the nonzero
        # entries of x's action and of the products xy gather rows of the action
        gens = self.algebra.generators()[1:]
        g, d, n = len(gens), self.algebra.dim, self.dim
        acts = f.einsum("gi,iab->gab", gens, self.action)
        lhs = f.sparse_matmul(acts.reshape(g * n, n), self.action.transpose(1, 0, 2).reshape(n, d * n))
        lhs = lhs.reshape(g, n, d, n).transpose(0, 2, 1, 3)
        rhs = f.sparse_matmul(self.algebra.generator_products().reshape(g * d, d), self.action.reshape(d, n * n)).reshape(g, d, n, n)
        if not np.array_equal(lhs, rhs):  # entries are reduced: compare directly
            bad = np.nonzero(lhs != rhs)
            raise AlgebraError(f"representation property fails at generator {bad[0][0]}, basis element {bad[1][0]}")

    def act_vector(self, x) -> np.ndarray:
        """Matrix by which the algebra element with coefficient vector x acts."""
        return self.algebra.field.einsum("i,iab->ab", x, self.action)

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def _gp_verdicts(self) -> dict:
        """cutoff -> GPVerdict (see is_gorenstein_projective), kept with the content."""
        return _kept(self).gp_verdicts

    def idempotent_split(self) -> tuple:
        """One pair (U_i, P_i) per distinguished idempotent e_i, computed once per content.

        U_i (dim x d_i) is a basis of e_i.M, the transposed nonzero rows of
        rref(E_i^T), so it is the identity on its pivot rows; P_i = E_i[pivots]
        (d_i x dim) gives coordinates on it, and E_i = U_i P_i.  When E_i is a
        coordinate projection (the usual case) that rref is read off directly.
        """
        kept = _kept(self)
        if kept.split is None:
            kept.split = _split_by(self.field, self.dim, [self.act_vector(e) for e in self.algebra.prim_idempotents])
        return kept.split

    def _acts(self, rows) -> np.ndarray:
        """The elements rows(algebra) acting, stacked (g, dim, dim)."""
        return self.field.einsum("gi,iab->gab", rows(self.algebra), self.action)

    def _class_indices(self) -> tuple:  # into idempotent_split, one per class of simples
        return _simple_classes(self.algebra)

    def _over_same(self, other) -> bool:
        return self.algebra.same_as(other.algebra)

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


def _split_by(f: Field, dim: int, acts) -> tuple:
    """Module.idempotent_split from the actions E_i of the idempotents."""
    eye = f.eye(dim)
    split = []
    for act in acts:
        support = np.flatnonzero(np.diagonal(act))
        if np.count_nonzero(act) == support.size:
            split.append((eye[:, support], act[support]))
            continue
        r = rref(act.T, f)
        split.append((r.matrix[: r.rank].T, act[list(r.pivots)]))
    if sum(u.shape[1] for u, _ in split) != dim:
        raise AlgebraError("the distinguished idempotents do not split the module: sum of dim e_i.M != dim M")
    return tuple(split)


class ModuleMap:
    """A linear map intertwining two modules, or two bimodules, over the same algebras."""

    def __init__(self, source: Module, target: Module, matrix: np.ndarray, _validate=True):
        if not source._over_same(target):
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
        lhs = f.matmul(self.matrix, self.source._acts(Algebra.generators))
        rhs = f.matmul(self.target._acts(Algebra.generators), self.matrix)
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
    """(A, B)-bimodule: the pair of its one-sided modules, built once and kept.

    left_action[i] is the matrix of the i-th basis element of A acting on the
    left, the action of left_restrict(); right_action[j] is the matrix of
    x -> x.b_j, the action of right_restrict(), a left module over B^op.
    What is derived from a side (its cover, split and profile) is kept with
    that side's content, the bimodule's own split and profile on its record.
    The validation checks both representation properties and that the
    actions commute (on generator pairs, which suffices by bilinearity).

    As a module over A (x) B^op, its idempotents are the e_a (x) f_b, a-major,
    its further generators g (x) 1 and 1 (x) h, and its radical J(A) (x) B^op
    + A (x) J(B^op) over a perfect field (Pierce, Associative Algebras), all
    read off the two actions: the product algebra is never built.
    """

    def __init__(self, left: Algebra, right: Algebra, left_action, right_action, _validate=True):
        if left.field != right.field:
            raise AlgebraError("bimodule factors need a common field")
        f = left.field
        self.left, self.right = left, right
        self._sides = (Module(left, left_action, _validate), Module(opposite(right), right_action, _validate))
        self.dim = self._sides[0 if left.dim else 1].dim
        self._record = _Kept()
        if _validate:
            if self.left_action.shape[1] != self.right_action.shape[1]:
                raise AlgebraError(
                    f"left action has dimension {self.left_action.shape[1]}, right action dimension {self.right_action.shape[1]}"
                )
            lg, rh = np.split(self._acts(Algebra.generators), [len(left.generators())])
            if not f.equal(f.matmul(lg[:, None], rh[None]), f.matmul(rh[None], lg[:, None])):
                raise AlgebraError("left and right actions do not commute")

    @property
    def field(self) -> Field:
        return self.left.field

    @property
    def left_action(self) -> np.ndarray:
        return self._sides[0].action

    @property
    def right_action(self) -> np.ndarray:
        return self._sides[1].action

    def left_restrict(self) -> Module:
        return self._sides[0]

    def right_restrict(self) -> Module:
        """The right B-module structure, as a left module over B^op."""
        return self._sides[1]

    def flip(self) -> "Bimodule":
        """The same space as a (B^op, A^op)-bimodule, on the same two modules swapped."""
        out = Bimodule.__new__(Bimodule)
        out.left, out.right, out.dim, out._sides = self._sides[1].algebra, opposite(self.left), self.dim, self._sides[::-1]
        out._record = _Kept()
        return out

    def _acts(self, rows) -> np.ndarray:
        """rows(A) acting on the left, then rows(B) on the right (B^op has B's rows), stacked."""
        return np.concatenate([side._acts(rows) for side in self._sides])

    def idempotent_split(self) -> tuple:
        """Module.idempotent_split over the e_a (x) f_b, acting as E_a F_b; computed once."""
        if self._record.split is None:
            es, fs = np.split(self._acts(lambda a: np.stack(a.prim_idempotents)), [len(self.left.prim_idempotents)])
            self._record.split = _split_by(self.field, self.dim, self.field.matmul(es[:, None], fs[None]).reshape(-1, self.dim, self.dim))
        return self._record.split

    def _class_indices(self) -> tuple:
        """Pairs (a, b) of the factors' class representatives, a-major: the S_a (x) S_b."""
        k = len(self.right.prim_idempotents)
        return tuple(a * k + b for a in _simple_classes(self.left) for b in _simple_classes(self.right))

    def _over_same(self, other) -> bool:
        return self.left.same_as(other.left) and self.right.same_as(other.right)

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
    return Module(a, block_diag(a.field, [m.action for m in mods]), _validate=False)


def submodule(m: Module, incl_cols: np.ndarray) -> tuple[Module, ModuleMap]:
    """Module structure on an invariant subspace given by reduced columns.

    The columns must be the identity on some rows (linalg.unit_rows), as every
    basis from column_space_basis, kernel_basis or transposed rref rows is;
    coordinates are then read off those rows.  Raises DimensionMismatch for a
    basis that is not reduced and AlgebraError for one that is not invariant.
    """
    sub = Module(m.algebra, _submodule_action(m, incl_cols), _validate=False)
    return sub, ModuleMap(sub, m, incl_cols, _validate=False)


def _submodule_action(m: Module, incl_cols: np.ndarray) -> np.ndarray:
    """submodule's action, reduced, after its checks."""
    f = m.field
    if incl_cols.shape[1] == 0:
        return f.zeros(m.algebra.dim, 0, 0)
    coords = unit_rows(incl_cols)
    # unit vectors as columns (a coordinate subspace) restrict by a gather
    unit_columns = np.count_nonzero(incl_cols) == incl_cols.shape[1]
    moved = m.action[:, :, coords] if unit_columns else f.matmul(m.action, incl_cols)
    act = moved[:, coords]
    # incl_cols @ act equals moved on the coordinate rows by construction;
    # every other row, a repeated unit row included, must be checked: where
    # unit columns vanish, moved must vanish too (entries are reduced)
    rest = np.ones(m.dim, dtype=bool)
    rest[coords] = False
    if unit_columns:
        invariant = not np.count_nonzero(moved[:, rest])
    else:
        invariant = f.equal(f.matmul(incl_cols[rest], act), moved[:, rest])
    if not invariant:
        raise AlgebraError("subspace is not invariant under the action")
    return act


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

    Hom(A.e_i, N) = e_i.N (Lux & Szoke, Exp. Math. 12, 2003), so the kept
    cover pi: P -> M gives Hom(M, N) = {psi.sigma : psi in Hom(P, N),
    psi.ker(pi) = 0}, sigma a linear section; an A.e_i is its own cover.
    A bimodule reads its left side's cover, under commutation with its
    right side's generators.  Only where the cover is out of reach of the
    field (_block_system) are the unknowns the blocks e_j.N <- e_i.M.
    One rref of [conditions | reversed basis matrices] ends every path: its
    rows past the condition pivots are the rref of the reversed Hom(m, n),
    so the basis is the same unique one, the identity on the coordinates
    where some map has its last nonzero row-major entry, in increasing order
    of that coordinate (the pivots, read back through the reversal).
    Between modules the basis is kept with m's content, keyed by n's; a
    bimodule source's is computed each time.
    """
    if not m._over_same(n):
        raise AlgebraError("hom_space needs modules over the same algebra")
    if isinstance(m, Bimodule):
        return HomBasis(m, n, *_hom_basis(m, n))
    homs, target = _kept(m).homs, _content_id(m.algebra, n)
    if target not in homs:
        homs[target] = _hom_basis(m, n)
    return HomBasis(m, n, *homs[target])


def _hom_basis(m, n) -> tuple[np.ndarray, np.ndarray]:
    """hom_space's (matrices, positions)."""
    f, size = m.field, n.dim * m.dim
    empty = _read_only(f.zeros(0, n.dim, m.dim)), _read_only(np.zeros(0, dtype=np.int64))
    if size == 0:
        return empty
    side, into = (m.left_restrict(), n.left_restrict()) if isinstance(m, Bimodule) else (m, n)
    kept = _kept(side)
    try:
        summands, _ = _cover_of(side.algebra, kept)
    except FieldRestrictionError:
        stack, res = _block_system(m, n)
    else:  # Hom(P, N): a.e_i |-> a.v on one summand, v a column of V_i
        images = {i: _maps_out_of_projective(into, i, into.idempotent_split()[i][0]) for i in set(summands)}
        stack = block_diag(f, [images[i] for i in summands]).transpose(1, 0, 2)
        kernel, section = _cover_arrays(kept, f)
        res = f.matmul(stack, kernel).reshape(stack.shape[0], n.dim * kernel.shape[1])
        stack = f.matmul(stack, section)
        if side is not m:  # a bimodule: psi.sigma commutes with its right side too
            res = np.concatenate([res, _commutators(stack, m.right_restrict(), n.right_restrict(), Algebra.generators)], axis=1)
    u = stack.shape[0]
    if u == 0:
        return empty
    res = res[:, np.any(res != 0, axis=0)]  # drop conditions no unknown touches
    r = rref(np.concatenate([res, stack.reshape(u, -1)[:, ::-1]], axis=1), f)
    c = res.shape[1]
    first = sum(1 for pc in r.pivots if pc < c)
    rows = r.matrix[first : r.rank, c:][::-1, ::-1]
    positions = np.array([size - 1 - (pc - c) for pc in r.pivots[first : r.rank]][::-1], dtype=np.int64)
    return _read_only(np.ascontiguousarray(rows).reshape(-1, n.dim, m.dim)), _read_only(positions)


def _block_system(m, n) -> tuple[np.ndarray, np.ndarray]:
    """_hom_basis's unknowns X = sum_i V_i Y_i P_i (V_i a basis of e_i.N, P_i
    coordinates on e_i.M) and their conditions, where _cover_of raises."""
    splits = zip(n.idempotent_split(), m.idempotent_split())
    stack = np.concatenate([m.field.einsum("na,bm->abnm", v, p).reshape(-1, n.dim, m.dim) for (v, _), (_, p) in splits])
    return stack, _commutators(stack, m, n, Algebra.generators_beyond_idempotents)


def _commutators(stack: np.ndarray, m, n, rows) -> np.ndarray:
    """X.a - b.X for each map X of the stack and each element of rows(algebra),
    acting as a on m and as b on n: one row of conditions per map."""
    f = m.field
    out = f.normalize(f.matmul(stack[:, None], m._acts(rows)[None]) - f.matmul(n._acts(rows)[None], stack[:, None]))
    return out.reshape(stack.shape[0], math.prod(out.shape[1:]))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _maps_out_of_projective(n: Module, i: int, vs: np.ndarray) -> np.ndarray:
    """[b, k, r] = (x_r.v_k)_b, x_r the basis of A.e_i and v_k the columns of
    vs, vectors of e_i.N: the maps A.e_i -> N, x |-> x.v_k, from two products."""
    f = n.field
    return f.matmul(f.matmul(n.action, vs).transpose(1, 2, 0), _projective_data(n.algebra)[i].embedding)


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


def _acting_layouts(acts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elements acting on M, stacked (r, dim, dim), laid out side by side
    (dim, r*dim), whose columns span their images (rad(M) = J.M for the rows
    of J), and stacked (r*dim, dim), whose kernel is soc(M) = {x : J.x = 0}."""
    r, n = acts.shape[:2]
    return acts.transpose(1, 0, 2).reshape(n, r * n), acts.reshape(r * n, n)


def radical(m: Module) -> ModuleMap:
    """Inclusion of rad(M) = J(algebra) . M (on both sides of a bimodule)."""
    spans, _ = _acting_layouts(m._acts(algebra_radical_rows))
    _, inclusion = submodule(m, column_space_basis(spans, m.field) if spans.size else spans)
    return inclusion


@dataclass
class _Kept:
    """What an algebra keeps of one module content: its action (over F_p a
    view of the content key's bytes), its split, profile, cover, syzygy,
    support blocks, projective dimension and Hom bases, and weak references
    to the modules last handed out.  Arrays, numbers, tuples and dicts only,
    so nothing kept refers back to the algebra or to a module.  A bimodule's
    record sits in no table and keeps its split and profile only."""

    id: Optional[int] = None  # in the algebra's table
    action: Optional[np.ndarray] = None
    index: Optional[int] = None  # i when the content is A.e_i's
    split: Optional[tuple] = None  # idempotent_split, on first use
    profile: Optional[tuple] = None  # hom_profile, on first use
    embedding: Optional[np.ndarray] = None  # A.e_i: columns into the regular module, elements of A
    cover: Optional[tuple] = None  # (summand indices of P, pi: P -> M)
    kernel: Optional[np.ndarray] = None  # ker pi, on first use
    section: Optional[np.ndarray] = None  # pi.sigma = 1, on first use
    syzygy: Optional[int] = None  # id of Omega(M) = ker pi, on first use
    blocks: Optional[tuple] = None  # ids of the summands on the support's components, on first use
    pd: Optional[float] = None  # as far as walked: an int, inf, or b + 0.5 for "more than b"
    homs: dict = field(default_factory=dict)  # target id -> hom_space's (matrices, positions)
    gp_verdicts: dict = field(default_factory=dict)  # cutoff -> GPVerdict, see is_gorenstein_projective
    handed_out: Optional[weakref.ref] = None


def _table(a: Algebra) -> tuple[dict, list]:
    """a's table of module contents: (dim, Field.content_key) -> id, and the
    records by id."""
    if "modules" not in a._derived:
        a._derived["modules"] = {}, []
    return a._derived["modules"]


def _intern(a: Algebra, action: np.ndarray, *tag) -> _Kept:
    """The record of this content in a's table, made when it is new; a tag
    keeps a record apart from the content's own."""
    f, (ids, records) = a.field, _table(a)
    key = (action.shape[1], f.content_key(action), *tag)
    if key not in ids:
        # over F_p the key's bytes are the one copy kept
        action = np.frombuffer(key[1], dtype=np.int64).reshape(action.shape) if f.is_prime_field else _read_only(action)
        ids[key] = len(records)
        records.append(_Kept(len(records), action))
    return records[ids[key]]


def _kept(m) -> _Kept:
    """The record of m's content, looked up once per module; a bimodule's own."""
    if isinstance(m, Bimodule):
        return m._record
    if m._id is None:
        m._id = _intern(m.algebra, m.action).id
    return _table(m.algebra)[1][m._id]


def _content_id(a: Algebra, m: Module) -> int:
    """Id of m's content in a's table; a may be an equal algebra built apart."""
    return _kept(m).id if m.algebra is a else _intern(a, m.action).id


def _hand_out(a: Algebra, kept: _Kept) -> Module:
    """The module last handed out for kept while a caller holds it; else
    the kept arrays wrapped again, taken as they are: no copy or validation."""
    m = kept.handed_out() if kept.handed_out else None
    if m is None:
        m = Module.__new__(Module)
        m.algebra, m.action, m.dim = a, kept.action, kept.action.shape[1]
        m._id = kept.id
        kept.handed_out = weakref.ref(m)
    return m


def _projective_data(a: Algebra) -> list[_Kept]:
    """The records of the A.e_i, one per distinguished idempotent, built once per algebra."""
    if "projectives" not in a._derived:
        reg = regular_module(a)
        data = []
        # A.e_i is the image of x -> x.e_i: one split of the regular module by these actions
        for i, (cols, _) in enumerate(_split_by(a.field, a.dim, [a.right_mult_matrix(e) for e in a.prim_idempotents])):
            action = _submodule_action(reg, cols)
            cols.setflags(write=False)
            kept = _intern(a, action)
            if kept.index is not None:  # A.e_j's content too (isomorphic idempotents): a record of its own
                kept = _intern(a, action, i)
            kept.index, kept.embedding = i, cols
            if kept.cover is None:  # A.e_i is its own cover: pi = 1, ker pi = 0
                eye = _read_only(a.field.eye(cols.shape[1]))
                kept.cover, kept.kernel, kept.section = ((i,), eye), _read_only(a.field.zeros(cols.shape[1], 0)), eye
            data.append(kept)
        a._derived["projectives"] = data
    return a._derived["projectives"]


def projective_indecomposables(a: Algebra) -> list[Module]:
    """The modules A.e_i for the distinguished primitive idempotents, in a
    new list on each call, handed out from the records kept on the algebra."""
    return [_hand_out(a, kept) for kept in _projective_data(a)]


def simples_by_idempotent(a: Algebra) -> list[Module]:
    """top(P_i) for each distinguished idempotent (iso repeats possible)."""
    return [quotient_module(p, radical(p).matrix.T)[0] for p in projective_indecomposables(a)]


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

    The candidate generators are the columns of the e_i.M, i-major; one is
    accepted when its image w in top(M) is not in the submodule spanned by
    the images accepted before it.  Each accepted generator contributes one
    indecomposable summand and one simple to the top, so the induced map on
    tops is an isomorphism.

    Two rank profiles find the accepted ones.  Every earlier candidate lies
    in the covered submodule, so only the pivot columns w_1 < ... < w_P of
    the laid-out images can be new.  Each w_j that is not new lies in the
    span of the accepted ones before it, so A.{w_1..w_j} is what the
    accepted generators up to w_j span; w_j is accepted exactly when the
    block (b_r.w_j, r over the basis of A) holds a pivot of the second
    profile.  Neither argument needs a basic or split algebra.
    The summands and the surjection's matrix are kept with m's content.
    """
    kept = _kept(m)
    _, surj = _cover_of(m.algebra, kept)
    cover = _cover_module(m.algebra, kept)
    return cover, ModuleMap(cover, m, surj, _validate=False)


def _compute_cover(m: Module) -> tuple[tuple, np.ndarray]:
    """projective_cover's summand indices and surjection, computed."""
    a, f = m.algebra, m.field
    if m.dim == 0:
        return (), _read_only(f.zeros(0, 0))
    proj, _ = quotient_coordinates(radical(m).matrix.T, f)
    cols, _ = _acting_layouts(m._acts(lambda a: np.stack(a.prim_idempotents)))
    first = rref(f.matmul(proj, cols), f).pivots
    # b_r.w_j is proj(b_r.v_j) for the lift v_j of w_j in M, laid out j-major
    spans = f.matmul(proj, f.matmul(m.action, cols[:, list(first)])).transpose(1, 2, 0).reshape(proj.shape[0], -1)
    r = rref(spans, f)
    if r.rank != proj.shape[0]:
        raise AlgebraError("projective cover construction failed to cover the top")
    gens = [first[j] for j in dict.fromkeys(c // a.dim for c in r.pivots)]  # columns of cols
    # the generators come grouped by summand index i, one block of maps per group
    groups = itertools.groupby(gens, key=lambda c: c // m.dim)
    blocks = [_maps_out_of_projective(m, i, cols[:, list(g)]).reshape(m.dim, -1) for i, g in groups]
    return tuple(c // m.dim for c in gens), _read_only(np.concatenate(blocks, axis=1))


def _cover_module(a: Algebra, kept: _Kept) -> Module:
    """The cover of kept's content, built from the kept summand indices."""
    data, summands = _projective_data(a), kept.cover[0]
    return direct_sum([_hand_out(a, data[i]) for i in summands]) if summands else zero_module(a)


def _cover_arrays(kept: _Kept, f: Field) -> tuple:
    """ker pi of kept's cover and a section sigma (pi.sigma = 1), from one
    rref, computed once."""
    if kept.kernel is None:
        kept.kernel, kept.section = kernel_and_section(kept.cover[1], f)
    return kept.kernel, kept.section


def _cover_of(a: Algebra, kept: _Kept) -> tuple:
    """kept.cover, computed on first use from the module handed out for it;
    the A.e_i come first, so an A.e_i's content keeps its own cover."""
    if kept.cover is None:
        _projective_data(a)
        kept.cover = kept.cover or _compute_cover(_hand_out(a, kept))
    return kept.cover


def _syzygy(a: Algebra, kept: _Kept) -> _Kept:
    """The record of Omega(M) = ker pi for kept's content, found once."""
    if kept.syzygy is None:
        _cover_of(a, kept)
        kernel, _ = _cover_arrays(kept, a.field)
        kept.syzygy = _intern(a, _submodule_action(_cover_module(a, kept), kernel)).id
    return _table(a)[1][kept.syzygy]


def cover_sequence(m: Module) -> tuple[ModuleMap, ModuleMap]:
    """The inclusion of Omega(M) = ker pi into the cover P, and pi: P -> M.
    Omega(M) is found once per content and kept by its own content: a later
    call hands out the module last handed out for it, or wraps its kept
    action again."""
    cover, surj = projective_cover(m)
    kept = _kept(m)
    kernel, _ = _cover_arrays(kept, m.field)
    omega = _hand_out(m.algebra, _syzygy(m.algebra, kept))
    return ModuleMap(omega, cover, kernel, _validate=False), surj


def _blocks(a: Algebra, kept: _Kept) -> tuple:
    """Ids of the summands of kept's content spanned by the connected
    components of its support (the nonzero pattern of the action over every
    basis element, symmetrised), by least basis vector; found once.  A
    content whose cover has one summand has a simple top, so it is
    indecomposable and its support is not scanned."""
    if kept.blocks is None:
        parts = _components(np.any(kept.action != 0, axis=0)) if len(_cover_of(a, kept)[0]) > 1 else ()
        kept.blocks = tuple(_intern(a, kept.action[:, c][:, :, c]).id for c in parts) if len(parts) > 1 else (kept.id,)
    return kept.blocks


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Vertex sets of the connected components of the graph adj | adj.T, by
    least vertex: each vertex takes the least label next to it until none
    changes."""
    n = adj.shape[0]
    adj = adj | adj.T | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:
        least = np.where(adj, labels, n).min(axis=1)
        if np.array_equal(least, labels):
            return [np.flatnonzero(labels == r) for r in np.flatnonzero(labels == np.arange(n))]
        labels = least


def _walk_pd(m: Module, budget: int) -> float:
    """pd of m's content as far as budget syzygies reach: an int v <= budget,
    else inf or c + 0.5 (c >= budget), which says only pd > c.

    A walk on ids in the algebra's table: pd X = 0 when Omega(X) = 0, else 1
    + the largest pd over the blocks of Omega(X), each walked with one step
    less (Omega and pd are additive over direct sums).  A block on the
    walk's path is a non-projective summand of one of its own syzygies, so
    its pd is infinite (a finite pd drops by one with each syzygy), and so
    is that of every record on the path.  Every value is kept on
    its record; a "more than c" is walked again only for a larger budget.
    The path is a list, not the call stack, so the budget may be any size."""
    a = m.algebra
    records, path = _table(a)[1], []  # frames [record, budget, ids of its syzygy's blocks left, largest pd so far]

    def step(kept: _Kept, budget: int) -> Optional[float]:
        """kept's value when its record or its syzygy gives it; else None, with its frame pushed."""
        v = kept.pd
        if isinstance(v, int) or (v is not None and v > budget):
            return v if v <= budget or isinstance(v, float) else budget + 0.5
        omega = _syzygy(a, kept)
        if omega.action.shape[1] and budget:
            path.append([kept, budget, iter(dict.fromkeys(_blocks(a, omega))), 0])
            return None
        kept.pd = 0.5 if omega.action.shape[1] else 0
        return kept.pd

    value = step(_kept(m), budget)
    while path:
        frame = path[-1]
        if value is not None:
            frame[3] = max(frame[3], value)
        block = next(frame[2], None) if frame[3] != math.inf else None
        if block is None:
            path.pop()
            value = frame[0].pd = 1 + frame[3]
        elif any(block == f[0].id for f in path):
            value = math.inf
        else:
            value = step(records[block], frame[1] - 1)
    return value


def _shift_dims(m: Module, top: int, value, free) -> list[int]:
    """d_0 .. d_top for an additive functor F, given by value(X) = F(X) for
    a module X over m's algebra and free(i) = F(A.e_i): d_0 = F(M) and
    d_i = F(Omega^i M) - F(P_{i-1}) + F(Omega^{i-1} M), P_{i-1} the cover of
    Omega^{i-1} M.

    For F = dim Hom(-, N) these are the dimensions of Ext^i(M, N), and for
    F = dim X (x) - those of Tor_i(X, M): Hom(-, N) turns 0 -> Omega^i ->
    P_{i-1} -> Omega^{i-1} -> 0 into an exact sequence ending in
    Ext^1(Omega^{i-1} M, N) = Ext^i(M, N), and X (x) - into one beginning
    with Tor_i(X, M) (dimension shifting, Weibel 2.4).  Omega^i M is a
    multiset of support-block ids (_syzygy then _blocks, as in _walk_pd), so
    a syzygy made of copies of one content costs one step; F is read once
    per id, and the walk stops at the first zero syzygy."""
    a, records, kept = m.algebra, _table(m.algebra)[1], _kept(m)
    values = {kept.id: value(m)}

    def f_of(i: int) -> int:
        if i not in values:
            values[i] = value(_hand_out(a, records[i]))
        return values[i]

    layer, previous = {kept.id: 1}, values[kept.id]
    dims = [previous]
    while layer and len(dims) <= top:
        below, covers = {}, 0
        for i, c in layer.items():
            omega = _syzygy(a, records[i])
            covers += c * sum(free(j) for j in records[i].cover[0])
            for b in _blocks(a, omega) if omega.action.shape[1] else ():
                below[b] = below.get(b, 0) + c
        current = sum(c * f_of(b) for b, c in below.items())
        dims.append(current - covers + previous)
        layer, previous = below, current
    return dims + [0] * (top + 1 - len(dims))


def is_projective(m: Module) -> bool:
    """The kept cover pi: P -> M is an isomorphism: P is as wide as M."""
    return _cover_of(m.algebra, _kept(m))[1].shape[1] == m.dim


@dataclass
class Resolution:
    """Minimal projective resolution up to a cutoff, as complexes to look at;
    the engine reads Ext and Tor off the syzygy walk instead (_shift_dims).

    differentials[0] maps terms[0] onto the target; differentials[i] maps
    terms[i] into terms[i-1].  It stops early at the first zero syzygy.
    """

    target: Module
    terms: list
    differentials: list
    cutoff: int


def minimal_resolution(m: Module, cutoff: int) -> Resolution:
    f = m.field
    terms: list[Module] = []
    diffs: list[ModuleMap] = []
    current = m
    incl_prev: Optional[ModuleMap] = None
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
            break
    return Resolution(m, terms, diffs, cutoff)


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
    m, n = right_action.shape[1], left_action.shape[1]
    gens = b.generators()[2:]  # blocks are linear: the unit's is 0, so e_1's is minus the others'.
    rm = f.einsum("gi,iab->gab", gens, right_action)
    ln = f.einsum("gi,iab->gab", gens, left_action)
    # one (m*n) x (m*n) block per generator; its columns are indexed by pure tensors (s, t)
    rels = f.normalize(np.kron(rm, f.eye(n)[None]) - np.kron(f.eye(m)[None], ln))
    proj, sect = quotient_coordinates(rels.transpose(0, 2, 1).reshape(gens.shape[0] * m * n, m * n), f)
    return TensorData(proj, sect, m, n)


def tensor_over(a_mod, b_mod) -> tuple:
    """Balanced tensor product over the shared middle algebra B.

    a_mod: Bimodule (A, B) or a plain right B-module (a Module over B^op);
    b_mod: a left B-module.  Returns a pair (result, TensorData): a left
    A-module when a_mod is a bimodule, otherwise a plain vector space as a
    module over the ground field.
    """
    right = a_mod.right_restrict() if isinstance(a_mod, Bimodule) else a_mod  # a module over B^op
    if not b_mod.algebra.same_as(opposite(right.algebra)):
        raise AlgebraError("tensor factors do not share the middle algebra")
    f = a_mod.field
    td = _balanced_tensor(f, b_mod.algebra, right.action, b_mod.action)
    if isinstance(a_mod, Bimodule):
        return Module(a_mod.left, td.induced(f, op_left=a_mod.left_action)), td
    return Module(ground_field_algebra(f), f.eye(td.proj.shape[0])[None], _validate=False), td


# -- hom modules ----------------------------------------------------------------


def hom_module(m_bimod: Bimodule, n) -> tuple:
    """Hom over the left algebra of an (A, B)-bimodule into an A-module.

    n may be a plain Module over A (result: left B-module) or a Bimodule
    (A, C) (result: (B, C)-bimodule).  Actions: (b.f)(x) = f(x.b) and
    (f.c)(x) = f(x).c.  Returns (module, HomBasis).
    """
    f = m_bimod.field
    n_left = n.left_restrict() if isinstance(n, Bimodule) else n
    if not n_left.algebra.same_as(m_bimod.left):
        raise AlgebraError("hom_module needs matching left algebras")
    hb = hom_space(m_bimod.left_restrict(), n_left)
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
    """Isomorphism invariants of m, computed once per content: its dimension,
    the ranks of the distinguished idempotents on it, and dim Hom to and from
    each simple S_i (empty when the radical is out of reach of the field).  Those
    are ranks of e_i on top(M) and soc(M): e_i.X ~ Hom(A.e_i, X) = Hom(S_i, X)
    for semisimple X, and Hom between semisimples has symmetric dimension, so
    dim Hom(M, S_i) = dim e_i.M - dim e_i.rad(M), dim Hom(S_i, M) = dim e_i.soc(M).
    For an (A, B)-bimodule, rad(M) = J(A).M + M.J(B) and the S_i are the
    S_a (x) S_b: the profile is empty only where J(A) or J(B) is out of reach."""
    kept = _kept(m)
    if kept.profile is None:
        f = m.field
        split = m.idempotent_split()  # P_i gives coordinates on e_i.M, so dim e_i.X = rank(P_i X)
        idem_dims = tuple(p.shape[0] for _, p in split)
        try:
            spans, stacked = _acting_layouts(m._acts(algebra_radical_rows))
            coords = [split[i][1] for i in m._class_indices()]
        except FieldRestrictionError:
            to_s = from_s = ()
        else:
            rad, soc = column_space_basis(spans, f), kernel_basis(stacked, f)
            to_s = tuple(p.shape[0] - rank(f.matmul(p, rad), f) for p in coords)
            from_s = tuple(rank(f.matmul(p, soc), f) for p in coords)
        kept.profile = (m.dim, idem_dims, to_s, from_s)
    return kept.profile


_ISO_TRIALS = 64  # random combinations of a Hom basis tried before "probably_no"


def is_isomorphic(m: Module, n: Module, seed: int = 0) -> IsoResult:
    """Randomized isomorphism test with deterministic No certificates.

    No when dimensions or Hom profiles against the simples differ (ranks of
    the idempotents on top and socle, see hom_profile); Yes with an
    invertible intertwiner as proof; ProbablyNo after the sampling budget.
    m and n may both be (A, B)-bimodules: a witness commutes with both actions.
    The seed must be non-negative, whether or not the sampling is reached.
    """
    if seed < 0:
        raise ValueError(f"is_isomorphic needs a non-negative seed, got {seed}")
    if not m._over_same(n):
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


def bimodules_isomorphic(m: Bimodule, n: Bimodule, seed: int = 0) -> IsoResult:
    """is_isomorphic on two bimodules, under a name of its own so that a tracer can count rung pairs."""
    return is_isomorphic(m, n, seed=seed)


# -- serialization -----------------------------------------------------------------


def serialize_module(m: Module) -> dict:
    """Wire format for report witnesses: {"dim": n, "action": [matrices]}."""
    return {"dim": m.dim, "action": m.action.tolist()}


# -- random generators ------------------------------------------------------------


def random_module(a: Algebra, rng: np.random.Generator, max_summands: int = 3) -> Module:
    """Cokernel of a random map from a random sum Q1 of projective
    indecomposables into the radical of another, Q0.  Every
    finite-dimensional module arises this way, from a minimal presentation;
    the cokernel keeps the top of Q0, so it is projective only when the map
    is 0, over a local algebra too.  Where the radical is out of reach of
    the field, the map goes into all of Q0."""
    projs = projective_indecomposables(a)
    f = a.field
    k0 = int(rng.integers(1, max_summands + 1))
    q0 = direct_sum([projs[int(rng.integers(0, len(projs)))] for _ in range(k0)])
    k1 = int(rng.integers(0, max_summands + 1))
    if k1 == 0:
        return q0
    q1 = direct_sum([projs[int(rng.integers(0, len(projs)))] for _ in range(k1)])
    try:
        into = radical(q0)
    except FieldRestrictionError:
        into = ModuleMap(q0, q0, f.eye(q0.dim), _validate=False)
    homs = hom_space(q1, into.source)
    if not len(homs):
        return q0
    coeff = rng.integers(0, f.p if f.is_prime_field else 7, size=len(homs))
    mat = f.matmul(into.matrix, f.einsum("s,sab->ab", f.asarray(coeff), homs.matrices))
    quot, _ = quotient_module(q0, column_space_basis(mat, f).T)
    return quot


# -- module pools -----------------------------------------------------------------


def _radical_layers(p: Module) -> tuple[list, bool]:
    """Column bases in P of rad P, rad^2 P, ..., 0, and whether each rad^k P
    has a simple top (dim Hom to the simples sums to 1).  Raises
    FieldRestrictionError where J is out of reach."""
    layers, m, incl, simple_tops = [], p, p.field.eye(p.dim), True
    while m.dim:
        simple_tops = simple_tops and sum(hom_profile(m)[2]) == 1
        r = radical(m)
        incl, m = p.field.matmul(incl, r.matrix), r.source
        layers.append(incl)
    return layers, simple_tops


def _indecomposable_data(a: Algebra) -> tuple[dict, bool]:
    """One record per simple class i and 1 <= k <= length of P_i, labelled
    P<i>/rad^<k>, with the certificate that every projective indecomposable
    over a and over its opposite is uniserial; kept on a.  Each P_i/rad^k P_i
    has a simple top, so is indecomposable; certified, they are all the
    indecomposables of the Nakayama algebra a, each once (Auslander, Reiten &
    Smalo, IV.2 and VI).  Where rad^k P_i = 0 the record is A.e_i's own; else
    that of the quotient's content, which keeps the quotient map
    P_i -> P_i/rad^k P_i as its cover unless it was covered before.  Where J is
    out of reach, the records are the A.e_i, labelled P<i>, uncertified."""
    if "pool" not in a._derived:
        projs = projective_indecomposables(a)
        try:
            layers = [_radical_layers(p) for p in projs]
        except FieldRestrictionError:
            data, uniserial = {f"P{i}": kept for i, kept in enumerate(_projective_data(a))}, False
        else:
            data = {}
            for i in _simple_classes(a):
                for k, cols in enumerate(layers[i][0][:-1], 1):
                    quot, proj = quotient_module(projs[i], cols.T)
                    kept = _intern(a, quot.action)
                    if kept.cover is None:  # else the content was covered before: that cover stays
                        kept.cover = (i,), proj.matrix
                        kept.kernel, kept.section = map(_read_only, kernel_and_section(proj.matrix, a.field))
                    data[f"P{i}/rad^{k}"] = kept
                data[f"P{i}/rad^{len(layers[i][0])}"] = _projective_data(a)[i]
            uniserial = all(simple for _, simple in layers) and all(_radical_layers(p)[1] for p in projective_indecomposables(opposite(a)))
        a._derived["pool"] = data, uniserial
    return a._derived["pool"]


@dataclass
class ModulePool:
    """Labelled modules to check additive claims on.  Certified: every
    indecomposable once, so an additive claim that holds on the pool holds
    for every module; else indecomposables with a simple top or a simple
    socle, evidence only."""

    modules: dict  # label -> Module
    certified: bool

    def where(self, predicate) -> "ModulePool":
        return ModulePool({k: m for k, m in self.modules.items() if predicate(m)}, self.certified)

    def to_json(self) -> dict:
        return {"certified": self.certified, "modules": len(self.modules)}


def module_pool(a: Algebra) -> ModulePool:
    """The modules of the records kept on a, handed out.  Certified, they are
    the indecomposables; else the duals D(<label>) of the opposite's records
    follow, the socle layers of the injectives, but for the simples
    D(P<i>/rad^1) ~ P<i>/rad^1, which are in the pool already."""
    records, certified = _indecomposable_data(a)
    modules = {label: _hand_out(a, kept) for label, kept in records.items()}
    if not certified:
        op = opposite(a)
        duals = _indecomposable_data(op)[0].items()
        modules |= {f"D({label})": dual(_hand_out(op, kept)) for label, kept in duals if not label.endswith("/rad^1")}
    return ModulePool(modules, certified)
