"""Finite-dimensional associative unital algebras via structure constants.

An algebra of dimension d over a field is stored as a (d, d, d) array c with
b_i * b_j = sum_k c[i, j, k] b_k, together with the unit and a distinguished
complete system of primitive orthogonal idempotents.  All constructors verify
associativity, the unit axioms and the idempotent system eagerly (except for
constructions like enveloping products whose axioms follow from the inputs').
Associativity is checked on the support of each left multiplication L_i: b_i x
lies in the span of L_i's nonzero rows and depends only on its nonzero columns,
so the d^3 equations of one i cost d^2 |rows| |cols| operations, not 2 d^5.  The
structure constants of path algebras and their quotients are almost all zero.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import DIM_BOUND, Field, column_space_basis, in_span, kernel_basis, quotient_coordinates, rank, rref, solve, solve_matrix, unit_rows

__all__ = [
    "AlgebraError",
    "FieldRestrictionError",
    "Algebra",
    "Idempotent",
    "algebra_radical_rows",
    "QuiverPresentation",
    "CornerEmbedding",
    "QuotientProjection",
    "algebra_from_structure_constants",
    "algebra_from_quiver",
    "opposite",
    "enveloping",
    "tensor_product_algebra",
    "corner",
    "quotient_by_idempotent_ideal",
    "build_ideal_matrix_algebra",
    "build_morita_square",
    "build_triangular",
    "ground_field_algebra",
    "dual_numbers_algebra",
]


class AlgebraError(ValueError):
    """A structural axiom failed; the message names the offending data."""


class FieldRestrictionError(RuntimeError):
    """Operation needs char 0 or p > dim(algebra) (trace-form radical)."""


def _check_dim(field: Field, dim: int) -> None:
    """Reject an F_p algebra beyond DIM_BOUND, where int64 products could wrap."""
    if field.is_prime_field and dim > DIM_BOUND:
        raise AlgebraError(f"algebra dimension {dim} exceeds {DIM_BOUND}: int64 arithmetic over F_p is exact only up to there")


class Algebra:
    """Immutable algebra given by structure constants.

    Attributes:
        field: the ground field
        dim: vector-space dimension
        mult: (dim, dim, dim) structure-constant array
        unit: coefficient vector of 1
        prim_idempotents: tuple of coefficient vectors, pairwise orthogonal
            primitive idempotents summing to the unit
        labels: optional basis-element names (printing only)
    """

    def __init__(self, field: Field, mult, unit, prim_idempotents, labels=None, _validate=True):
        self.field = field
        shape = np.shape(mult)
        _check_dim(field, shape[0] if shape else 0)
        self.mult = field.asarray(mult)
        if self.mult.ndim != 3 or len(set(self.mult.shape)) > 1:
            raise AlgebraError(f"structure constants must be cubic, got {self.mult.shape}")
        self.dim = self.mult.shape[0]
        self.unit = field.asarray(unit).reshape(self.dim)
        self.prim_idempotents = tuple(field.asarray(e).reshape(self.dim) for e in prim_idempotents)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.dim:
            raise AlgebraError("label count does not match dimension")
        # left_mult[i] = matrix of x -> b_i x; right_mult[j] = matrix of x -> x b_j
        self.left_mult = np.ascontiguousarray(self.mult.transpose(0, 2, 1))
        self.right_mult = np.ascontiguousarray(self.mult.transpose(1, 2, 0))
        self.mult.setflags(write=False)
        self.unit.setflags(write=False)
        # the opposite this algebra built, or a weakref to the algebra it is the opposite of
        self._opposite = None
        # what A and A^op share (generators, radical rows, simple classes), one dict for both
        self._shared: dict = {}
        # data derived once for this algebra alone (projectives, pools, Gorenstein reports)
        self._derived: dict = {}
        if _validate:
            self._validate()

    # -- basic arithmetic -------------------------------------------------

    def multiply(self, x, y) -> np.ndarray:
        return self.field.einsum("i,j,ijk->k", x, y, self.mult)

    def left_mult_matrix(self, x) -> np.ndarray:
        return self.field.einsum("i,iab->ab", x, self.left_mult)

    def right_mult_matrix(self, x) -> np.ndarray:
        return self.field.einsum("i,iab->ab", x, self.right_mult)

    def is_idempotent(self, x) -> bool:
        return self.field.equal(self.multiply(x, x), x)

    def element_from_label(self, label: str) -> np.ndarray:
        if self.labels is None:
            raise AlgebraError("algebra carries no labels")
        v = self.field.zeros(self.dim)
        v[self.labels.index(label)] = self.field.one
        return v

    def same_as(self, other: "Algebra") -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.field.equal(self.mult, other.mult)
            and self.field.equal(self.unit, other.unit)
        )

    def __repr__(self):
        k = f"F_{self.field.p}" if self.field.is_prime_field else "Q"
        return f"Algebra(dim={self.dim}, field={k})"

    # -- validation --------------------------------------------------------

    def _validate(self):
        f = self.field
        d = self.dim
        if d == 0:
            if self.prim_idempotents:
                raise AlgebraError("zero algebra cannot carry idempotents")
            return
        # unit axioms
        ident = f.eye(d)
        lu = self.left_mult_matrix(self.unit)
        ru = self.right_mult_matrix(self.unit)
        if not f.equal(lu, ident):
            raise AlgebraError("unit fails unit*b_i = b_i")
        if not f.equal(ru, ident):
            raise AlgebraError("unit fails b_i*unit = b_i")
        # associativity via operator identity: R_j L_i = L_i R_j for all i, j
        # spells out (b_i x) b_j = b_i (x b_j) for every basis triple.  Only
        # L_i's nonzero rows and columns enter: R_j L_i vanishes off its
        # columns and needs only its rows, L_i R_j the other way round, so the
        # same d^3 equations per i cost d^2 |rows| |cols|, not 2 d^5
        nz = self.mult != 0  # [i, m, k] = L_i[k, m] != 0
        for i, rows, cols in zip(range(d), nz.any(1), nz.any(2)):
            core = self.left_mult[i][np.ix_(rows, cols)]
            lhs = f.matmul(self.right_mult[:, :, rows], core)  # (R_j L_i)[:, cols]
            rhs = f.matmul(core, self.right_mult[:, cols])  # (L_i R_j)[rows]
            if not (f.equal(lhs[:, rows], rhs[:, :, cols]) and f.is_zero(lhs[:, ~rows]) and f.is_zero(rhs[:, :, ~cols])):
                li = self.left_mult[i]  # the dense pair names the failing triple
                lhs, rhs = f.matmul(self.right_mult, li), f.matmul(li[None, :, :], self.right_mult)
                j = next(j for j in range(d) if not f.equal(lhs[j], rhs[j]))
                x = int(np.nonzero(f.normalize(lhs[j] - rhs[j]))[1][0])
                raise AlgebraError(f"associativity fails at basis triple (i={i}, x={x}, j={j})")
        # idempotent system: [a, b] = e_a e_b from one contraction, against diag(e_a)
        if not self.prim_idempotents:
            raise AlgebraError("a complete system of primitive idempotents is required")
        es = np.stack(self.prim_idempotents)
        prods = f.einsum("iab,rb->ira", f.einsum("gi,iab->gab", es, self.left_mult), es)
        want = f.zeros(*prods.shape)
        want[range(len(es)), range(len(es))] = es
        bad = np.argwhere((prods != want).any(2))  # entries are reduced: compare directly
        if len(bad):
            raise AlgebraError(f"idempotent system fails at pair ({bad[0][0]}, {bad[0][1]})")
        if not f.equal(f.normalize(es.sum(0)), self.unit):
            raise AlgebraError("idempotents do not sum to the unit")

    # -- generators (used to shrink intertwiner systems) -------------------

    def generators(self) -> np.ndarray:
        """A small generating set (as rows): the unit, the distinguished
        idempotents and lifts of a basis of J/J^2, closed once (they generate
        a basic algebra), then basis vectors added greedily until the
        generated subalgebra is everything.  Generators are equivalent to the
        full basis for intertwining conditions.  The same elements generate
        the opposite, so the set is kept in the store shared with it."""
        if "generators" not in self._shared:
            f = self.field
            gens = [self.unit, *self.prim_idempotents] if self.dim else []
            try:  # J's rows reduced against rref(J^2), then one rref
                j = algebra_radical_rows(self)
                squares = f.matmul(f.einsum("gi,iab->gab", j, self.left_mult), j.T)  # [a, :, b] = J_a.J_b
                sq = rref(squares.transpose(0, 2, 1).reshape(len(j) ** 2, self.dim), f)
                top = rref(f.normalize(j - f.matmul(j[:, list(sq.pivots)], sq.matrix[: sq.rank])), f)
                gens += list(top.matrix[: top.rank])
            except FieldRestrictionError:  # p <= dim: the trace form is out of reach
                pass
            span = self._subalgebra_span(gens)
            for v in f.eye(self.dim):
                if span.shape[0] == self.dim:
                    break
                if not in_span(span, v, f):
                    gens.append(v)
                    span = self._subalgebra_span(gens)
            if span.shape[0] != self.dim:
                raise AlgebraError("generator search failed to exhaust the algebra")
            self._shared["generators"] = f.asarray(np.stack(gens)) if gens else f.zeros(0, self.dim)
        return self._shared["generators"]

    def generators_beyond_idempotents(self) -> np.ndarray:
        """The generators (rows) after the unit and the distinguished
        idempotents.  A linear map that commutes with every e_i commutes with
        their whole span, unit included, so intertwining conditions need only
        these."""
        return self.generators()[1 + len(self.prim_idempotents) :]

    def generator_products(self) -> np.ndarray:
        """The products g.b_j, (g, dim, dim), of the generators g after the
        unit with the basis, as coefficient rows; computed once."""
        if "generator_products" not in self._derived:
            self._derived["generator_products"] = self.field.einsum("gi,iab->gab", self.generators()[1:], self.mult)
        return self._derived["generator_products"]

    def _subalgebra_span(self, gens) -> np.ndarray:
        """Reduced row basis of the subalgebra generated by gens (the unit
        among them): span(gens) closed under left multiplication by every
        generator.  Each round multiplies only the directions the previous
        round added, the reduced rows with new pivots."""
        f = self.field
        if not len(gens):
            return f.zeros(0, self.dim)
        gens = np.stack(gens)
        d = self.dim
        # row vector x -> g.x is x @ L_g^T, one (d, d) block per generator
        lt = f.matmul(gens, self.left_mult.reshape(d, d * d)).reshape(-1, d, d).transpose(0, 2, 1)
        r = rref(gens, f)
        rows = frontier = r.matrix[: r.rank]
        pivots = set(r.pivots)
        while frontier.shape[0]:
            new = f.matmul(frontier, lt).reshape(-1, d)
            r = rref(np.concatenate([rows, new]), f)
            frontier = r.matrix[[k for k, c in enumerate(r.pivots) if c not in pivots]]
            rows, pivots = r.matrix[: r.rank], set(r.pivots)
        return rows


def algebra_radical_rows(a: Algebra) -> np.ndarray:
    """Row basis of the Jacobson radical via the trace form of the regular
    representation; exact for char 0 or p > dim.  Read-only, computed once
    and shared with the opposite: J(A) = J(A^op), and so is its rref basis."""
    f = a.field
    if f.is_prime_field and f.p <= a.dim:
        raise FieldRestrictionError(f"trace-form radical needs p > dim ({f.p} <= {a.dim})")
    if "radical_rows" not in a._shared:
        rows = np.ascontiguousarray(kernel_basis(f.einsum("iab,jba->ij", a.left_mult, a.left_mult), f).T)
        rows.setflags(write=False)
        a._shared["radical_rows"] = rows
    return a._shared["radical_rows"]


@dataclass(frozen=True)
class Idempotent:
    """An idempotent element of a parent algebra."""

    parent: Algebra
    element: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "element", self.parent.field.asarray(self.element).reshape(self.parent.dim))
        if not self.parent.is_idempotent(self.element):
            raise AlgebraError("element is not idempotent")

    @property
    def is_zero(self) -> bool:
        return self.parent.field.is_zero(self.element)

    @property
    def is_unit(self) -> bool:
        return self.parent.field.equal(self.element, self.parent.unit)


def algebra_from_structure_constants(field: Field, mult, unit, prim_idempotents, labels=None) -> Algebra:
    """Construct and fully validate an algebra from raw structure constants."""
    return Algebra(field, mult, unit, prim_idempotents, labels)


def ground_field_algebra(field: Field) -> Algebra:
    return Algebra(field, [[[1]]], [1], [[1]], labels=("1",))


def dual_numbers_algebra(field: Field) -> Algebra:
    """k[x]/(x^2): basis (1, x)."""
    d = 2
    c = field.zeros(d, d, d)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(field, c, [1, 0], [[1, 0]], labels=("1", "x"))


# -- quivers ---------------------------------------------------------------


@dataclass(frozen=True)
class QuiverPresentation:
    """Bound quiver with monomial relations.

    Arrows are (source, target, name) with 0-based vertices.  A relation is a
    tuple of arrow names in traversal order (first arrow applied first).  The
    presentation must be finite-dimensional: every path one longer than
    path_length_bound has to die in the relations.
    """

    vertices: int
    arrows: tuple
    monomial_relations: tuple
    path_length_bound: int

    def __init__(self, vertices, arrows, monomial_relations=(), path_length_bound=8):
        object.__setattr__(self, "vertices", int(vertices))
        object.__setattr__(self, "arrows", tuple((int(s), int(t), str(n)) for (s, t, n) in arrows))
        object.__setattr__(self, "monomial_relations", tuple(tuple(r) for r in monomial_relations))
        object.__setattr__(self, "path_length_bound", int(path_length_bound))
        names = [a[2] for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("arrow names must be distinct")
        for r in self.monomial_relations:
            if not r:
                raise AlgebraError("empty relation")
            idx = [names.index(n) for n in r]
            for u, v in zip(idx, idx[1:]):
                if self.arrows[u][1] != self.arrows[v][0]:
                    raise AlgebraError(f"relation {r} is not a composable path")


def algebra_from_quiver(q: QuiverPresentation, field: Field) -> Algebra:
    """Path algebra of a bound quiver; basis = nonzero paths, unit = sum of trivial paths.

    Paths are stored in traversal order; the product p*q concatenates q-then-p
    (apply q first), matching composition of left-module actions.
    """
    names = [a[2] for a in q.arrows]
    rels = [tuple(names.index(n) for n in r) for r in q.monomial_relations]

    def killed(path):
        for r in rels:
            L = len(r)
            for s in range(len(path) - L + 1):
                if tuple(path[s : s + L]) == r:
                    return True
        return False

    paths = [("v", i) for i in range(q.vertices)]
    frontier = [()]  # arrow-index tuples, grown by length
    layer = [(a,) for a in range(len(q.arrows)) if not killed((a,))]
    length = 1
    while layer:
        if length > q.path_length_bound:
            raise AlgebraError(
                f"quiver presentation is not finite-dimensional within bound {q.path_length_bound}:"
                f" nonzero path of length {length} exists"
            )
        paths.extend(("p", p) for p in layer)
        nxt = []
        for p in layer:
            tail_target = q.arrows[p[-1]][1]
            for a in range(len(q.arrows)):
                if q.arrows[a][0] == tail_target and not killed(p + (a,)):
                    nxt.append(p + (a,))
        layer = nxt
        length += 1

    index = {p: i for i, p in enumerate(paths)}
    d = len(paths)
    _check_dim(field, d)

    def src(p):
        return p[1] if p[0] == "v" else q.arrows[p[1][0]][0]

    def tgt(p):
        return p[1] if p[0] == "v" else q.arrows[p[1][-1]][1]

    c = field.zeros(d, d, d)
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            # product b_i * b_j applies pj first, then pi
            if src(pi) != tgt(pj):
                continue
            if pi[0] == "v":
                c[i, j, j] = field.one
            elif pj[0] == "v":
                c[i, j, i] = field.one
            else:
                prod = pj[1] + pi[1]
                if ("p", prod) in index:
                    c[i, j, index[("p", prod)]] = field.one
                # otherwise the concatenation hits a relation and the product is 0

    unit = field.zeros(d)
    idems = []
    for v in range(q.vertices):
        unit[index[("v", v)]] = field.one
        e = field.zeros(d)
        e[index[("v", v)]] = field.one
        idems.append(e)

    def label(p):
        if p[0] == "v":
            return f"e{p[1] + 1}"
        return "*".join(q.arrows[a][2] for a in reversed(p[1]))

    return Algebra(field, c, unit, idems, labels=[label(p) for p in paths])


# -- functorial constructions ----------------------------------------------


def opposite(a: Algebra) -> Algebra:
    """Opposite algebra: c_op[i, j] = c[j, i]; unit and idempotents unchanged.

    Built once per algebra, which keeps it; the opposite links back by a weak
    reference, so opposite(opposite(a)) is a while a is alive and neither
    keeps the other in a reference cycle.  Both read one shared store.
    """
    op = a._opposite
    if isinstance(op, weakref.ref):
        op = op()
    if op is None:
        op = Algebra(a.field, a.mult.transpose(1, 0, 2), a.unit, a.prim_idempotents, a.labels, _validate=False)
        op._shared = a._shared
        op._opposite = weakref.ref(a)
        a._opposite = op
    return op


def _product_constants(a: Algebra, b: Algebra, op_right: bool) -> np.ndarray:
    cb = b.mult.transpose(1, 0, 2) if op_right else b.mult
    d = a.dim * b.dim
    return a.field.einsum("ikm,jln->ijklmn", a.mult, cb).reshape(d, d, d)


def _product_algebra(a: Algebra, b: Algebra, op_right: bool) -> Algebra:
    if a.field != b.field:
        raise AlgebraError("field mismatch")
    f = a.field
    _check_dim(f, a.dim * b.dim)

    def kron(x, y):  # np.kron of two vectors, without its general-shape overhead
        return f.normalize(np.multiply.outer(x, y).ravel())

    unit = kron(a.unit, b.unit)
    idems = [kron(ea, eb) for ea in a.prim_idempotents for eb in b.prim_idempotents]
    prod = Algebra(f, _product_constants(a, b, op_right), unit, idems, _validate=False)
    if a.dim and b.dim:
        # the e (x) f sum to e (x) 1 and 1 (x) f, so with g (x) 1 and 1 (x) g for
        # the further generators g of A and B they generate A (x) 1 and 1 (x) B
        rest = [kron(g, b.unit) for g in a.generators_beyond_idempotents()]
        rest += [kron(a.unit, g) for g in b.generators_beyond_idempotents()]
        prod._shared["generators"] = f.asarray(np.stack([unit, *idems, *rest]))
    return prod


def enveloping(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B^op under the fixed Kronecker order: left modules over it are (A,B)-bimodules."""
    return _product_algebra(a, b, op_right=True)


def tensor_product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Plain tensor product A (x) B, Kronecker order (left factor index major)."""
    return _product_algebra(a, b, op_right=False)


# -- corner and quotient -----------------------------------------------------


@dataclass(frozen=True)
class CornerEmbedding:
    """Column basis of eAe inside A: embedding[:, t] is the t-th corner basis vector."""

    matrix: np.ndarray


def corner(a: Algebra, e: Idempotent) -> tuple[Algebra, CornerEmbedding]:
    """The corner algebra eAe with its embedding into A.

    The primitive idempotents of the corner are the distinguished primitive
    idempotents of A absorbed by e; e must be the sum of a subset of A's
    distinguished system (all constructions in scope satisfy this).
    """
    if not a.same_as(e.parent):
        raise AlgebraError("idempotent belongs to a different algebra")
    f = a.field
    ev = e.element
    l_e, r_e = a.left_mult_matrix(ev), a.right_mult_matrix(ev)
    exe = f.matmul(l_e, r_e)
    basis = column_space_basis(exe, f)  # (dim, c)
    cdim = basis.shape[1]
    if cdim == 0:
        return Algebra(f, f.zeros(0, 0, 0), f.zeros(0), [], _validate=False), CornerEmbedding(basis)
    prods = f.einsum("ia,jb,ijk->abk", basis, basis, a.mult)  # (c, c, dim)
    cc = prods[:, :, unit_rows(basis)]
    if not f.equal(f.einsum("ik,abk->abi", basis, cc), prods):
        raise AlgebraError("corner basis is not multiplicatively closed")
    # the absorbed e_i, e e_i = e_i = e_i e, read from [0, i] = e e_i and [1, i] = e_i e
    es = np.stack(a.prim_idempotents)
    sub = es[(f.einsum("iab,rb->ira", np.stack([l_e, r_e]), es) == es).all((0, 2))]
    if not f.equal(f.normalize(sub.sum(0)), ev):
        raise AlgebraError("corner needs e to be a sum of distinguished primitive idempotents")
    # coordinates on the reduced basis are a row selection, valid for vectors in its span
    vecs = np.stack([ev, *sub], axis=1)
    coords = vecs[unit_rows(basis)]
    if not f.equal(f.matmul(basis, coords), vecs):
        raise AlgebraError("idempotent does not lie in its own corner")
    alg = Algebra(f, cc, coords[:, 0], list(coords[:, 1:].T))
    return alg, CornerEmbedding(basis)


@dataclass(frozen=True)
class QuotientProjection:
    """Projection A -> A/AeA on a fixed complement basis, with its section."""

    projection: np.ndarray  # (q, dim)
    section: np.ndarray  # (dim, q)
    ideal_rows: np.ndarray  # rref row basis of the ideal AeA


def _ideal_span_rows(a: Algebra, ev: np.ndarray) -> np.ndarray:
    f = a.field
    w = a.left_mult_matrix(ev)  # columns e*b_j
    vecs = f.einsum("iab,bj->ija", a.left_mult, w).reshape(-1, a.dim)
    r = rref(vecs, f)
    return r.matrix[: r.rank]


def quotient_by_idempotent_ideal(a: Algebra, e: Idempotent) -> tuple[Algebra, QuotientProjection]:
    """A/AeA on the complement of the non-pivot coordinates of rref(AeA)."""
    if not a.same_as(e.parent):
        raise AlgebraError("idempotent belongs to a different algebra")
    f = a.field
    rows = _ideal_span_rows(a, e.element)
    proj, sect = quotient_coordinates(rows, f)
    q = proj.shape[0]
    if q == 0:
        return Algebra(f, f.zeros(0, 0, 0), f.zeros(0), [], _validate=False), QuotientProjection(proj, sect, rows)
    keep = unit_rows(sect)  # sect is the coordinate inclusion of these rows
    cq = f.einsum("abk,tk->abt", a.mult[np.ix_(keep, keep)], proj)
    unit_q = f.matmul(proj, a.unit)
    idems_q = []
    for ei in a.prim_idempotents:
        v = f.matmul(proj, ei)
        if not f.is_zero(v):
            idems_q.append(v)
    labels = None
    if a.labels is not None:
        labels = [a.labels[fc] for fc in keep]
    alg = Algebra(f, cq, unit_q, idems_q, labels=labels)
    return alg, QuotientProjection(proj, sect, rows)


# -- block matrix algebras ---------------------------------------------------


def _block_matrix_algebra(base: Algebra, entry_bases) -> Algebra:
    """n x n matrix algebra whose (i, j) entry is a given subspace of base.

    entry_bases[i][j] is a (dim_base, k_ij) column-basis array (k_ij may be 0).
    Products must land in the target entry subspace, otherwise the data does
    not define an algebra and an error names the violating block product.
    """
    f = base.field
    n = len(entry_bases)
    blocks = []  # (i, j, basis)
    offsets = {}
    dim = 0
    for i in range(n):
        for j in range(n):
            b = entry_bases[i][j]
            k = b.shape[1]
            if k:
                r = rank(b, f)
                if r < k:
                    raise AlgebraError(f"entry ({i + 1},{j + 1}) basis is rank-deficient: {k} vectors of rank {r}")
                offsets[(i, j)] = dim
                blocks.append((i, j, b))
                dim += k
    _check_dim(f, dim)
    c = f.zeros(dim, dim, dim)
    for (i, j, bij) in blocks:
        o1 = offsets[(i, j)]
        for (k, l, bkl) in blocks:
            if j != k:
                continue
            o2 = offsets[(k, l)]
            if (i, l) not in offsets:
                # all products must die
                for s in range(bij.shape[1]):
                    for t in range(bkl.shape[1]):
                        if not f.is_zero(base.multiply(bij[:, s], bkl[:, t])):
                            raise AlgebraError(f"block product ({i},{j})*({k},{l}) leaves the entry pattern")
                continue
            o3 = offsets[(i, l)]
            bil = next(b for (p, q, b) in blocks if (p, q) == (i, l))
            for s in range(bij.shape[1]):
                for t in range(bkl.shape[1]):
                    prod = base.multiply(bij[:, s], bkl[:, t])
                    coords = solve(bil, prod, f)
                    if coords is None:
                        raise AlgebraError(f"block product ({i},{j})*({k},{l}) not contained in entry ({i},{l})")
                    c[o1 + s, o2 + t, o3 : o3 + bil.shape[1]] = coords
    unit = f.zeros(dim)
    idems = []
    base_id = f.eye(base.dim)
    for i in range(n):
        bii = entry_bases[i][i]
        coords = solve_matrix(bii, base.unit.reshape(-1, 1), f)
        if coords is None:
            raise AlgebraError("diagonal entries must contain the unit of the base")
        unit[offsets[(i, i)] : offsets[(i, i)] + bii.shape[1]] += coords[:, 0]
        for eb in base.prim_idempotents:
            ce = solve(bii, eb, f)
            v = f.zeros(dim)
            v[offsets[(i, i)] : offsets[(i, i)] + bii.shape[1]] = ce
            idems.append(v)
    unit = f.normalize(unit)
    labels = []
    for (i, j, b) in blocks:
        for t in range(b.shape[1]):
            labels.append(f"E[{i + 1},{j + 1}]:{t}")
    return Algebra(f, c, unit, idems, labels=labels)


def _check_two_sided_ideal(base: Algebra, ideal: np.ndarray):
    f = base.field
    rows = ideal.T  # ideal vectors as rows
    r = rref(rows, f)
    span = r.matrix[: r.rank]
    for t in range(ideal.shape[1]):
        v = ideal[:, t]
        for i in range(base.dim):
            b = f.zeros(base.dim)
            b[i] = f.one
            if not in_span(span, base.multiply(b, v), f):
                raise AlgebraError(f"not an ideal: b_{i} * v_{t} leaves the span")
            if not in_span(span, base.multiply(v, b), f):
                raise AlgebraError(f"not an ideal: v_{t} * b_{i} leaves the span")


def build_ideal_matrix_algebra(base: Algebra, ideal_basis, n: int) -> Algebra:
    """n x n matrix algebra with full base on and below the diagonal and a
    two-sided ideal above it; a decreasing chain I_1 >= ... >= I_{n-1} may be
    supplied (one ideal per column beyond the first) for the chain variant.
    """
    f = base.field
    if n < 1:
        raise AlgebraError("n must be at least 1")
    if isinstance(ideal_basis, (list, tuple)) and ideal_basis and isinstance(ideal_basis[0], np.ndarray):
        chain = [f.asarray(b) for b in ideal_basis]
    else:
        chain = [f.asarray(ideal_basis)] * (n - 1) if n > 1 else []
    if n > 1 and len(chain) != n - 1:
        raise AlgebraError(f"need {n - 1} ideals for the chain variant, got {len(chain)}")
    for b in chain:
        _check_two_sided_ideal(base, b)
    for a, b in zip(chain, chain[1:]):
        arows = rref(a.T, f)
        for t in range(b.shape[1]):
            if not in_span(arows.matrix[: arows.rank], b[:, t], f):
                raise AlgebraError("ideals must form a decreasing chain I_1 >= ... >= I_{n-1}")
    full = f.eye(base.dim)
    entries = [[full if i >= j else chain[j - 1] for j in range(n)] for i in range(n)]
    return _block_matrix_algebra(base, entries)


def build_triangular(base: Algebra, n: int) -> Algebra:
    """Lower triangular n x n matrices over base."""
    if n < 1:
        raise AlgebraError("n must be at least 1")
    f = base.field
    zero = f.zeros(base.dim, 0)
    full = f.eye(base.dim)
    entries = [[full if i >= j else zero for j in range(n)] for i in range(n)]
    return _block_matrix_algebra(base, entries)


def preprojective_a2(field: Field) -> Algebra:
    """Bound quiver algebra with two vertices, arrows both ways, and both
    length-two cycles equal to zero; its modules are pairs (X, Y, f, g) with
    f g = 0 = g f."""
    q = QuiverPresentation(
        vertices=2,
        arrows=[(0, 1, "a"), (1, 0, "b")],
        monomial_relations=[("a", "b"), ("b", "a")],
        path_length_bound=2,
    )
    return algebra_from_quiver(q, field)


def build_morita_square(base: Algebra) -> Algebra:
    """Algebra whose modules are tuples (X, Y, f, g) of base-modules with
    fg = gf = 0; the tensor of the 4-dimensional two-vertex bound quiver
    algebra with the base."""
    quiver_part = preprojective_a2(base.field)
    return tensor_product_algebra(quiver_part, base)
