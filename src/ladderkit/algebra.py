"""Finite-dimensional associative unital algebras via structure constants.

An algebra of dimension d over a field is stored as a (d, d, d) array c with
b_i * b_j = sum_k c[i, j, k] b_k, together with the unit and a distinguished
complete system of primitive orthogonal idempotents.  All constructors verify
associativity, the unit axioms and the idempotent system eagerly (except for
constructions like enveloping products whose axioms follow from the inputs').
The structure constants of path algebras and their quotients are almost all
zero, so each algebra keeps its nonzero entries (i, j, k, c), and the checks
and spans that would multiply the dense array out run as sparse joins over
them: associativity sums (b_i b_j) b_k and b_i (b_j b_k) per key (i, j, k, n)
from the products of two nonzero entries each, which is as many products as
the basis has nonzero triple products, not 2 d^5.  The same joins span the
ideal AeA and form the trace form of the radical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import DIM_BOUND, JOIN_PRODUCTS, Field, column_space_basis, in_span, kernel_basis, quotient_coordinates, rank, rref, solve_matrix, unit_rows

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


def _join_slices(counts: np.ndarray):
    """The pairs of a sparse join, driver-major, in slices of at most
    JOIN_PRODUCTS: driver t takes part in counts[t] pairs.  Yields, per slice,
    each pair's driver and its offset among that driver's pairs, and the
    driver of the next slice's first pair (len(counts) after the last slice),
    whose pairs may have begun in this one."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, JOIN_PRODUCTS):
        pairs = np.arange(start, min(start + JOIN_PRODUCTS, total))
        drivers = np.searchsorted(ends, pairs, side="right")
        nxt = int(np.searchsorted(ends, pairs[-1] + 1, side="right"))
        yield drivers, pairs - ends[drivers] + counts[drivers], nxt


def _grouped(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of keys in 0..n-1 sorted by key, and where each key's run
    starts: the positions of key m are order[at[m] : at[m + 1]]."""
    order = np.argsort(keys, kind="stable")
    return order, np.searchsorted(keys[order], np.arange(n + 1))


def _summed(field: Field, keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, with the reduced sum of vals over each."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], field.normalize(np.add.reduceat(vals[order], first))


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
        nz = np.flatnonzero(x)  # a vertex idempotent has one nonzero coordinate
        return self.field.einsum("i,iab->ab", np.asarray(x)[nz], self.left_mult[nz])

    def right_mult_matrix(self, x) -> np.ndarray:
        nz = np.flatnonzero(x)
        return self.field.einsum("i,iab->ab", np.asarray(x)[nz], self.right_mult[nz])

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
        # associativity on the nonzero constants; the smallest failing i goes
        # through the dense pair R_j L_i, L_i R_j, whose first difference
        # (b_i x) b_j != b_i (x b_j) names the triple
        i = self._associativity_failure()
        if i is not None:
            li = self.left_mult[i]
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

    def nonzeros(self) -> tuple:
        """The nonzero structure constants c[i, j, k] = c as four read-only
        arrays i, j, k, c, sorted by (i, j, k); computed once."""
        if "nonzeros" not in self._derived:
            nz = self.mult != 0
            entries = (*np.nonzero(nz), self.mult[nz])
            for a in entries:
                a.setflags(write=False)
            self._derived["nonzeros"] = entries
        return self._derived["nonzeros"]

    def _associativity_failure(self):
        """The smallest i with (b_i b_j) b_k != b_i (b_j b_k) for some j, k,
        or None.  Both sides are sums over products of two nonzero entries,
        keyed (i, j, k, n) for the coefficient of b_n:
            (b_i b_j) b_k = sum_m c[i, j, m] c[m, k, .],
            b_i (b_j b_k) = sum_m c[j, k, m] c[i, m, .].
        Each entry t drives both: as (i, j, m) it meets the entries (m, k, n),
        then as (i, m, n) the entries (j, k, m).  The drivers are sorted by i,
        so after each slice every key below the next driver's i is complete;
        the others carry over as sums."""
        f, d = self.field, self.dim
        i, j, k, c = self.nonzeros()
        by_first, first_at = _grouped(i, d)  # the entries (m, ., .)
        by_third, third_at = _grouped(k, d)  # the entries (., ., m)
        n_left, n_right = np.diff(first_at)[k], np.diff(third_at)[j]
        keys, sums = np.zeros(0, dtype=np.int64), f.zeros(0)
        for t, off, nxt in _join_slices(n_left + n_right):
            left = off < n_left[t]
            tl, tr = t[left], t[~left]
            ul = by_first[first_at[k[tl]] + off[left]]
            ur = by_third[third_at[j[tr]] + off[~left] - n_left[tr]]
            keys, sums = _summed(
                f,
                np.concatenate([keys, ((i[tl] * d + j[tl]) * d + j[ul]) * d + k[ul], ((i[tr] * d + i[ur]) * d + j[ur]) * d + k[tr]]),
                np.concatenate([sums, c[tl] * c[ul], -(c[tr] * c[ur])]),
            )
            done = keys < (i[nxt] if nxt < len(i) else d) * d**3
            bad = np.flatnonzero(done & (sums != 0))
            if bad.size:
                return int(keys[bad[0]] // d**3)
            keys, sums = keys[~done], sums[~done]
        return None

    # -- generators (used to shrink intertwiner systems) -------------------

    def generators(self) -> np.ndarray:
        """A small generating set (as rows): the unit, the distinguished
        idempotents and lifts of a basis of J/J^2, which generate a basic
        algebra (A/J = k^n); otherwise they are closed once and basis vectors
        added greedily until the generated subalgebra is everything.
        Generators are equivalent to the full basis for intertwining conditions.  The same elements generate
        the opposite, so the set is kept in the store shared with it."""
        if "generators" not in self._shared:
            f = self.field
            gens = [self.unit, *self.prim_idempotents] if self.dim else []
            try:  # J's rows reduced against rref(J^2), then one rref
                j = algebra_radical_rows(self)
                squares = f.matmul(f.einsum("gi,iab->gab", j, self.left_mult), j.T)  # [a, :, b] = J_a.J_b
                squares = squares.transpose(0, 2, 1).reshape(len(j) ** 2, self.dim)
                sq = rref(squares[np.count_nonzero(squares, axis=1) > 0], f)  # zero products span nothing
                top = rref(f.normalize(j - f.matmul(j[:, list(sq.pivots)], sq.matrix[: sq.rank])), f)
                gens += list(top.matrix[: top.rank])
                # A = span(e_i) + J (orthogonal idempotents are independent mod
                # J), and lifts of a basis of J/J^2 generate J by Nakayama
                basic = len(j) + len(self.prim_idempotents) == self.dim
            except FieldRestrictionError:  # p <= dim: the trace form is out of reach
                basic = False
            if not basic:
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
        rows = np.ascontiguousarray(kernel_basis(_trace_form(a), f).T)
        rows.setflags(write=False)
        a._shared["radical_rows"] = rows
    return a._shared["radical_rows"]


def _trace_form(a: Algebra) -> np.ndarray:
    """The Gram matrix tr(L_i L_j) = sum_{m, n} c[i, m, n] c[j, n, m], from
    the nonzero constants: entry t = (i, m, n) meets the entries (j, n, m)."""
    f, d = a.field, a.dim
    i, j, k, c = a.nonzeros()
    by_pair, pair_at = _grouped(j * d + k, d * d)  # the entries (., n, m), by n * d + m
    counts = np.diff(pair_at)[k * d + j]
    gram = f.zeros(d * d)
    for t, off, _ in _join_slices(counts):
        u = by_pair[pair_at[k[t] * d + j[t]] + off]
        np.add.at(gram, i[t] * d + i[u], c[t] * c[u])
    return f.normalize(gram).reshape(d, d)


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
    """The field as a 1-dim algebra, built once per Field object and kept on
    it: equal fields built apart build their own, so a run that builds its
    field builds the same algebras each time."""
    k = vars(field).get("_ground")
    if k is None:
        k = Algebra(field, [[[1]]], [1], [[1]], labels=("1",))
        object.__setattr__(field, "_ground", k)  # Field is frozen; equality and hash read p alone
    return k


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

    Arrows are (source, target, name) with 0-based vertices in
    0..vertices-1.  A relation is a tuple of arrow names in traversal order
    (first arrow applied first).  The presentation must be finite-dimensional:
    every path one longer than path_length_bound has to die in the relations.
    """

    vertices: int
    arrows: tuple
    monomial_relations: tuple
    path_length_bound: int

    def __init__(self, vertices, arrows, monomial_relations=(), path_length_bound=8):
        object.__setattr__(self, "vertices", int(vertices))
        arrows = [tuple(a) for a in arrows]
        if bad := [a for a in arrows if len(a) != 3]:
            raise AlgebraError(f"arrow {bad[0]} is not (source, target, name)")
        object.__setattr__(self, "arrows", tuple((int(s), int(t), str(n)) for (s, t, n) in arrows))
        object.__setattr__(self, "monomial_relations", tuple(tuple(r) for r in monomial_relations))
        object.__setattr__(self, "path_length_bound", int(path_length_bound))
        names = [a[2] for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("arrow names must be distinct")
        for s, t, n in self.arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise AlgebraError(f"arrow {n!r} joins {s} -> {t}, outside the vertices 0..{self.vertices - 1}")
        for r in self.monomial_relations:
            if not r:
                raise AlgebraError("empty relation")
            if unknown := [n for n in r if n not in names]:
                raise AlgebraError(f"relation {r} uses the unknown arrow {unknown[0]!r}")
            idx = [names.index(n) for n in r]
            for u, v in zip(idx, idx[1:]):
                if self.arrows[u][1] != self.arrows[v][0]:
                    raise AlgebraError(f"relation {r} is not a composable path")


def algebra_from_quiver(q: QuiverPresentation, field: Field) -> Algebra:
    """Path algebra of a bound quiver; basis = nonzero paths, unit = sum of trivial paths.

    The basis is the trivial paths e1..en, then the nonzero paths by length,
    each layer in the order it was grown.  A path is stored as its arrow word
    in traversal order; the product p*q concatenates q-then-p (apply q first),
    matching composition of left-module actions.  With monomial relations a
    path is zero exactly when it contains a relation, so a nonzero path
    extended by one arrow dies only by a relation that ends at that arrow.
    """
    names = [a[2] for a in q.arrows]
    ends_at = [[] for _ in names]  # relations as arrow words, by their last arrow
    for r in q.monomial_relations:
        ends_at[names.index(r[-1])].append(tuple(names.index(n) for n in r))
    out_of = [[a for a, arrow in enumerate(q.arrows) if arrow[0] == v] for v in range(q.vertices)]
    words = []  # the nonzero paths of length >= 1, by length
    layer = [(a,) for a in range(len(names))]
    length = 1
    while layer := [w for w in layer if all(w[-len(r) :] != r for r in ends_at[w[-1]])]:
        if length > q.path_length_bound:
            raise AlgebraError(
                f"quiver presentation is not finite-dimensional within bound {q.path_length_bound}:"
                f" nonzero path of length {length} exists"
            )
        words += layer
        layer = [w + (a,) for w in layer for a in out_of[q.arrows[w[-1]][1]]]
        length += 1

    n = q.vertices
    d = n + len(words)
    _check_dim(field, d)
    index = {w: n + k for k, w in enumerate(words)}
    src = np.array([*range(n), *(q.arrows[w[0]][0] for w in words)], dtype=np.intp)
    tgt = np.array([*range(n), *(q.arrows[w[-1]][1] for w in words)], dtype=np.intp)
    # e_t b = b = b e_s for a path b from s to t; a nonzero path w is b_i b_j
    # for each split w = (path j, then path i), whose halves are nonzero too
    splits = [(index[w[s:]], index[w[:s]], k) for w, k in index.items() for s in range(1, len(w))]
    c = field.zeros(d, d, d)
    every = np.arange(d)
    c[tgt, every, every] = field.one
    c[every, src, every] = field.one
    c[tuple(np.array(splits, dtype=np.intp).reshape(-1, 3).T)] = field.one
    unit = field.zeros(d)
    unit[:n] = field.one
    labels = [f"e{v + 1}" for v in range(n)] + ["*".join(names[a] for a in reversed(w)) for w in words]
    return Algebra(field, c, unit, list(field.eye(d)[:n]), labels=labels)


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
    """rref rows of AeA, spanned by the products b_i (e b_j) = sum_m w[m, j] c[i, m, .]
    with w[:, j] = e b_j: entry t = (i, m, n) meets the nonzeros w[m, j].  Only
    the nonzero products reach the rref, one row per (i, j)."""
    f, d = a.field, a.dim
    i, j, k, c = a.nonzeros()
    w = a.left_mult_matrix(ev)
    wm, wj = np.nonzero(w != 0)
    by_row, w_at = _grouped(wm, d)
    keys, sums = np.zeros(0, dtype=np.int64), f.zeros(0)
    for t, off, _ in _join_slices(np.diff(w_at)[j]):
        u = by_row[w_at[j[t]] + off]
        keys, sums = _summed(f, np.concatenate([keys, (i[t] * d + wj[u]) * d + k[t]]), np.concatenate([sums, c[t] * w[wm[u], wj[u]]]))
    keys, sums = keys[sums != 0], sums[sums != 0]
    new_row = np.diff(keys // d, prepend=-1) != 0  # keys ascend, so each row's entries are adjacent
    vecs = f.zeros(int(new_row.sum()), d)
    vecs[np.cumsum(new_row) - 1, keys % d] = sums
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

    entry_bases[i][j] is a (dim_base, k_ij) column-basis array (k_ij may be 0);
    the basis is the nonzero entries' bases in row-major block order.  All
    products of a composable block pair (i, j) * (j, l) come from one
    contraction and are solved against entry (i, l) at once; they must land
    there, otherwise the data does not define an algebra and an error names
    the first violating block pair.  Each diagonal entry must contain the
    unit and the distinguished idempotents of base, which it inherits.
    """
    f = base.field
    n = len(entry_bases)
    blocks = {}  # (i, j) -> (offset, basis), row-major
    dim = 0
    for i in range(n):
        for j in range(n):
            b = entry_bases[i][j]
            k = b.shape[1]
            if k:
                r = rank(b, f)
                if r < k:
                    raise AlgebraError(f"entry ({i + 1},{j + 1}) basis is rank-deficient: {k} vectors of rank {r}")
                blocks[(i, j)] = (dim, b)
                dim += k
    _check_dim(f, dim)
    c = f.zeros(dim, dim, dim)
    for (i, j), (o1, bij) in blocks.items():
        for (k, l), (o2, bkl) in blocks.items():
            if j != k:
                continue
            s, t = bij.shape[1], bkl.shape[1]
            prods = f.einsum("ia,jb,ijk->abk", bij, bkl, base.mult).reshape(s * t, base.dim).T
            if (i, l) not in blocks:
                if not f.is_zero(prods):
                    raise AlgebraError(f"block product ({i},{j})*({k},{l}) leaves the entry pattern")
                continue
            o3, bil = blocks[(i, l)]
            coords = solve_matrix(bil, prods, f)
            if coords is None:
                raise AlgebraError(f"block product ({i},{j})*({k},{l}) not contained in entry ({i},{l})")
            c[o1 : o1 + s, o2 : o2 + t, o3 : o3 + bil.shape[1]] = coords.reshape(-1, s, t).transpose(1, 2, 0)
    unit = f.zeros(dim)
    idems = []
    wanted = np.stack([base.unit, *base.prim_idempotents], axis=1)
    for i in range(n):
        coords = solve_matrix(entry_bases[i][i], wanted, f)
        if coords is None:
            raise AlgebraError("diagonal entries must contain the unit of the base")
        o = blocks[(i, i)][0]
        embedded = f.zeros(wanted.shape[1], dim)
        embedded[:, o : o + coords.shape[0]] = coords.T
        unit[o : o + coords.shape[0]] = coords[:, 0]
        idems += list(embedded[1:])
    labels = [f"E[{i + 1},{j + 1}]:{t}" for (i, j), (_, b) in blocks.items() for t in range(b.shape[1])]
    return Algebra(f, c, unit, idems, labels=labels)


def _check_two_sided_ideal(base: Algebra, ideal: np.ndarray):
    """Reject a column basis whose span is not a two-sided ideal of base.

    The products b_i v_t and v_t b_i of all basis elements with all ideal
    vectors come from one contraction per side; each is reduced against the
    rref of the ideal, and the first nonzero residue, in (t, i, left before
    right) order, names its product."""
    f = base.field
    r = rref(ideal.T, f)
    # [t, i, 0] = b_i v_t and [t, i, 1] = v_t b_i, from c^op[j, i] = c[i, j] and c
    prods = np.stack([f.einsum("is,iab->sab", ideal, c) for c in (base.mult.transpose(1, 0, 2), base.mult)], axis=2)
    residue = f.normalize(prods - f.matmul(prods[..., list(r.pivots)], r.matrix[: r.rank]))
    bad = np.argwhere((residue != 0).any(-1))  # entries are reduced: compare directly
    if len(bad):
        t, i, right = bad[0]
        raise AlgebraError(f"not an ideal: v_{t} * b_{i} leaves the span" if right else f"not an ideal: b_{i} * v_{t} leaves the span")


def build_ideal_matrix_algebra(base: Algebra, ideal_basis, n: int) -> Algebra:
    """n x n matrix algebra with full base on and below the diagonal and a
    two-sided ideal above it; a decreasing chain I_1 >= ... >= I_{n-1} may be
    supplied (one ideal per column beyond the first) for the chain variant.
    I_k >= I_{k+1} is the rank test rank [I_k | I_{k+1}] = rank I_k.
    """
    f = base.field
    if n < 1:
        raise AlgebraError("n must be at least 1")
    if isinstance(ideal_basis, (list, tuple)) and ideal_basis and isinstance(ideal_basis[0], np.ndarray):
        chain = [f.asarray(b) for b in ideal_basis]
    else:  # one ideal in every column: a chain by itself, checked once
        chain = [f.asarray(ideal_basis)] * (n - 1) if n > 1 else []
    if n > 1 and len(chain) != n - 1:
        raise AlgebraError(f"need {n - 1} ideals for the chain variant, got {len(chain)}")
    for b in {id(b): b for b in chain}.values():
        _check_two_sided_ideal(base, b)
    for a, b in zip(chain, chain[1:]):
        if a is not b and rank(np.concatenate([a, b], axis=1), f) != rank(a, f):
            raise AlgebraError("ideals must form a decreasing chain I_1 >= ... >= I_{n-1}")
    full = f.eye(base.dim)
    entries = [[full if i >= j else chain[j - 1] for j in range(n)] for i in range(n)]
    return _block_matrix_algebra(base, entries)


def build_triangular(base: Algebra, n: int) -> Algebra:
    """Lower triangular n x n matrices over base: the ideal matrix algebra
    with the zero ideal above the diagonal."""
    return build_ideal_matrix_algebra(base, base.field.zeros(base.dim, 0), n)


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
