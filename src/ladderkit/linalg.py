"""Exact dense linear algebra over prime fields F_p and over the rationals.

Matrices are numpy arrays: dtype int64 with entries in [0, p) for a prime
field, dtype object holding ``fractions.Fraction`` for the rationals.  No
floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "Field",
    "RrefResult",
    "rref",
    "rank",
    "kernel_basis",
    "kernel_and_section",
    "block_diag",
    "unit_rows",
    "quotient_coordinates",
    "solve",
    "solve_matrix",
    "DimensionMismatch",
]


class DimensionMismatch(ValueError):
    """Shapes or fields of the operands do not line up."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Entries of F_p arrays are int64 in [0, p) and are reduced only after a whole
# product.  The widest unreduced sums are the triple-product einsums
# (Algebra.multiply, corner, the quotient algebra and projective_cover): d^2
# terms, or d * dim M, each below p^3 for an algebra of dimension d.  With
# p < 2^15 such a sum stays below 2^63 while it has at most 2^18 terms, and a
# plain matmul (k terms below p^2) does for every k < 2^33.
PRIME_BOUND = 2**15
# d^2 <= 2^18 terms is d <= 2^9: F_p algebras of larger dimension are rejected.
DIM_BOUND = 2**9


@dataclass(frozen=True)
class Field:
    """Ground field: prime field F_p (p an odd prime below PRIME_BOUND) or the
    rationals (p=None).

    The bound keeps every int64 product in the engine exact; larger primes are
    rejected rather than silently wrapped.
    """

    p: Optional[int] = 101

    def __post_init__(self):
        if self.p is not None:
            if self.p >= PRIME_BOUND:
                raise ValueError(f"prime {self.p} is too large: int64 arithmetic is exact only for p < {PRIME_BOUND}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if self.p <= 2:
                raise ValueError("prime fields require p > 2")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def zeros(self, *shape) -> np.ndarray:
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a

    def eye(self, n) -> np.ndarray:
        if self.p is not None:
            return np.eye(n, dtype=np.int64)
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = self.one
        return a

    @property
    def one(self):
        return np.int64(1) if self.p is not None else Fraction(1)

    def asarray(self, data) -> np.ndarray:
        """Coerce nested lists / arrays of integers or Fractions into field form.
        A float, and over F_p a Fraction that is not an integer, raises
        ValueError: a cast would truncate it, and Fraction(0.1) is not 1/10."""
        if self.p is not None:
            if not (isinstance(data, np.ndarray) and data.dtype == np.int64):
                self._exact(np.asarray(data))
            try:
                return np.asarray(data, dtype=np.int64) % self.p
            except OverflowError:  # Python ints beyond int64: reduce them first
                return np.asarray(np.asarray(data, dtype=object) % self.p, dtype=np.int64)
        a = np.array(data, dtype=object, copy=True)
        flat = a.reshape(-1)
        if all(type(v) is Fraction for v in flat.tolist()):  # already field form: the copy is the result
            return a
        for i, v in enumerate(self._exact(flat)):
            flat[i] = Fraction(v)
        return flat.reshape(a.shape)

    def _exact(self, a: np.ndarray) -> np.ndarray:
        """a, unless asarray refuses one of its entries."""
        for v in a.reshape(-1).tolist() if a.dtype.kind in "fcO" else ():
            if isinstance(v, (float, complex, np.inexact)):
                raise ValueError(f"inexact entry {v!r}: give integers or Fractions")
            if self.p is not None and isinstance(v, Fraction) and v.denominator != 1:
                raise ValueError(f"entry {v} is not an integer: entries over F_{self.p} are integers")
        return a

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.p is not None else a

    def inv_scalar(self, x):
        if self.p is not None:
            return pow(int(x), self.p - 2, self.p)
        return Fraction(1) / x

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reduced product a @ b; stacks broadcast as in np.matmul.

        Exact in int64 because p < PRIME_BOUND (see there); over Q see
        _contract_q."""
        if self.p is None:
            return _contract_q(np.matmul, (a, b))
        return (a @ b) % self.p

    def einsum(self, spec: str, *ops) -> np.ndarray:
        """Reduced np.einsum(spec, *ops): every contraction in the engine goes
        through here or matmul.  Exact in int64 over F_p by PRIME_BOUND and
        DIM_BOUND; over Q see _contract_q."""
        if self.p is None:
            return _contract_q(lambda *nums: np.einsum(spec, *nums), ops)
        return np.einsum(spec, *ops) % self.p

    def sparse_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reduced a @ b for 2-D operands, computed from the nonzero entries
        of a when it has few (see _sparse_product); exact as matmul is."""
        if self.p is None:
            return _contract_q(_sparse_product, (a, b))
        return _sparse_product(a, b, self.p)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        if a.shape != b.shape:
            return False
        if self.p is None:  # Fractions compare exactly, no difference needed
            return bool(np.all(a == b))
        return bool(np.all(self.normalize(a - b) == 0))

    def is_zero(self, a: np.ndarray) -> bool:
        return bool(np.all(self.normalize(a) == 0))

    def content_key(self, a: np.ndarray):
        """Exact hashable key of the entries of a field-form array: two arrays
        of one shape have equal keys exactly when they are equal.  Over F_p the
        bytes of the reduced int64 entries, which np.frombuffer reads back
        without a copy; over Q the numerators, then the denominators, as ints
        (the bytes of an object array are its pointers)."""
        if self.p is not None:
            return np.asarray(a, dtype=np.int64).tobytes()
        flat = a.ravel().tolist()
        return tuple([x.numerator for x in flat]), tuple([x.denominator for x in flat])


_ZERO = Fraction(0)


def _contract_q(contract, ops) -> np.ndarray:
    """contract(*ops) over Q on integers: each operand becomes Python-int
    numerators over one common denominator, the contraction runs once on the
    numerators (ints cannot overflow, and a zero entry costs one int product
    instead of a Fraction one), and each entry is divided once at the end."""
    nums, den = [], 1
    for a in ops:
        a = np.asarray(a)
        flat = a.ravel().tolist()  # Fractions; ints have numerator and denominator too
        lcm = math.lcm(*{x.denominator for x in flat})
        if lcm == 1:
            ints = [x.numerator for x in flat]
        else:
            ints = [x.numerator * (lcm // x.denominator) for x in flat]
        nums.append(np.array(ints, dtype=object).reshape(a.shape))
        den *= lcm
    c = np.asarray(contract(*nums), dtype=object)
    if den == 1:
        vals = [Fraction(x) if x else _ZERO for x in c.ravel().tolist()]
    else:
        vals = [Fraction(x, den) if x else _ZERO for x in c.ravel().tolist()]
    return np.array(vals, dtype=object).reshape(c.shape)


# A sparse product gathers a row of b for each nonzero entry of a and sums
# them per row of a; it runs when that costs less than the 2-D product's
# a.size * b.shape[1] multiply-adds.  Measured against numpy's integer matmul,
# a gathered entry costs about GATHER_COST multiply-adds (5 to 10, from a dense
# a down to one nonzero in twenty), and the dozen numpy calls of one slice about
# GATHER_OVERHEAD whatever its size: the gather lost on every product the
# workloads make below 2^16 multiply-adds and broke even near 2^17.  Such
# small products, and dense ones, take the 2-D product.
GATHER_COST = 8
GATHER_OVERHEAD = 2**17
# A sparse product, or a sparse join over structure constants (associativity,
# the span of AeA, the trace form), holds at most this many gathered entries or
# products at once: the fixtures and workload algebras fit in one slice, and a
# dense structure tensor is never multiplied out whole (d^5 products for
# associativity).  Over F_p each product is below p^2 < 2^30, so sums of a
# slice and a carried sum stay exact in int64.
JOIN_PRODUCTS = 2**16


def _sparse_product(a: np.ndarray, b: np.ndarray, p: Optional[int] = None) -> np.ndarray:
    """a @ b, reduced mod p when p is given.  When a is sparse enough, each
    nonzero a[i, r] gathers the row b[r], scaled, and np.add.reduceat sums
    them per row i, at most JOIN_PRODUCTS gathered entries at a time; only
    the rows a slice wrote are reduced (int64 % costs more than the sums)."""
    if a.size * b.shape[1] <= GATHER_OVERHEAD or (a.size - GATHER_COST * np.count_nonzero(a)) * b.shape[1] <= GATHER_OVERHEAD:
        return a @ b if p is None else (a @ b) % p
    rows, cols = np.nonzero(a)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    step = max(1, JOIN_PRODUCTS // max(1, b.shape[1]))
    for s in range(0, len(rows), step):
        r, c = rows[s : s + step], cols[s : s + step]
        first = np.flatnonzero(np.diff(r, prepend=-1))
        written = r[first]
        out[written] += np.add.reduceat(b[c] * a[r, c][:, None], first)
        if p is not None:
            out[written] %= p
    return out


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    pivots: tuple
    rank: int


# An F_p rref of at most this many cells (rows * cols) runs on Python row
# lists, a larger one on numpy rows.  Most systems the engine solves have a few
# dozen cells, where numpy's per-call overhead costs more than the arithmetic.
# On the engine's sparse systems the two kernels break even near 2-3k cells,
# but on a dense matrix numpy wins from a few hundred cells on; at this bound a
# dense system is about 3x slower on the row lists.  Q always uses the row
# lists: Fraction arithmetic gains nothing from object arrays.
SMALL_RREF_CELLS = 1024


def rref(a: np.ndarray, field: Field) -> RrefResult:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Returns the reduced matrix, the pivot column indices and the rank.
    Row space is preserved; the result is unique, hence rref is idempotent.
    """
    a = np.asarray(a)
    if field.p is None or a.size <= SMALL_RREF_CELLS:
        return _rref_rows(a, field)
    return _rref_numpy(a, field)


def _rref_rows(a: np.ndarray, field: Field) -> RrefResult:
    """Gauss-Jordan on Python row lists: ints mod p, or Fractions over Q."""
    p = field.p
    rows = (a % p if p is not None else a).tolist()
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        inv = field.inv_scalar(prow[c])
        # the pivot row is 0 left of c, so only the tail from c changes
        if p is None:
            tail = [x * inv for x in prow[c:]]
        else:
            tail = [x * inv % p for x in prow[c:]]
        rows[r] = prow[:c] + tail
        for i, row in enumerate(rows):
            x = row[c]
            if x and i != r:
                if p is None:
                    row[c:] = [y - x * t for y, t in zip(row[c:], tail)]
                else:
                    row[c:] = [(y - x * t) % p for y, t in zip(row[c:], tail)]
        pivots.append(c)
    if p is not None:
        m = np.array(rows, dtype=np.int64).reshape(a.shape)
    else:
        m = np.empty(a.shape, dtype=object)
        if m.size:
            m[...] = rows
    return RrefResult(m, tuple(pivots), len(pivots))


def _rref_numpy(a: np.ndarray, field: Field) -> RrefResult:
    """Gauss-Jordan over F_p with vectorised row updates, for large systems."""
    p = field.p
    m = np.asarray(a, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = field.inv_scalar(m[r, c])
        m[r] = m[r] * inv % p
        col = np.array(m[:, c], copy=True)
        col[r] = 0
        mask = col != 0
        if np.any(mask):
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
    return RrefResult(m, tuple(pivots), r)


def rank(a: np.ndarray, field: Field) -> int:
    return rref(a, field).rank


def kernel_basis(a: np.ndarray, field: Field) -> np.ndarray:
    """Basis of the right null space, returned as columns of a (cols x k) array.

    k = cols - rank; the basis is the standard one read off the rref
    (free coordinate set to 1, pivot coordinates solved), so it is the
    identity on its free rows.
    """
    return _null_space(rref(a, field), a.shape[1], field)[0]


def kernel_and_section(a: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """For a of full row rank: kernel_basis(a) and a section s, a @ s = 1,
    from one rref of [a | 1].  Its left part is rref(a), as every pivot lies
    there, and its right part the inverse of a's pivot columns."""
    m, n = a.shape
    r = rref(np.concatenate([a, field.eye(m)], axis=1), field)
    if m and r.pivots[-1] >= n:
        raise DimensionMismatch(f"a {m} x {n} matrix of rank below {m} has no section")
    section = field.zeros(n, m)
    section[list(r.pivots)] = r.matrix[:, n:]
    return _null_space(r, n, field)[0], section


def _null_space(r: RrefResult, ncols: int, field: Field) -> tuple[np.ndarray, np.ndarray]:
    is_free = np.ones(ncols, dtype=bool)
    is_free[list(r.pivots)] = False
    free = np.flatnonzero(is_free)
    basis = field.zeros(ncols, len(free))
    basis[free, np.arange(len(free))] = field.one
    basis[list(r.pivots)] = field.normalize(-r.matrix[: r.rank, free])
    return basis, free


def unit_rows(basis: np.ndarray) -> np.ndarray:
    """Row indices R with basis[R] = I: the coordinates of any vector v in the
    column span are v[R], so eye[R] is a left inverse.

    Every basis the engine builds is reduced: column_space_basis is the
    identity on its pivot rows, kernel_basis on its free rows, and so are
    transposed rref rows.  Raises DimensionMismatch
    when some column is the unit vector on no row.
    """
    unit = (basis == 1) & (np.count_nonzero(basis, axis=1) == 1)[:, None]
    missing = np.flatnonzero(~unit.any(axis=0))
    if missing.size:
        raise DimensionMismatch(f"basis is not reduced: column {missing[0]} is a unit vector on no row")
    return unit.argmax(axis=0) if unit.size else np.zeros(0, dtype=np.int64)


def quotient_coordinates(rows: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Projection (q x n) onto the quotient of k^n by the span of rows, and
    its section (n x q), both in the coordinates that are not pivots of
    rref(rows): the projection is kernel_basis(rows).T and the section the
    coordinate inclusion, so projection @ section = I."""
    n = rows.shape[1]
    basis, free = _null_space(rref(rows, field), n, field)
    return basis.T, field.eye(n)[:, free]


def solve(a: np.ndarray, b: np.ndarray, field: Field) -> Optional[np.ndarray]:
    """One exact solution x of a @ x = b, or None if the system is inconsistent."""
    b = np.asarray(b)
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs of length {b.shape} does not match {a.shape[0]} rows")
    x = solve_matrix(a, b.reshape(-1, 1), field)
    return None if x is None else x[:, 0]


def solve_matrix(a: np.ndarray, b: np.ndarray, field: Field) -> Optional[np.ndarray]:
    """Solve a @ X = B column-wise; None if any column is inconsistent."""
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch("row counts differ")
    ncols = a.shape[1]
    r = rref(np.concatenate([a, b], axis=1), field)
    if r.pivots and r.pivots[-1] >= ncols:
        return None
    x = field.zeros(ncols, b.shape[1])
    x[list(r.pivots)] = r.matrix[: r.rank, ncols:]
    return x


def column_space_basis(a: np.ndarray, field: Field) -> np.ndarray:
    """Deterministic basis of the column space: the nonzero rows of rref(a.T),
    transposed (so the basis is the identity on its pivot rows)."""
    r = rref(a.T, field)
    return r.matrix[: r.rank].T


def block_diag(field: Field, blocks: list) -> np.ndarray:
    """Block-diagonal in the last two axes; leading axes as in each block."""
    out = field.zeros(*blocks[0].shape[:-2], sum(b.shape[-2] for b in blocks), sum(b.shape[-1] for b in blocks))
    r = c = 0
    for b in blocks:
        out[..., r : r + b.shape[-2], c : c + b.shape[-1]] = b
        r, c = r + b.shape[-2], c + b.shape[-1]
    return out


def in_span(span_rows: np.ndarray, v: np.ndarray, field: Field) -> bool:
    """Is the vector v in the row space given by span_rows?"""
    if span_rows.shape[0] == 0:
        return field.is_zero(v)
    return solve(span_rows.T, v, field) is not None
