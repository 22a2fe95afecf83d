# Exact linear algebra tour: everything upstream reduces to these kernels.
#
# ladderkit computes over a prime field F_p (default p = 101) or over the
# rationals; there is no floating point anywhere.  This script walks through
# the four primitive operations.

import numpy as np

from ladderkit.linalg import Field, kernel_basis, rref, solve

F = Field(101)
Q = Field(None)  # the rationals (exact, but coefficients can grow)

# --- reduced row echelon form -------------------------------------------------
m = F.asarray([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
r = rref(m, F)
print("rref over F_101:")
print(r.matrix)
print("pivot columns:", r.pivots, " rank:", r.rank)

# rref is idempotent: reducing again changes nothing
again = rref(r.matrix, F)
assert np.array_equal(again.matrix, r.matrix)

# --- kernels -------------------------------------------------------------------
k = kernel_basis(m, F)
print("\nkernel basis (columns):")
print(k)
assert np.all(F.matmul(m, k) == 0)
assert r.rank + k.shape[1] == m.shape[1]  # rank-nullity

# --- solving -------------------------------------------------------------------
b = F.asarray([1, 0, 1])
x = solve(m, b, F)
print("\nsolve m x = (1,0,1):", x)
if x is not None:
    assert np.array_equal(F.matmul(m, x.reshape(-1, 1))[:, 0], b)

# modular arithmetic in action: 2 x = 1 over F_5 gives x = 3
F5 = Field(5)
print("inverse of 2 mod 5:", solve(F5.asarray([[2]]), F5.asarray([1]), F5)[0])

# --- Kronecker products ----------------------------------------------------------
# the fixed lexicographic ordering makes kron literally associative, which is
# what keeps all bimodule constructions bit-for-bit consistent
a2 = F.asarray([[1, 2], [0, 1]])
b2 = F.asarray([[0, 1], [1, 0]])
c2 = F.asarray([[3, 0], [0, 4]])
assert np.array_equal(F.normalize(np.kron(np.kron(a2, b2), c2)), F.normalize(np.kron(a2, np.kron(b2, c2))))
print("\nkron(I2, I3) = I6:", np.array_equal(F.normalize(np.kron(F.eye(2), F.eye(3))), F.eye(6)))

# --- rationals -------------------------------------------------------------------
from fractions import Fraction

mq = Q.asarray([[1, 2], [2, 4]])
print("\nover Q, [[1,2],[2,4]] has rank", rref(mq, Q).rank)
xq = solve(Q.asarray([[3]]), Q.asarray([Fraction(1, 7)]), Q)
print("3 x = 1/7 over Q: x =", xq[0])
