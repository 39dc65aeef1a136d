"""Exact linear algebra over small finite fields.

Everything in this package is computed over GF(p^e) with q <= 256 using
integer code arrays; there is no floating point and no rounding anywhere.
"""

import numpy as np

from blockperm import gfq

F = gfq.GF.parse("2^2")
print("field:", F.name, "with", F.q, "elements")

rng = np.random.default_rng(1)
A = rng.integers(0, 4, (4, 6)).astype(np.int16)
R, piv, T = gfq.echelon(F, A, transform=True)
print("matrix of rank", len(piv), "with pivots", piv)
assert np.array_equal(F.matmul(T, A), R)

N = gfq.nullspace(F, A)
print("nullspace dim:", N.shape[0])
assert not F.matmul(A, N.T).any()

M = np.array([[1, 2], [3, 0]], dtype=np.int16)
Minv = gfq.inverse(F, M)
print("inverse check:", np.array_equal(
    F.matmul(M, Minv), np.eye(2, dtype=np.int16)))
