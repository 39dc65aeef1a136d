"""Property tests of the gfq kernels, of polys and of the algebra radical
over every field shape.

The fields cover prime fields (2, 7, 251), characteristic 2 extension
fields, whose small products are a table gather with an XOR reduce (4,
256), and odd characteristic extension fields (3^5, 5^3, 13^2).  Matrix
entries come from a numpy generator seeded by hypothesis, with a drawn rank
so that rank-deficient matrices are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockperm import algebra, gfq, meataxe, polys
from test_polys import divmod_poly, is_irreducible

FIELDS = [(2, 1), (7, 1), (251, 1), (2, 2), (2, 8), (3, 5), (5, 3), (13, 2)]
fields = st.sampled_from(FIELDS).map(lambda pe: gfq.GF.get(*pe))
seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(0, 10)
# products at and just past the gather size rule m*k*n <= 1024 e^2 for
# e = 2 and e = 8, and one past it for every e <= 8
LARGE = [(16, 16, 16), (17, 16, 16), (64, 32, 32), (65, 32, 32),
         (48, 32, 48)]


def _matrix(F, rng, m, n, rank):
    """A random m x n matrix of rank at most rank."""
    X = rng.integers(0, F.q, (m, rank)).astype(np.int16)
    Y = rng.integers(0, F.q, (rank, n)).astype(np.int16)
    return F.matmul(X, Y)


def _ref_matmul(F, A, B):
    """A @ B by a pure-Python loop over the field's add and mul tables."""
    add, mul = F.tables()[:2]
    C = [[0] * B.shape[1] for _ in range(A.shape[0])]
    for acc, row in zip(C, A.tolist()):
        for a, brow in zip(row, B.tolist()):
            acc[:] = [add[c][mul[a][b]] for c, b in zip(acc, brow)]
    return np.array(C, dtype=np.int16).reshape(A.shape[0], B.shape[1])


def _is_rref(R, piv):
    if R.shape[0] != len(piv) or list(piv) != sorted(set(piv)):
        return False
    for i, c in enumerate(piv):
        if R[i, :c].any() or R[i, c] != 1:
            return False
    return np.array_equal(R[:, piv], np.eye(len(piv), dtype=np.int16))


@settings(deadline=None, max_examples=150)
@given(fields, seeds, dims, dims, dims, st.booleans(), st.booleans(),
       st.sampled_from(LARGE))
def test_matmul_matches_table_reference(F, seed, m, k, n, large, stacked,
                                        shape):
    rng = np.random.default_rng(seed)
    if large:
        m, k, n = shape
    A = rng.integers(0, F.q, (m, k)).astype(np.int16)
    if stacked:
        # a stack of right operands, as hom_space passes them
        B = rng.integers(0, F.q, (2, k, n)).astype(np.int16)
        got = F.matmul(A, B)
        assert got.shape == (2, m, n)
        for g, b in zip(got, B):
            assert np.array_equal(g, _ref_matmul(F, A, b))
    else:
        B = rng.integers(0, F.q, (k, n)).astype(np.int16)
        assert np.array_equal(F.matmul(A, B), _ref_matmul(F, A, B))


@settings(deadline=None, max_examples=200)
@given(fields, seeds, dims, dims, st.integers(0, 10))
def test_echelon_is_rref_with_transform(F, seed, nr, nc, rank):
    A = _matrix(F, np.random.default_rng(seed), nr, nc, rank)
    R, piv, T = gfq.echelon(F, A, transform=True)
    assert _is_rref(R, piv) and len(piv) <= min(nr, nc, rank)
    assert np.array_equal(F.matmul(T, A), R)
    R2, piv2 = gfq.echelon(F, A)
    assert np.array_equal(R2, R) and piv2 == piv
    if F.e == 1:
        Rb, pivb = gfq._echelon_prime_blocked(F.p, A, nc)
        assert np.array_equal(Rb, R) and pivb == piv


@settings(deadline=None, max_examples=200)
@given(fields, seeds, dims, dims, st.integers(0, 10))
def test_nullspace_solve_inverse(F, seed, nr, nc, rank):
    rng = np.random.default_rng(seed)
    A = _matrix(F, rng, nr, nc, rank)
    r = gfq.rank(F, A)
    N = gfq.nullspace(F, A)
    assert N.shape == (nc - r, nc) and gfq.rank(F, N) == nc - r
    assert not F.matmul(A, N.T).any()
    X0 = rng.integers(0, F.q, (nc, 3)).astype(np.int16)
    B = F.matmul(A, X0)
    X = gfq.solve(F, A, B)
    assert X is not None and np.array_equal(F.matmul(A, X), B)
    S = _matrix(F, rng, nc, nc, nc)
    if gfq.rank(F, S) == nc:
        Sinv = gfq.inverse(F, S)
        assert np.array_equal(F.matmul(S, Sinv), np.eye(nc, dtype=np.int16))
    else:
        with pytest.raises(ValueError):
            gfq.inverse(F, S)


def _poly(F, rng, deg):
    f = rng.integers(0, F.q, deg + 1).astype(np.int16)
    f[-1] = rng.integers(1, F.q)
    return f


@settings(deadline=None, max_examples=200)
@given(fields, seeds, st.integers(0, 14), st.integers(0, 8))
def test_divmod_poly(F, seed, df, dg):
    rng = np.random.default_rng(seed)
    f, g = _poly(F, rng, df), _poly(F, rng, dg)
    q, r = divmod_poly(F, f, g)
    assert polys.degree(r) < polys.degree(g)
    assert np.array_equal(polys.add(F, polys.mul(F, q, g), r), f)


@settings(deadline=None, max_examples=200)
@given(fields, seeds, st.integers(1, 4), st.integers(0, 3))
def test_factor_round_trip(F, seed, da, db):
    """f = a^2 b has a repeated factor, so the squarefree step is used."""
    rng = np.random.default_rng(seed)
    a, b = _poly(F, rng, da), _poly(F, rng, db)
    f = polys.mul(F, polys.mul(F, a, a), b)
    facs = polys.factor(F, f, seed=seed % 7)
    prod = polys.constant(F, 1)
    for g, mult in facs:
        assert is_irreducible(F, g) and g[-1] == 1
        for _ in range(mult):
            prod = polys.mul(F, prod, g)
    assert np.array_equal(prod, polys.monic(F, f))
    keys = [(polys.degree(g), g.tolist()) for g, _m in facs]
    assert keys == sorted(keys)


@settings(deadline=None, max_examples=30)
@given(fields, seeds, st.integers(1, 3), st.integers(1, 2))
def test_trace_radical_of_polynomial_quotients(F, seed, da, db):
    """GF(q)[x]/(a^2 b) on the basis 1, x, ..., x^(n-1) for random a, b:
    the trace-functional radical is the MeatAxe radical of the regular
    module, RREF rows and pivots."""
    rng = np.random.default_rng(seed)
    a, b = _poly(F, rng, da), _poly(F, rng, db)
    f = polys.mul(F, polys.mul(F, a, a), b)
    n = polys.degree(f)
    mult = np.zeros((n, n, n), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            r = divmod_poly(F, np.eye(1, i + j + 1, i + j,
                                      dtype=np.int16)[0], f)[1]
            mult[i, j, :len(r)] = r
    alg = algebra.FinDimAlgebra(F, mult, np.eye(1, n, 0, dtype=np.int16)[0])
    R, piv = alg.radical_basis()
    R0, piv0 = meataxe.module_radical(F, alg.left_mats())
    assert np.array_equal(R, R0) and list(piv) == list(piv0)


class _RefEchelon:
    """The sequential engine the reduced copy replaced: add(v) reduces v
    against the held rows one at a time."""

    def __init__(self, field, track=0):
        self.field = field
        self.rows = []
        self.pivots = []
        self.track = track
        self.coeffs = []
        self.offered = 0
        self.relation = None

    def add(self, v):
        F = self.field
        red = np.asarray(v, dtype=np.int16)
        co = None
        if self.track:
            co = np.zeros(self.track, dtype=np.int16)
            co[self.offered] = 1
        self.offered += 1
        for i, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            c = red[piv]
            if c:
                red = F.sub(red, F.mul(np.int16(c), row))
                if co is not None:
                    co = F.sub(co, F.mul(np.int16(c), self.coeffs[i]))
        nz = np.nonzero(red)[0]
        if len(nz) == 0:
            self.relation = co
            return False
        piv = int(nz[0])
        inv = np.int16(F.inv(int(red[piv])))
        self.rows.append(F.mul(inv, red))
        self.pivots.append(piv)
        if co is not None:
            self.coeffs.append(F.mul(inv, co))
        return True


class _RefSpin:
    """The spin that offered one image at a time, queue order."""

    def __init__(self, field, mats):
        self.field = field
        self.mats = mats
        self.basis = _RefEchelon(field)
        self.raws = []
        self.tree = []
        self.nseeds = 0

    def _take(self, v, tag):
        if not self.basis.add(v):
            return False
        self.raws.append(v)
        self.tree.append(tag)
        return True

    def seed(self, v):
        if not self._take(np.asarray(v, dtype=np.int16),
                          ("seed", self.nseeds)):
            return
        self.nseeds += 1
        i = len(self.raws) - 1
        while i < len(self.raws):
            for g, M in enumerate(self.mats):
                w = self.field.matmul(M, self.raws[i][:, None])[:, 0]
                self._take(w, ("mul", g, i))
            i += 1


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


def _invariant_mats(F, rng, n, ngens, split):
    """ngens random n x n matrices that keep the span of the first split
    unit vectors, so spins of vectors supported there stay proper."""
    mats = []
    for _ in range(ngens):
        M = rng.integers(0, F.q, (n, n)).astype(np.int16)
        M[split:, :split] = 0
        mats.append(M)
    return mats


def _seed_rows(F, rng, k, n, split, rank):
    """k seeds of rank at most rank: zero rows, repeats and vectors inside
    the invariant block all occur."""
    S = _matrix(F, rng, k, n, rank)
    inside = rng.random(k) < 0.5
    S[inside, split:] = 0
    return S


@settings(deadline=None, max_examples=200)
@given(fields, seeds, dims, st.integers(0, 14), st.integers(0, 10),
       st.booleans())
def test_echelon_matches_sequential_reference(F, seed, n, k, rank, track):
    """Accept flags, rows, pivots, coefficients and relations of the
    reduced-copy engine equal those of reducing row by row."""
    V = _matrix(F, np.random.default_rng(seed), k, n, rank)
    eng = gfq.Echelon(F, track=k if track else 0)
    ref = _RefEchelon(F, track=k if track else 0)
    for v in V:
        assert eng.add(v) == ref.add(v)
        assert eng.pivots == ref.pivots
        assert _same_arrays(eng.rows, ref.rows)
        assert _same_arrays(eng.coeffs, ref.coeffs)
        if ref.relation is None:
            assert eng.relation is None
        else:
            assert _same_arrays([eng.relation], [ref.relation])
    if eng.rows:
        R, piv = eng.rref()
        R0, piv0 = gfq.echelon(F, np.array(eng.rows))
        assert piv == piv0 and R.tobytes() == R0.tobytes()


@settings(deadline=None, max_examples=150)
@given(fields, seeds, st.integers(1, 10), st.integers(0, 3),
       st.integers(1, 4), st.integers(0, 10))
def test_spin_matches_queue_reference(F, seed, n, ngens, k, rank):
    """raws, tree, nseeds and rows of the frontier spin equal those of
    the spin that moved one vector at a time; spin_rref is the echelon
    form of spin_basis."""
    rng = np.random.default_rng(seed)
    split = int(rng.integers(0, n + 1))
    mats = _invariant_mats(F, rng, n, ngens, split)
    seeds_ = _seed_rows(F, rng, k, n, split, rank)
    spin, ref = gfq.Spin(F, mats), _RefSpin(F, mats)
    for v in seeds_:
        spin.seed(v)
        ref.seed(v)
        assert spin.tree == ref.tree and spin.nseeds == ref.nseeds
        assert _same_arrays(spin.raws, ref.raws)
        assert spin.basis.pivots == ref.basis.pivots
        assert _same_arrays(spin.basis.rows, ref.basis.rows)
    B, piv, tree = gfq.spin_basis(F, mats, seeds_)
    assert tree == ref.tree and piv == ref.basis.pivots
    R, rpiv = meataxe.spin_rref(F, mats, seeds_)
    R0, rpiv0 = gfq.echelon(F, B)
    assert rpiv == rpiv0 and R.dtype == R0.dtype
    assert R.shape == R0.shape and R.tobytes() == R0.tobytes()
