import numpy as np
import pytest

from blockperm import gfq


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms_exhaustive(p, e):
    F = gfq.GF.get(p, e)
    q = p ** e
    elems = np.arange(q, dtype=np.int16)
    a = np.repeat(elems, q)
    b = np.tile(elems, q)
    # commutativity
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    # distributivity over all triples
    for c in elems:
        lhs = F.mul(c, F.add(a, b))
        rhs = F.add(F.mul(c, a), F.mul(c, b))
        assert np.array_equal(lhs, rhs)
    # additive and multiplicative inverses
    assert np.all(F.add(elems, F.neg(elems)) == 0)
    nz = elems[1:]
    assert np.all(F.mul(nz, F.inv(nz)) == 1)


@pytest.mark.parametrize("p,e", FIELDS)
def test_associativity_sampled(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(7)
    q = p ** e
    a, b, c = (rng.integers(0, q, 50).astype(np.int16) for _ in range(3))
    assert np.array_equal(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
    assert np.array_equal(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))


EXTENSION_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 9)
                    if p ** e <= 256]


def _reference_tables(F):
    """add, mul, neg, inv tables one polynomial product at a time."""
    p, e, q = F.p, F.e, F.q

    def decode(c):
        return tuple(c // p ** i % p for i in range(e))

    def encode(coeffs):
        return sum(x * p ** i for i, x in enumerate(coeffs))

    add = [[encode([(x + y) % p for x, y in zip(decode(a), decode(b))])
            for b in range(q)] for a in range(q)]
    mul = [[encode(gfq._poly_mul_mod(decode(a), decode(b), F.modulus, p))
            for b in range(q)] for a in range(q)]
    neg = [encode([-x % p for x in decode(a)]) for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return add, mul, neg, inv


@pytest.mark.parametrize("p,e", EXTENSION_FIELDS)
def test_extension_tables_match_polynomial_arithmetic(p, e):
    F = gfq.GF.get(p, e)
    add, mul, neg, inv = _reference_tables(F)
    assert F._add_table.tolist() == add
    assert F._mul_table.tolist() == mul
    assert F._neg_table.tolist() == neg
    assert F._inv_table.tolist() == inv


def test_non_primitive_modulus_is_refused(monkeypatch):
    # x^2 + 1 is irreducible over GF(3) but x has order 4, not 8
    monkeypatch.setattr(gfq.GF, "_find_modulus", lambda self: (1, 0, 1))
    monkeypatch.setattr(gfq, "_FIELD_CACHE", {})
    with pytest.raises(gfq.CertificateError):
        gfq.GF(3, 2)


def test_gf_singleton_and_parse():
    assert gfq.GF.get(5) is gfq.GF.get(5, 1)
    assert gfq.GF.parse("2^3") is gfq.GF.get(2, 3)
    assert gfq.GF.parse("11") is gfq.GF.get(11)
    with pytest.raises(ValueError):
        gfq.GF.get(4)          # not prime
    with pytest.raises(ValueError):
        gfq.GF.get(2, 9)       # 512 > 256


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_echelon_and_rank(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(p * 10 + e)
    for _ in range(20):
        m, n = rng.integers(1, 9, 2)
        A = rng.integers(0, p ** e, (m, n)).astype(np.int16)
        R, piv, T = gfq.echelon(F, A, transform=True)
        assert np.array_equal(F.matmul(T, A), R)
        r = len(piv)
        assert gfq.rank(F, A) == r
        # pivots are strictly increasing and the pivot columns are unit
        assert list(piv) == sorted(set(piv))
        for i, c in enumerate(piv):
            col = R[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_nullspace_annihilates():
    F = gfq.GF.get(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.integers(0, 3, (6, 8)).astype(np.int16)
        N = gfq.nullspace(F, A)
        assert N.shape[0] == 8 - gfq.rank(F, A)
        if N.shape[0]:
            assert not F.matmul(A, N.T).any()


def test_solve_and_inverse():
    F = gfq.GF.get(7)
    rng = np.random.default_rng(1)
    # random invertible matrix by rejection
    while True:
        A = rng.integers(0, 7, (5, 5)).astype(np.int16)
        if gfq.rank(F, A) == 5:
            break
    Ainv = gfq.inverse(F, A)
    assert np.array_equal(F.matmul(A, Ainv), np.eye(5, dtype=np.int16))
    B = rng.integers(0, 7, (5, 3)).astype(np.int16)
    X = gfq.solve(F, A, B)
    assert np.array_equal(F.matmul(A, X), B)


def test_rref_rank_nullspace_gf4():
    F = gfq.GF.get(2, 2)
    A = np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]], dtype=np.int16)
    R, piv = gfq.echelon(F, A)
    r = R.shape[0]
    assert r == len(piv) == gfq.rank(F, A)
    N = gfq.nullspace(F, A)
    assert N.shape[0] == 3 - r
    ident = np.eye(3, dtype=np.int16)
    assert gfq.rank(F, ident) == 3


def test_spin_basis_closure():
    F = gfq.GF.get(2)
    # regular module of C4 acting on F2^4, spin up from a single vector
    M = np.roll(np.eye(4, dtype=np.int16), 1, axis=1)
    seed = np.zeros((1, 4), dtype=np.int16)
    seed[0, 0] = 1
    basis, piv, _tree = gfq.spin_basis(F, [M], seed)
    assert basis.shape[0] == 4
    spanned = gfq.rank(F, np.vstack([basis, F.matmul(basis, M.T)]))
    assert spanned == basis.shape[0]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 2)])
def test_spin_basis_several_seeds(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(4)
    # block-diagonal action, so one seed per block spans a proper submodule
    n = 6
    mats = []
    for _ in range(2):
        M = np.zeros((n, n), dtype=np.int16)
        M[:3, :3] = rng.integers(0, F.q, (3, 3))
        M[3:, 3:] = rng.integers(0, F.q, (3, 3))
        mats.append(M)
    seeds = np.zeros((3, n), dtype=np.int16)
    seeds[0, 0] = 1
    seeds[1, 4] = 1
    seeds[2, 0] = 1  # already in the span: not a new seed
    basis, piv, tree = gfq.spin_basis(F, mats, seeds)
    # the span is invariant
    for M in mats:
        moved = F.matmul(basis, M.T)
        assert gfq.rank(F, np.vstack([basis, moved])) == basis.shape[0]
    # the tree numbers accepted seeds only
    seed_tags = [t for t in tree if t[0] == "seed"]
    assert seed_tags == [("seed", 0), ("seed", 1)]
    assert len(piv) == len(set(piv)) == basis.shape[0]
    # the reduced echelon form of the span does not depend on seed order
    ref = gfq.echelon(F, basis)
    for order in ([1, 0, 2], [2, 1, 0]):
        other, _p, _t = gfq.spin_basis(F, mats, seeds[order])
        R, P = gfq.echelon(F, other)
        assert P == ref[1] and np.array_equal(R, ref[0])


def test_echelon_engine_relation():
    F = gfq.GF.get(7)
    rng = np.random.default_rng(2)
    vecs = rng.integers(0, 7, (3, 5)).astype(np.int16)
    dep = F.add(F.mul(np.int16(3), vecs[0]), F.mul(np.int16(5), vecs[2]))
    eng = gfq.Echelon(F, track=4)
    assert all(eng.add(v) for v in vecs)
    assert not eng.add(dep)
    rel = eng.relation
    assert rel[3] == 1
    combo = F.sum(F.mul(rel[:, None], np.vstack([vecs, dep])), axis=0)
    assert not combo.any()


def _reference_mod(C, p):
    return np.array([int(x) % p for x in C.reshape(-1)]).reshape(C.shape)


@pytest.mark.parametrize("p", [2, 7, 251])
def test_reduce_matches_python_ints(p):
    rng = np.random.default_rng(p)
    top = gfq.EXACT_BOUND - 1
    edges = [0, p, -p, 3 * p, -5 * p, top, -top, top // p * p,
             -(top // p * p), 1, -1, p - 1, -(p - 1)]
    for size in (len(edges), 128, 129, 5000):
        vals = np.concatenate([
            edges, rng.integers(-top, top, size),
            rng.integers(-(p - 1) ** 2 * 64, (p - 1) ** 2 * 64, size)])[:size]
        C = vals.astype(np.float64)
        assert np.array_equal(C, vals)  # the test data are exact
        out = gfq._reduce(C, p, top)
        assert out is C                 # in place
        assert np.array_equal(out, _reference_mod(vals, p))


def test_reduce_refuses_past_its_bound():
    C = np.zeros((3, 3))
    gfq._reduce(C, 7, gfq.EXACT_BOUND - 1)
    with pytest.raises(gfq.CertificateError):
        gfq._reduce(C, 7, gfq.EXACT_BOUND)
    assert issubclass(gfq.CertificateError, AssertionError)


@pytest.mark.parametrize("p", [2, 7, 251])
def test_matmul_prime_matches_python_ints(p):
    F = gfq.GF.get(p)
    rng = np.random.default_rng(p + 1)
    for m, k, n in [(1, 1, 1), (3, 5, 2), (12, 40, 17), (2, 3000, 3),
                    (70, 70, 1), (2, 0, 3), (0, 4, 2)]:
        A = rng.integers(0, p, (m, k)).astype(np.int16)
        B = rng.integers(0, p, (k, n)).astype(np.int16)
        ref = (A.astype(object) @ B.astype(object)) % p
        out = F.matmul(A, B)
        assert out.dtype == np.int16
        assert np.array_equal(out, ref.astype(np.int64))
    # all entries p-1: the largest sums a reduced product can reach
    A = np.full((4, 999), p - 1, dtype=np.int16)
    assert np.array_equal(F.matmul(A, A.T),
                          np.full((4, 4), 999 * (p - 1) ** 2 % p))


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (5, 3), (2, 8)])
def test_matmul_extension_matches_tables(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(p * 100 + e)
    for m, k, n in [(1, 1, 1), (3, 5, 2), (7, 30, 4), (2, 300, 3),
                    (70, 40, 30), (0, 4, 2), (3, 4, 0), (2, 0, 3)]:
        A = rng.integers(0, F.q, (m, k)).astype(np.int16)
        B = rng.integers(0, F.q, (k, n)).astype(np.int16)
        ref = np.zeros((m, n), dtype=np.int16)
        for i in range(k):
            ref = F.add(ref, F.mul(A[:, i][:, None], B[i][None, :]))
        assert np.array_equal(F.matmul(A, B), ref)
        # a stack of right operands, as hom_space passes them
        B3 = rng.integers(0, F.q, (3, k, n)).astype(np.int16)
        assert np.array_equal(F.matmul(A, B3),
                              np.array([F.matmul(A, b) for b in B3]))


@pytest.mark.parametrize("p,e,k_ok", [(7, 1, 27), (2, 8, 15), (3, 2, 31)])
def test_matmul_enforces_the_exactness_bound(monkeypatch, p, e, k_ok):
    """A prime-field product sums up to k (p-1)^2.  Over GF(p^e) an output
    plane sums e^2 plane products of that size, each scaled by <= p-1:
    e^2 k (p-1)^3.  Past the bound the kernel refuses.  80 rows put the
    GF(2^8) product above the table-gather size rule, on the plane kernel."""
    monkeypatch.setattr(gfq, "EXACT_BOUND", 1000)
    F = gfq.GF.get(p, e)
    bound = (k_ok * (p - 1) ** 2 if e == 1
             else e * e * k_ok * (p - 1) ** 3)
    assert bound < 1000
    assert 80 * 80 * k_ok > 1024 * e * e
    A = np.ones((80, k_ok), dtype=np.int16)
    F.matmul(A, A.T)
    A = np.ones((80, k_ok + 1), dtype=np.int16)
    with pytest.raises(gfq.CertificateError):
        F.matmul(A, A.T)


@pytest.mark.parametrize("p", [2, 7, 251])
def test_blocked_echelon_matches_generic(p):
    """Above 4096 entries prime fields take _echelon_prime_blocked; on
    rank-deficient matrices with zero and repeated rows it must give the
    same pivots and RREF as the generic elimination."""
    F = gfq.GF.get(p)
    rng = np.random.default_rng(100 + p)
    for nr, nc, r in [(150, 90, 37), (200, 70, 70), (65, 130, 12)]:
        X = rng.integers(0, p, (nr, r)).astype(np.int16)
        Y = rng.integers(0, p, (r, nc)).astype(np.int16)
        A = F.matmul(X, Y)
        A[5] = 0
        A[nr - 1] = A[3]
        assert A.size > 4096
        R, piv = gfq.echelon(F, A)
        Rg, pivg = gfq._echelon_generic(F, A, nc)
        assert piv == pivg
        assert np.array_equal(R, Rg)
        assert len(piv) <= r < nr
        R2, piv2, T = gfq.echelon(F, A, transform=True)
        assert piv2 == piv and np.array_equal(R2, R)
        assert np.array_equal(F.matmul(T, A), R)
