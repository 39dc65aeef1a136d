import numpy as np
import pytest

from blockperm import gfq, polys


def is_irreducible(field, f):
    """Whether f is irreducible: squarefree, with a single distinct-degree
    part of full degree.  An oracle for factor that skips its
    equal-degree split; blockperm itself reads irreducibility off
    factor."""
    T = field.tables()
    f = polys._monic(T, polys._lst(f))
    if len(f) < 3:
        return len(f) == 2
    d = polys._derivative(field, f)
    if not d or len(polys._gcd(T, f, d)) > 1:
        return False
    ddf = polys._distinct_degree(field, f)
    return len(ddf) == 1 and ddf[0][1] == len(f) - 1


def is_zero(f):
    return len(f) == 0


def x_poly():
    return np.array([0, 1], dtype=np.int16)


def divmod_poly(field, f, g):
    """(quotient, remainder) of f by g, as arrays."""
    q, r = polys._divmod(field.tables(), polys._lst(f), polys._lst(g))
    return polys._arr(q), polys._arr(r)


def eval_at(field, f, c):
    """f(c) by Horner's rule on the field's tables."""
    A, M = field.tables()[:2]
    acc = 0
    for a in reversed(polys._lst(f)):
        acc = A[M[acc][c]][a]
    return acc


def squarefree_decomposition(field, f):
    """List of (g_i, i) with f = prod g_i^i (up to the leading unit), g_i
    squarefree and pairwise coprime."""
    return [(polys._arr(g), m) for g, m in polys._squarefree(
        field, polys._lst(f))]


def rand_poly(rng, q, deg):
    f = list(rng.integers(0, q, deg + 1))
    f[-1] = max(1, f[-1])
    return np.array(f, dtype=np.int16)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_divmod_identity(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(p + e)
    for _ in range(25):
        f = rand_poly(rng, F.q, int(rng.integers(1, 8)))
        g = rand_poly(rng, F.q, int(rng.integers(0, 5)))
        quo, rem = divmod_poly(F, f, g)
        back = polys.add(F, polys.mul(F, quo, g), rem)
        assert np.array_equal(polys.normalize(back), polys.normalize(f))
        assert polys.degree(rem) < polys.degree(g)


def test_gcd_divides_both():
    F = gfq.GF.get(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rand_poly(rng, 3, 2)
        f = polys.mul(F, h, rand_poly(rng, 3, 3))
        g = polys.mul(F, h, rand_poly(rng, 3, 2))
        d = polys.gcd(F, f, g)
        assert polys.degree(d) >= polys.degree(polys.monic(F, h)) or \
            polys.degree(h) < 0
        _, r1 = divmod_poly(F, f, d)
        _, r2 = divmod_poly(F, g, d)
        assert is_zero(r1) and is_zero(r2)


def test_factor_reassembles():
    F = gfq.GF.get(2)
    rng = np.random.default_rng(9)
    for _ in range(15):
        f = rand_poly(rng, 2, int(rng.integers(2, 9)))
        facs = polys.factor(F, f, seed=3)
        prod = polys.constant(F, 1)
        for g, mult in facs:
            assert is_irreducible(F, g)
            for _ in range(mult):
                prod = polys.mul(F, prod, g)
        assert np.array_equal(polys.monic(F, polys.normalize(f)),
                              polys.normalize(prod))


def test_irreducibility_known_cases():
    F2 = gfq.GF.get(2)
    # x^2 + x + 1 irreducible over GF(2); x^2 + 1 = (x+1)^2 is not
    assert is_irreducible(F2, np.array([1, 1, 1], dtype=np.int16))
    assert not is_irreducible(F2, np.array([1, 0, 1], dtype=np.int16))
    F5 = gfq.GF.get(5)
    # x^2 - 2 irreducible over GF(5) (2 is a non-residue)
    assert is_irreducible(F5, np.array([3, 0, 1], dtype=np.int16))


def test_eval_and_roots():
    F = gfq.GF.get(7)
    # f = (x-1)(x-2) = x^2 - 3x + 2
    f = np.array([2, 4, 1], dtype=np.int16)
    assert eval_at(F, f, 1) == 0
    assert eval_at(F, f, 2) == 0
    assert eval_at(F, f, 3) != 0
    facs = polys.factor(F, f)
    assert sorted(polys.degree(g) for g, _m in facs) == [1, 1]


def test_squarefree_decomposition():
    F = gfq.GF.get(3)
    x = x_poly()
    xp1 = polys.add(F, x, polys.constant(F, 1))
    f = polys.mul(F, polys.mul(F, xp1, xp1), x)
    parts = squarefree_decomposition(F, f)
    mults = sorted(m for _g, m in parts if polys.degree(_g) > 0)
    assert mults == [1, 2]
