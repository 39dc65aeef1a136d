"""Univariate polynomial arithmetic and factorization over GF(p^e).

The public functions take and return numpy int16 arrays of field codes,
index = degree, with no trailing zeros (the zero polynomial is the empty
array).  Inside, a polynomial is a Python list of int codes and each
coefficient operation is a lookup in the field's byte tables (GF.tables):
at the degrees that occur here a list loop costs less than one numpy
call.  Factorization runs squarefree decomposition, then
distinct-degree, then equal-degree splitting (Cantor-Zassenhaus).
"""

import numpy as np

from .gfq import CertificateError


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _lst(f):
    return _trim(np.asarray(f, dtype=np.int16).tolist())


def _arr(f):
    return np.array(f, dtype=np.int16)


def normalize(f):
    return _arr(_lst(f))


def degree(f):
    return len(f) - 1


def constant(field, c):
    return normalize([c])


def _add(T, f, g):
    if len(f) < len(g):
        f, g = g, f
    A = T[0]
    return _trim([A[a][b] for a, b in zip(f, g)] + f[len(g):])


def _scale(T, f, c):
    Mc = T[1][c]
    return _trim([Mc[a] for a in f])


def _mul(T, f, g):
    if not f or not g:
        return []
    A, M = T[0], T[1]
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            Mc = M[c]
            out[i:i + len(g)] = [A[a][Mc[b]]
                                 for a, b in zip(out[i:i + len(g)], g)]
    return out


def _divmod(T, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    A, M, N, I = T
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    r = list(f)
    q = [0] * (len(f) - dg)
    ginv = I[g[-1]]
    for i in range(len(f) - 1, dg - 1, -1):
        if r[i]:
            c = q[i - dg] = M[r[i]][ginv]
            Mc = M[N[c]]
            r[i - dg:i] = [A[a][Mc[b]] for a, b in zip(r[i - dg:i], g)]
    return q, _trim(r[:dg])


def _monic(T, f):
    return _scale(T, f, T[3][f[-1]]) if f else f


def _gcd(T, f, g):
    while g:
        f, g = g, _divmod(T, f, g)[1]
    return _monic(T, f)


def _pow_mod(T, base, k, modulus):
    acc = [1]
    base = _divmod(T, base, modulus)[1]
    while k:
        if k & 1:
            acc = _divmod(T, _mul(T, acc, base), modulus)[1]
        base = _divmod(T, _mul(T, base, base), modulus)[1]
        k >>= 1
    return acc


def add(field, f, g):
    return _arr(_add(field.tables(), _lst(f), _lst(g)))


def mul(field, f, g):
    return _arr(_mul(field.tables(), _lst(f), _lst(g)))


def monic(field, f):
    return _arr(_monic(field.tables(), _lst(f)))


def gcd(field, f, g):
    return _arr(_gcd(field.tables(), _lst(f), _lst(g)))


def _derivative(field, f):
    # the integer i is the prime-subfield code i % p
    M = field.tables()[1]
    return _trim([M[i % field.p][c] for i, c in enumerate(f)][1:])


def _pth_root(field, f):
    """For f with zero derivative, f(x) = g(x^p); return h with
    h(x)^p = f(x), taking c -> c^(q/p), the inverse of Frobenius."""
    M = field.tables()[1]
    out = []
    for c in f[::field.p]:
        r = 1
        for _ in range(field.q // field.p):
            r = M[r][c]
        out.append(r)
    return _trim(out)


def _squarefree(field, f):
    T = field.tables()
    out = {}

    def walk(f, mult):
        if len(f) < 2:
            return
        d = _derivative(field, f)
        if not d:
            walk(_pth_root(field, f), mult * field.p)
            return
        c = _gcd(T, f, d)
        w = _divmod(T, f, c)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(T, w, c)
            g = _monic(T, _divmod(T, w, y)[0])
            if len(g) > 1:
                m = mult * i
                out[m] = _mul(T, out[m], g) if m in out else g
            w = y
            c = _divmod(T, c, y)[0]
            i += 1
        walk(c, mult)  # leftover is a p-th power

    walk(_monic(T, f), 1)
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])


def _distinct_degree(field, f):
    """For squarefree monic f: list of (product_of_degree_d_factors, d)."""
    T = field.tables()
    out = []
    h = [0, 1]
    d = 0
    rest = f
    while len(rest) - 1 > 2 * d:
        d += 1
        h = _pow_mod(T, h, field.q, rest)  # x^(q^d) mod rest
        g = _gcd(T, rest, _add(T, h, [0, T[2][1]]))  # gcd(rest, h - x)
        if len(g) > 1:
            out.append((g, d))
            rest = _divmod(T, rest, g)[0]
            h = _divmod(T, h, rest)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree(field, f, d, rng):
    """Split squarefree monic f, all of whose irreducible factors have degree
    d, into its irreducible factors (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    T = field.tables()
    while True:
        r = _trim(rng.integers(0, field.q, n).tolist())
        if len(r) < 2:
            continue
        g = _gcd(T, f, r)
        if not 0 < len(g) - 1 < n:
            if field.p == 2:
                # trace map over GF(2^(e*d))
                t, acc = [], _divmod(T, r, f)[1]
                for _ in range(field.e * d):
                    t = _add(T, t, acc)
                    acc = _divmod(T, _mul(T, acc, acc), f)[1]
            else:
                rp = _pow_mod(T, r, (field.q ** d - 1) // 2, f)
                t = _add(T, rp, [T[2][1]])
            g = _gcd(T, f, t)
        if 0 < len(g) - 1 < n:
            return _equal_degree(field, g, d, rng) + \
                _equal_degree(field, _divmod(T, f, g)[0], d, rng)


def factor(field, f, seed=0):
    """Full factorization: list of (monic irreducible, multiplicity),
    sorted by (degree, coefficients)."""
    f = _lst(f)
    if not f:
        raise ValueError("factoring the zero polynomial")
    rng = np.random.default_rng(seed)
    out = []
    for g, m in _squarefree(field, f):
        for h, d in _distinct_degree(field, g):
            out.extend((irr, m) for irr in _equal_degree(field, h, d, rng))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    if sum((len(g) - 1) * m for g, m in out) != len(f) - 1:
        raise CertificateError("factor degrees do not add up to deg f")
    return [(_arr(g), m) for g, m in out]

