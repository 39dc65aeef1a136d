"""Exact dense linear algebra over finite fields GF(p^e) with p^e <= 256.

Field elements are integer codes 0..q-1.  For prime fields the code is the
residue itself.  For extension fields the element sum_i c_i * x^i (mod a fixed
monic modulus polynomial) gets the code sum_i c_i * p^i.  The modulus is the
lexicographically smallest monic primitive polynomial of the right degree, so
a given q always produces the same arithmetic.

Matrices are plain numpy int16 arrays of reduced codes: every operand handed
to a kernel already lies in 0..q-1 (GModule and FinDimAlgebra enforce this
at their boundary with GF.array), so the kernels cast codes straight to
float64 and never reduce their inputs.  Matrix products go through float64
BLAS and reduce once per product; over extension fields the product works
on coefficient planes, e float64 products for GF(p^e), and reduces all its
output planes at once.  Small products over GF(2^e) skip the planes: a
code's bits are its coefficients, so they are a gather from the
multiplication table and an XOR reduce.  The blocked prime-field echelon
reduces once per block update.  Every float64 reduction goes through
_reduce, which is exact while the entries stay below 2**51 in absolute
value; each caller passes an a-priori bound from the shapes, and _reduce
raises CertificateError if that bound could be exceeded.  Small echelon
forms are whole-array row operations on int64 mod p or on the arithmetic
tables.  So is the incremental engine Echelon: it keeps a reduced copy of
its rows, so a vector costs one product with the copy and, when it is new,
one rank-1 update; Spin moves a whole frontier with one product.  All row
reduction is exact.
"""

import numpy as np

_FIELD_CACHE = {}


class CertificateError(AssertionError):
    """A mathematical certificate failed: the computation is wrong, not the
    input.  Raised by explicit checks that also run under python -O."""


# _reduce is exact for float64 integers of absolute value below this
EXACT_BOUND = 2 ** 51


def _reduce(C, p, bound):
    """Reduce the float64 array C of exact integers mod p, in place.

    bound is an a-priori bound on max |C| that the caller derives from the
    shapes and reduced operands; CertificateError if it reaches EXACT_BOUND.

    Why C - p * floor((C + 0.5) * fl(1/p)) is exact for |C| < 2**51, with
    u = 2**-53: C + 0.5 needs 52 integer bits and one fractional bit, so it
    is exact.  Write C + 0.5 = p*m + r + 0.5 with 0 <= r <= p-1; the true
    quotient m + (r + 0.5)/p lies at least 0.5/p away from every integer.
    fl(1/p) and the product each carry a relative error of at most u, so
    the computed quotient is off by at most |C + 0.5| (2u + u^2) / p, which
    is below 0.5/p when |C + 0.5| < 2**51 / (1 + u/2), true for every
    integer |C| <= 2**51 - 1.  So floor returns m exactly, p*m is exact
    (|p*m| <= |C| + p < 2**53), and C - p*m = r in 0..p-1.
    """
    if bound >= EXACT_BOUND:
        raise CertificateError("float64 entries up to %d are past the exact "
                               "reduction bound 2**51" % bound)
    Q = C + 0.5
    Q *= 1.0 / p
    np.floor(Q, out=Q)
    Q *= p
    C -= Q
    return C


def _factorint(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _poly_mul_mod(a, b, mod, p):
    """Multiply coefficient tuples a, b modulo the monic poly mod, over GF(p)."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    e = len(mod) - 1
    for k in range(len(res) - 1, e - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for j in range(e):
                res[k - e + j] = (res[k - e + j] - c * mod[j]) % p
    res = res[:e]
    return tuple(res + [0] * (e - len(res)))


def _is_irreducible(mod, p):
    """Rabin test on a monic coefficient tuple (c0,...,c_{e-1},1) over GF(p)."""
    e = len(mod) - 1
    x = tuple([0, 1] + [0] * (e - 2)) if e >= 2 else (0,)

    def frob(poly, times):
        for _ in range(times):
            acc = tuple([1] + [0] * (e - 1))
            base = poly
            k = p
            while k:
                if k & 1:
                    acc = _poly_mul_mod(acc, base, mod, p)
                base = _poly_mul_mod(base, base, mod, p)
                k >>= 1
            poly = acc
        return poly

    # x^(p^e) == x required
    if frob(x, e) != x:
        return False
    # no fixed points at proper prime-index subfields beyond linear factors
    for r in _factorint(e):
        y = frob(x, e // r)
        if y == x:
            return False
    return True


class GF:
    """Finite field GF(p^e) with vectorized arithmetic on numpy code arrays."""

    def __init__(self, p, e=1):
        if (p, e) in _FIELD_CACHE:
            raise RuntimeError("use GF.get")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("characteristic %d is not prime" % p)
        self.p = p
        self.e = e
        self.q = p ** e
        if self.q > 256:
            raise ValueError("field too large: q = %d > 256" % self.q)
        self._scalar_tables = None
        if e == 1:
            self.modulus = None
            inv = np.zeros(p, dtype=np.int16)
            for a in range(1, p):
                inv[a] = pow(a, p - 2, p)
            self._inv_table = inv
        else:
            self.modulus = self._find_modulus()
            self._build_tables()

    @staticmethod
    def get(p, e=1):
        key = (p, e)
        if key not in _FIELD_CACHE:
            _FIELD_CACHE[key] = GF(p, e)
        return _FIELD_CACHE[key]

    @staticmethod
    def parse(spec):
        """Parse 'p' or 'p^e' into a field."""
        if "^" in spec:
            p, e = spec.split("^")
            return GF.get(int(p), int(e))
        q = int(spec)
        fac = _factorint(q)
        if len(fac) != 1:
            raise ValueError("not a prime power: %s" % spec)
        (p, e), = fac.items()
        return GF.get(p, e)

    def __repr__(self):
        if self.e == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.e)

    @property
    def name(self):
        return "%d" % self.p if self.e == 1 else "%d^%d" % (self.p, self.e)

    def _find_modulus(self):
        p, e = self.p, self.e
        # scan monic polys by ascending code of the non-leading coefficients
        for code in range(1, p ** e):
            coeffs = []
            c = code
            for _ in range(e):
                coeffs.append(c % p)
                c //= p
            mod = tuple(coeffs + [1])
            if not _is_irreducible(mod, p):
                continue
            # primitivity: x must generate the unit group
            ok = True
            n = p ** e - 1
            x = tuple([0, 1] + [0] * (e - 2))
            for r in _factorint(n):
                acc = tuple([1] + [0] * (e - 1))
                base = x
                k = n // r
                while k:
                    if k & 1:
                        acc = _poly_mul_mod(acc, base, mod, p)
                    base = _poly_mul_mod(base, base, mod, p)
                    k >>= 1
                if acc == tuple([1] + [0] * (e - 1)):
                    ok = False
                    break
            if ok:
                return mod
        raise RuntimeError("no primitive polynomial found")

    def _build_tables(self):
        """Arithmetic tables from log/antilog tables of x.

        antilog[k] is the code of x^k, from q-1 steps of multiplying by x
        and reducing by the modulus; q-1 distinct nonzero codes certify that
        x generates the unit group.  Sums add coefficient planes mod p."""
        p, e, q = self.p, self.e, self.q
        ix = np.arange(e)
        planes = np.arange(q)[:, None] // p ** ix % p  # coefficients of codes
        antilog = np.zeros(q - 1, dtype=np.int64)
        c = [1] + [0] * (e - 1)
        for k in range(q - 1):
            antilog[k] = sum(ci * p ** i for i, ci in enumerate(c))
            top = c[-1]
            c = [(lo - top * m) % p for lo, m in zip([0] + c[:-1],
                                                     self.modulus)]
        if not np.array_equal(np.sort(antilog), np.arange(1, q)):
            raise CertificateError("x does not generate the unit group")
        log = np.zeros(q, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        lg = log[1:]
        mul = np.zeros((q, q), dtype=np.int16)
        mul[1:, 1:] = antilog[(lg[:, None] + lg) % (q - 1)]
        self._mul_table = mul
        self._add_table = ((planes[:, None] + planes) % p @ p ** ix) \
            .astype(np.int16)
        self._neg_table = (-planes % p @ p ** ix).astype(np.int16)
        inv = np.zeros(q, dtype=np.int16)
        inv[1:] = antilog[-lg % (q - 1)]
        self._inv_table = inv
        # x^t mod modulus for t < 2e-1, as coefficient rows (plane reduction)
        red = planes[antilog[:2 * e - 1]]
        # _planes[c] holds the coefficients of code c; _weights[d1][d2, j]
        # is the coefficient of x^j in x^(d1+d2)
        self._planes = planes.astype(np.float64)
        self._weights = red[ix[:, None] + ix].astype(np.float64)
        self._powers = p ** ix.astype(np.float64)

    # ---- vectorized elementwise arithmetic on code arrays ----

    def array(self, data):
        a = np.asarray(data, dtype=np.int16)
        if self.e == 1:
            return a % self.p
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise ValueError("codes outside 0..%d" % (self.q - 1))
        return a

    def add(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int16) + b) % self.p
        return self._add_table[a, b]

    def neg(self, a):
        if self.e == 1:
            return (-np.asarray(a, dtype=np.int16)) % self.p
        return self._neg_table[a]

    def sub(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int16) - b) % self.p
        return self._add_table[a, self._neg_table[b]]

    def mul(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64) % self.p).astype(np.int16)
        return self._mul_table[a, b]

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverting zero in %r" % self)
        return self._inv_table[a]

    def tables(self):
        """(add, mul, neg, inv) for scalar loops such as polys, built on
        first use: one byte per code (q <= 256), add and mul as lists of
        rows, so add[a][b] and neg[a] are ints."""
        if self._scalar_tables is None:
            c = np.arange(self.q)
            self._scalar_tables = tuple(
                [r.tobytes() for r in t.astype(np.uint8)] if t.ndim == 2
                else t.astype(np.uint8).tobytes()
                for t in (self.add(c[:, None], c), self.mul(c[:, None], c),
                          self.neg(c), self._inv_table))
        return self._scalar_tables

    def sum(self, a, axis=None):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64).sum(axis=axis) % self.p).astype(np.int16)
        # sum coefficient planes
        arr = np.asarray(a, dtype=np.int64)
        enc = 0
        for d in range(self.e):
            plane = (arr // self.p ** d) % self.p
            enc = enc + (plane.sum(axis=axis) % self.p) * self.p ** d
        return np.asarray(enc, dtype=np.int16)

    def matmul(self, A, B):
        """A @ B for a matrix A and a matrix or a stack of matrices B.

        Over GF(2^e) a product whose gather temporary (m*k*n entries, times
        the stack depth) is at most 1024 e^2 is one gather from the
        multiplication table and an XOR reduce over k.  The plane kernel
        makes e^2 BLAS products, so the crossover grows with e: measured
        near 4096 entries for e = 2 and past 2^18 for e = 8 (CHANGES.md).
        Odd characteristic extension fields always take the plane kernel."""
        A = np.asarray(A)
        B = np.asarray(B)
        if self.e == 1:
            return _matmul_prime(self.p, A, B)
        p, e = self.p, self.e
        if p == 2 and A.shape[0] * B.size <= 1024 * e * e:
            return np.bitwise_xor.reduce(
                self._mul_table[A[:, :, None], B[..., None, :, :]], axis=-2)
        PA = np.take(self._planes.T, A, axis=1)  # PA[d]: plane d of A
        PB = self._planes[B]                     # planes of B on a last axis
        n = B.shape[-1]
        cols = PB.shape[:-2] + (n * e,)
        # plane j of the product sums weights[d1, d2, j] A_d1 B_d2 over the
        # e^2 pairs (d1, d2): entries <= k (p-1)^2, weights <= p-1.  Column
        # (n, j) of (PB @ weights[d1]) holds sum_d2 weights[d1, d2, j] B_d2.
        bound = e * e * A.shape[-1] * (p - 1) ** 3
        acc = sum(PA[d] @ (PB @ self._weights[d]).reshape(cols)
                  for d in range(e))
        acc = _reduce(acc, p, bound)
        return (acc.reshape(acc.shape[:-1] + (n, e)) @
                self._powers).astype(np.int16)

    def elements(self):
        return list(range(self.q))

    def to_json(self):
        return self.name


def _matmul_prime(p, A, B):
    """Exact mod-p product of reduced codes via float64 BLAS."""
    C = A.astype(np.float64) @ B.astype(np.float64)
    return _reduce(C, p, A.shape[-1] * (p - 1) ** 2).astype(np.int16)


# ---------------------------------------------------------------------------
# row reduction


def echelon(field, A, transform=False):
    """Reduced row echelon form of A over field.

    Returns (R, pivots) where R has one row per pivot, pivot columns carry an
    identity pattern, and pivots is the sorted list of pivot column indices.
    With transform=True also returns T with T @ A == R (rows of R as explicit
    combinations of rows of A).
    """
    A = np.asarray(A, dtype=np.int16)
    if A.ndim != 2:
        raise ValueError("need a 2d array")
    nr, nc = A.shape
    if transform:
        aug = np.zeros((nr, nc + nr), dtype=np.int16)
        aug[:, :nc] = A
        aug[np.arange(nr), nc + np.arange(nr)] = 1
        R, piv = _echelon_core(field, aug, limit=nc)
        return R[:, :nc], piv, R[:, nc:]
    R, piv = _echelon_core(field, A, limit=nc)
    return R, piv


def _echelon_core(field, A, limit):
    if field.e == 1 and A.shape[0] * A.shape[1] > 4096:
        return _echelon_prime_blocked(field.p, A, limit)
    return _echelon_generic(field, A, limit)


def _echelon_generic(field, A, limit):
    """RREF by a few whole-array row operations per pivot: on int64 mod p
    over prime fields, on the arithmetic tables over extension fields."""
    inv = field._inv_table
    if field.e == 1:
        p = field.p
        A = A.astype(np.int64)

        def scale(row, c):
            return row * c % p

        def eliminate(A, f, row):
            return (A - f[:, None] * row) % p
    else:
        add, mul, neg = field._add_table, field._mul_table, field._neg_table
        A = A.copy()

        def scale(row, c):
            return mul[row, c]

        def eliminate(A, f, row):
            return add[A, mul[neg[f][:, None], row]]
    pivots = []
    for c in range(limit):
        prow = len(pivots)
        if prow == A.shape[0]:
            break
        nz = A[prow:, c].nonzero()[0]
        if not len(nz):
            continue
        r = prow + int(nz[0])
        if r != prow:
            A[[prow, r]] = A[[r, prow]]
        A[prow] = scale(A[prow], inv[A[prow, c]])
        f = A[:, c].copy()
        f[prow] = 0
        A = eliminate(A, f, A[prow])
        pivots.append(c)
    return A[:len(pivots)].astype(np.int16), pivots


def _echelon_prime_blocked(p, A, limit):
    """RREF mod prime p with BLAS bulk reduction against accumulated pivots."""
    nr, nc = A.shape
    Rf = np.zeros((0, nc), dtype=np.float64)
    pivots = []
    chunk = 64
    pp = (p - 1) ** 2
    for i0 in range(0, nr, chunk):
        C = A[i0:i0 + chunk].astype(np.float64)
        if pivots:
            C = _reduce(C - C[:, pivots] @ Rf, p, (len(pivots) + 1) * pp)
        newidx = []
        newpivs = []
        taken = np.zeros(C.shape[0], dtype=bool)
        # a zero row never takes a pivot, so stop scanning columns once
        # every nonzero row has one; rows the elimination zeroes drop out
        nlive = int(C[:, :limit].any(axis=1).sum())
        for c in range(limit):
            if len(newidx) == nlive:
                break
            col = C[:, c]
            nz = np.nonzero((col != 0) & ~taken)[0]
            if len(nz) == 0:
                continue
            r = int(nz[0])
            taken[r] = True
            inv = pow(int(col[r]), p - 2, p)
            C[r] = _reduce(C[r] * inv, p, pp)
            f = C[:, c].copy()
            f[r] = 0
            live = f != 0
            if live.any():
                upd = _reduce(C[live] - np.outer(f[live], C[r]), p, pp + p)
                C[live] = upd
                nlive -= int((~upd[:, :limit].any(axis=1)).sum())
            newidx.append(r)
            newpivs.append(c)
        if newidx:
            N = C[newidx]
            if pivots:
                f = Rf[:, newpivs]
                if np.any(f):
                    Rf -= f @ N
                    _reduce(Rf, p, (len(newpivs) + 1) * pp)
            Rf = np.vstack([Rf, N])
            pivots.extend(newpivs)
    order = np.argsort(pivots, kind="stable")
    pivots = [pivots[i] for i in order]
    Rf = Rf[order]
    return Rf.astype(np.int16), pivots


def rank(field, A):
    A = np.asarray(A, dtype=np.int16)
    if A.size == 0:
        return 0
    _, piv = echelon(field, A)
    return len(piv)


def nullspace(field, A):
    """Rows form a basis of {x : A @ x == 0}."""
    A = np.asarray(A, dtype=np.int16)
    nr, nc = A.shape
    R, piv = echelon(field, A)
    pivset = set(piv)
    free = [c for c in range(nc) if c not in pivset]
    out = np.zeros((len(free), nc), dtype=np.int16)
    for i, c in enumerate(free):
        out[i, c] = 1
        if piv:
            out[i, piv] = field.neg(R[:, c])
    return out


def solve(field, A, B):
    """Solve A @ X = B; returns X or None if inconsistent.

    Picks the solution with free variables zero.  B may be 1d or 2d.
    """
    A = np.asarray(A, dtype=np.int16)
    B = np.asarray(B, dtype=np.int16)
    vec = B.ndim == 1
    if vec:
        B = B[:, None]
    nr, nc = A.shape
    aug = np.concatenate([A, B], axis=1)
    R, piv = _echelon_core(field, aug, limit=nc)
    X = np.zeros((nc, B.shape[1]), dtype=np.int16)
    for i, c in enumerate(piv):
        X[c] = R[i, nc:]
    # consistency: rows of R with pivot beyond nc would witness 0 = nonzero,
    # but _echelon_core(limit=nc) drops them, so verify directly
    if not np.array_equal(field.matmul(A, X), B % field.p if field.e == 1 else B):
        return None
    return X[:, 0] if vec else X


def inverse(field, A):
    A = np.asarray(A, dtype=np.int16)
    n = A.shape[0]
    if A.shape != (n, n):
        raise CertificateError("inverse of a non-square %r matrix" % (A.shape,))
    X = solve(field, A, np.eye(n, dtype=np.int16))
    if X is None:
        raise ValueError("matrix is singular")
    return X


class Echelon:
    """Semi-echelon rows grown one vector at a time.

    add(v) keeps the residual of v, scaled to a leading 1, if it is
    nonzero: the vector of v + span(rows) that vanishes at every pivot held
    so far.  On the pivot columns the rows are triangular with a unit
    diagonal, so it is unique: what reducing v by the rows one at a time
    leaves.  The engine finds it with one product, v - v[pivots] @ copy,
    where the reduced copy of the rows is 1 at its own pivot and 0 at the
    others; a new row is one rank-1 update of the copy rows that are
    nonzero at its pivot.  No GF method runs per vector: the arithmetic is
    int64 mod p, or the tables of an extension field.

    With track=n each row also carries its coefficients in the (at most n)
    vectors offered so far, as further columns of the copy, and after a
    rejected vector, relation holds coefficients c with
    sum_i c[i] * v_i == 0 and c == 1 at the rejected vector.  They involve
    only accepted vectors, which are independent, so they are unique too.
    """

    def __init__(self, field, track=0):
        self.field = field
        self.rows = []
        self.pivots = []
        self.track = track
        self.coeffs = []
        self.offered = 0
        self.relation = None
        # (n, n + track) at the first add of an n-vector; row i for pivot i
        self._copy = None
        self._piv = None

    def add(self, v):
        """Whether v was outside the span; if so, it is added."""
        F = self.field
        v = np.asarray(v, dtype=np.int16)
        n, k = v.shape[0], len(self.pivots)
        dtype = np.int64 if F.e == 1 else np.int16
        if self._copy is None:
            self._copy = np.zeros((n, n + self.track), dtype=dtype)
            self._piv = np.zeros(n, dtype=np.intp)
        if self.track:
            x = np.zeros(n + self.track, dtype=dtype)
            x[:n] = v
            x[n + self.offered] = 1
        else:
            x = v.astype(dtype)
        self.offered += 1
        if k:
            x = self._minus_combination(x, self._copy[:k])
        nz = np.flatnonzero(x[:n])
        if not len(nz):
            self.relation = x[n:].astype(np.int16) if self.track else None
            return False
        piv = int(nz[0])
        inv = F._inv_table[x[piv]]
        x = x * int(inv) % F.p if F.e == 1 else F._mul_table[inv, x]
        col = self._copy[:k, piv]
        live = np.flatnonzero(col)
        if len(live):
            self._copy[live] = self._minus_outer(self._copy[live], col[live],
                                                 x)
        self._copy[k] = x
        self._piv[k] = piv
        self.pivots.append(piv)
        self.rows.append(x[:n].astype(np.int16))
        if self.track:
            self.coeffs.append(x[n:].astype(np.int16))
        return True

    def _minus_combination(self, x, C):
        """x - x[pivots] @ C for the first rows C of the copy."""
        F = self.field
        c = x[self._piv[:C.shape[0]]]
        if F.e == 1:
            return (x - c @ C) % F.p
        if F.p == 2:
            return x ^ np.bitwise_xor.reduce(F._mul_table[c[:, None], C])
        P = F._planes
        acc = P[x] - P[F._mul_table[c[:, None], C]].sum(axis=0)
        return (acc % F.p @ F._powers).astype(np.int16)

    def _minus_outer(self, A, c, x):
        """A - c[:, None] * x."""
        F = self.field
        if F.e == 1:
            return (A - c[:, None] * x) % F.p
        if F.p == 2:
            return A ^ F._mul_table[c[:, None], x]
        return F._add_table[A, F._neg_table[F._mul_table[c[:, None], x]]]

    def rref(self):
        """The reduced echelon form of the span, (R, pivots) as echelon
        returns it: the copy sorted by pivot.  The rows sorted by pivot are
        in echelon form, so their pivots are those of the span, and the
        basis of the span that is the identity on them is unique."""
        order = np.argsort(self.pivots, kind="stable")
        n = self._copy.shape[0]
        return (self._copy[order, :n].astype(np.int16),
                [self.pivots[i] for i in order])


class Spin:
    """Closure of a row span under left action by mats, grown seed by seed.

    raws[i] is the unreduced vector behind basis row i and tree[i] says how
    it arose: ('seed', s) for the s-th accepted seed, or ('mul', g, j) for
    mats[g] applied to raws[j].  Each accepted seed is closed breadth first
    before the next one is offered.  A frontier raws[i:j] of the closure
    is moved by all of mats in one product, and the images are offered by
    parent, then generator, the order of a queue that moves one vector at a
    time.
    """

    def __init__(self, field, mats):
        self.field = field
        self.mats = mats
        self.basis = Echelon(field)
        self.raws = []
        self.tree = []
        self.nseeds = 0
        # row r of raws @ gens is (M_0 r, M_1 r, ...) side by side
        self._gens = np.hstack([M.T for M in mats]) if len(mats) else None

    def _take(self, v, tag):
        if not self.basis.add(v):
            return False
        self.raws.append(v)
        self.tree.append(tag)
        return True

    def seed(self, v):
        """Add v, unless it is in the span already, and close under mats."""
        if not self._take(np.asarray(v, dtype=np.int16),
                          ("seed", self.nseeds)):
            return
        self.nseeds += 1
        i = len(self.raws) - 1
        while self._gens is not None and i < len(self.raws):
            j = len(self.raws)
            images = self.field.matmul(np.array(self.raws[i:j]), self._gens)
            for parent, row in enumerate(images, i):
                for g, w in enumerate(row.reshape(len(self.mats), -1)):
                    self._take(w, ("mul", g, parent))
            i = j


def spin_basis(field, mats, seeds):
    """Closure of the row span of seeds under left action by mats.

    seeds: (k, n) array of row vectors.  Returns (basis, pivots, tree) where
    basis rows are in semi-echelon form as produced incrementally, pivots are
    their leading columns, and tree[i] describes how row i arose: ('seed', s)
    for the s-th seed that was not already in the span, or
    ('mul', g, parent_row_index).  Seeds are closed one at a time, so the
    rows depend on the seed order but their span does not.  The spanned
    subspace is mats-invariant.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.int16))
    spin = Spin(field, mats)
    for v in seeds:
        spin.seed(v)
    if spin.raws:
        B = np.array(spin.basis.rows, dtype=np.int16)
    else:
        B = np.zeros((0, seeds.shape[1]), dtype=np.int16)
    return B, spin.basis.pivots, spin.tree
