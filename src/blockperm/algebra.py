"""Finite dimensional associative algebras by structure constants.

An algebra is a basis b_0..b_{d-1} with products b_i b_j = sum_k c[i,j,k] b_k
over GF(p^e), plus the coordinates of the identity.  Everything downstream
(radical, primitive and central idempotents, Cartan data, self-injectivity,
symmetry) is exact linear algebra.

The radical J comes from the structure constants alone, with no random
choices: over GF(p) it is the last of the iterated kernels of the trace
functionals g_i(a) = (Tr(L^(p^i)) mod p^(i+1)) / p^i, p^i <= dim A, with L
the integer lift of a's left multiplication (Ronyai 1990; Cohen, Ivanyos,
Wales 1997).  Over GF(p^e) it is the radical of A over GF(p), the same
subspace.  Certificates check that J is a nilpotent two-sided ideal.

Idempotents are found semisimply first and then lifted: in a semisimple
corner C of dimension d a nonzero singular element z spans a proper left
ideal Cz, which contains a right identity g solving a linear system; g is a
nontrivial idempotent and splits the corner.  The candidates are the basis
elements.  For an invertible z with minimal polynomial m, an irreducible m
of degree d certifies that C = k[z] is a field.  A reducible m has a first
irreducible factor f, and f(z) is singular (Eberly, Giesbrecht 2000):
f(z) != 0 by the minimality of m, and f(z) (m/f)(z) = m(z) = 0 with
(m/f)(z) != 0, so 0 < rank L_f(z) < d.  Only a candidate whose m is
irreducible of degree < d gives nothing; when all do, random elements
follow (our corners are commutative over their centers by then, so the
search ends for every algebra that actually arises here).  Lifting
through the radical iterates x <- 3x^2 - 2x^3, which squares the
radical-order of the error x^2 - x in every characteristic.
"""

import json
import numpy as np

from . import gfq
from . import meataxe
from . import polys


class FinDimAlgebra:
    def __init__(self, field, mult, one, labels=None):
        self.field = field
        # the gfq kernels take reduced codes; this is where they enter
        self.mult = field.array(mult)
        d = self.mult.shape[0]
        if self.mult.shape != (d, d, d):
            raise ValueError("structure constants of shape %r are not d x d x d"
                             % (self.mult.shape,))
        self.dim = d
        self.one = field.array(one)
        if self.one.shape != (d,):
            raise ValueError("identity of shape %r in a %d-dim algebra"
                             % (self.one.shape, d))
        self.labels = labels
        self._lmats = None
        self._rmats = None
        self._radical = None
        self._radical_chain = None

    # -- element arithmetic --

    def left_mats(self):
        if self._lmats is None:
            self._lmats = [self.mult[i].T.copy() for i in range(self.dim)]
        return self._lmats

    def right_mats(self):
        if self._rmats is None:
            self._rmats = [self.mult[:, i, :].T.copy()
                           for i in range(self.dim)]
        return self._rmats

    def lmul_of(self, x):
        """Matrix of y -> x y: entry (k, j) is sum_i x_i c[i, j, k]."""
        d = self.dim
        x = np.asarray(x, dtype=np.int16)
        return self.field.matmul(x[None, :], self.mult.reshape(d, d * d)) \
            .reshape(d, d).T

    def rmul_of(self, x):
        """Matrix of y -> y x: entry (k, j) is sum_i c[j, i, k] x_i, one
        row vector times each matrix c[j] of the stack."""
        x = np.asarray(x, dtype=np.int16)
        return self.field.matmul(x[None, :], self.mult) \
            .reshape(self.dim, self.dim).T

    def multiply(self, x, y):
        return self.field.matmul(self.lmul_of(x),
                                 np.asarray(y, dtype=np.int16)[:, None])[:, 0]

    def is_idempotent(self, x):
        return np.array_equal(self.multiply(x, x), self.field.array(x))

    def minpoly_of(self, x):
        return meataxe.vector_annihilator(self.field, self.lmul_of(x),
                                          self.one)

    # -- radical --

    def radical_basis(self):
        """RREF row basis of the Jacobson radical, from the trace
        functionals of the structure constants (module docstring)."""
        if self._radical is None:
            F, d = self.field, self.dim
            # the GF(p)-coordinates of a code are its coefficient planes
            rows = _trace_radical(F.p, _restrict_scalars(F, self.mult))
            rows = rows.reshape(len(rows), d, F.e) @ F.p ** np.arange(F.e)
            R, piv = gfq.echelon(F, rows.astype(np.int16))
            self._radical_chain = _certify_radical(F, self.mult, R, piv)
            self._radical = (R, piv)
        return self._radical

    def semisimple_quotient(self):
        """(Abar, proj, lift): proj maps coordinates onto A/J, lift embeds
        the complement back (proj @ lift.T-style section)."""
        J, piv = self.radical_basis()
        return self.quotient_by_ideal(J, piv)

    def quotient_by_ideal(self, rows, piv=None):
        F = self.field
        if piv is None:
            rows, piv = gfq.echelon(F, rows)
        d = self.dim
        pivset = set(piv)
        free = [c for c in range(d) if c not in pivset]
        lift = np.eye(d, dtype=np.int16)[free]
        P = lift.copy()
        if piv:
            P[:, piv] = F.neg(rows[:, free].T)
        db = len(free)
        # the product of lifted basis elements b_f b_g is mult[f, g]
        mult = F.matmul(self.mult[np.ix_(free, free)].reshape(db * db, d),
                        P.T).reshape(db, db, db)
        one = F.matmul(P, self.one[:, None])[:, 0]
        return FinDimAlgebra(F, mult, one), P, lift

    # -- subalgebras spanned by closed row bases --

    def subalgebra_on_rows(self, rows, one_coords=None):
        """Algebra structure on a multiplicatively closed subspace.

        rows: RREF basis rows in self's coordinates.  one_coords: identity of
        the subalgebra in self's coordinates (defaults to self.one, which
        must then lie in the span).  Returns (sub, rows) where coordinates on
        sub are read off the pivot columns of rows.
        """
        F = self.field
        R, piv = gfq.echelon(F, rows)
        db = R.shape[0]
        prods = _products(F, self.mult, R, R).reshape(db * db, self.dim)
        coords = prods[:, piv]
        if not np.array_equal(F.matmul(coords, R), prods):
            raise gfq.CertificateError("subspace not closed")
        mult = coords.reshape(db, db, db)
        one = self.one if one_coords is None else np.asarray(one_coords,
                                                             dtype=np.int16)
        oc = one[piv]
        if not np.array_equal(F.matmul(R.T, oc[:, None])[:, 0], one):
            raise gfq.CertificateError("identity not in subalgebra")
        return FinDimAlgebra(F, mult, oc), R, piv

    def corner(self, e):
        """The algebra e A e with identity e.  Returns (C, rows, piv)."""
        F = self.field
        le = self.lmul_of(e)
        re = self.rmul_of(e)
        eae = F.matmul(re, F.matmul(le, np.eye(self.dim, dtype=np.int16))).T
        return self.subalgebra_on_rows(eae, one_coords=np.asarray(e, np.int16))

    def center(self):
        F = self.field
        stacks = [F.sub(self.left_mats()[i], self.right_mats()[i])
                  for i in range(self.dim)]
        Z = gfq.nullspace(F, np.vstack(stacks)) if stacks else \
            np.eye(self.dim, dtype=np.int16)
        return self.subalgebra_on_rows(Z)

    # -- idempotents --

    def primitive_idempotents(self, e=None, seed=0):
        """Pairwise orthogonal primitive idempotents summing to e (default:
        the identity).  Deterministic for a fixed seed."""
        F = self.field
        if e is None:
            e = self.one
        e = np.asarray(e, dtype=np.int16)
        if not self.is_idempotent(e):
            raise ValueError("e is not an idempotent")
        if not e.any():
            return []
        C, rows, piv = self.corner(e)
        Jrows, Jpiv = C.radical_basis()
        Cbar, proj, lift = C.quotient_by_ideal(Jrows, Jpiv)
        bar_prims = _semisimple_primitives(Cbar, seed)
        # lift sequentially through the radical, each inside the corner
        # cut out by the previously lifted ones
        lifted = []
        ssum = np.zeros(C.dim, dtype=np.int16)
        for t, eb in enumerate(bar_prims):
            if t == len(bar_prims) - 1:
                f = C.field.sub(C.one, ssum)
                if not C.is_idempotent(f):
                    raise gfq.CertificateError("complement of the lifted "
                                               "idempotents is not one")
            else:
                x = C.field.matmul(lift.T, eb[:, None])[:, 0]
                comp = C.field.sub(C.one, ssum)
                x = C.multiply(C.multiply(comp, x), comp)
                f = _lift_idempotent(C, x)
            lifted.append(f)
            ssum = C.field.add(ssum, f)
        # map back into self's coordinates
        out = []
        for f in lifted:
            out.append(F.matmul(rows.T, f[:, None])[:, 0])
        # sanity: orthogonal decomposition of e
        tot = np.zeros(self.dim, dtype=np.int16)
        for f in out:
            if not self.is_idempotent(f):
                raise gfq.CertificateError("primitive idempotent is not one")
            tot = F.add(tot, f)
        if not np.array_equal(tot, F.array(e)):
            raise gfq.CertificateError("primitive idempotents do not sum to e")
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if self.multiply(out[i], out[j]).any() or \
                        self.multiply(out[j], out[i]).any():
                    raise gfq.CertificateError("primitive idempotents %d and "
                                               "%d are not orthogonal" % (i, j))
        return out

    def equivalent_idempotents(self, e, f):
        """For primitive idempotents e, f: whether eA and fA are isomorphic,
        i.e. whether e lies in the span of the products (eAf)(fAe).

        An isomorphism fA -> eA is left multiplication by some a in eAf
        with inverse b in fAe, so ab = e.  Conversely the span is an ideal
        of the local ring eAe; holding e, it is not inside rad(eAe), so
        some ab is a unit u of eAe.  Then a (b u^-1) = e, and (b u^-1) a
        is a nonzero idempotent of the local ring fAf, so it is f."""
        F = self.field
        e = np.asarray(e, dtype=np.int16)

        def corner(x, y):
            # a row basis of xAy, from the x b_k y over the basis b_k
            return gfq.echelon(F, F.matmul(self.rmul_of(y),
                                           self.lmul_of(x)).T)[0]

        eaf, fae = corner(e, f), corner(f, e)
        if not len(eaf) or not len(fae):
            return False
        prods = _products(F, self.mult, eaf, fae).reshape(-1, self.dim)
        return gfq.rank(F, np.vstack([prods, e[None, :]])) == \
            gfq.rank(F, prods)

    def central_primitive_idempotents(self, seed=0):
        Z, rows, piv = self.center()
        prims = Z.primitive_idempotents(seed=seed)
        F = self.field
        return [F.matmul(rows.T, f[:, None])[:, 0] for f in prims]

    def block_factors(self, seed=0):
        """Corner algebras at the central primitive idempotents, i.e. the
        indecomposable two-sided factors."""
        out = []
        for z in self.central_primitive_idempotents(seed):
            C, rows, piv = self.corner(z)
            out.append((C, z))
        return out

    # -- structural predicates --

    def injective_modules(self, prims, seed=0):
        """For each primitive e_t the dual of e_t A, as left-module action
        matrices of the basis elements: the transposed right action of
        each b_i on e_t A."""
        F = self.field
        out = []
        for e in prims:
            le = self.lmul_of(e)
            basis, piv = gfq.echelon(F, le.T)  # rows span e A
            rmats = [meataxe.restrict_to_submodule(
                F, [self.right_mats()[i]], basis, piv)[0]
                for i in range(self.dim)]
            mats = [M.T.copy() for M in rmats]
            out.append((mats, basis))
        return out

    def self_injective_witness(self, seed=0):
        """(verdict, witness) for self-injectivity.

        On success the witness is the list of (injective index, projective
        index) pairs realizing the matching; on failure it is the index of
        the first indecomposable injective with no projective partner.
        """
        F = self.field
        prims = self.primitive_idempotents(seed=seed)
        injs = self.injective_modules(prims, seed)
        full = self.left_mats()
        projs_full = []
        for e in prims:
            re = self.rmul_of(e)
            basis, piv = gfq.echelon(F, re.T)
            mats = [meataxe.restrict_to_submodule(F, [M], basis, piv)[0]
                    for M in full]
            projs_full.append(mats)
        matched = [False] * len(prims)
        pairs = []
        for s, (imats, _) in enumerate(injs):
            hit = None
            for t, pmats in enumerate(projs_full):
                if matched[t]:
                    continue
                if meataxe.iso_of_indecomposables(F, imats, pmats) is not None:
                    hit = t
                    break
            if hit is None:
                return False, s
            matched[hit] = True
            pairs.append((s, hit))
        return all(matched), pairs

    def is_self_injective(self, seed=0):
        """Whether the regular module is injective, i.e. the multiset of
        indecomposable injectives matches the projectives."""
        return self.self_injective_witness(seed)[0]

    def radical_powers(self):
        """Row bases of A > J > J^2 > ... > 0 (last entry has zero rows),
        the chain that certified J nilpotent."""
        self.radical_basis()
        return [np.eye(self.dim, dtype=np.int16)] + self._radical_chain

    def central_forms(self):
        """Row basis of linear forms vanishing on all commutators."""
        F = self.field
        rows = []
        for i in range(self.dim):
            diff = F.sub(self.mult[i], self.mult[:, i, :])
            rows.append(diff.reshape(self.dim, self.dim))
        stacked = np.vstack(rows)
        return gfq.nullspace(F, stacked)

    def gram_of_form(self, lam):
        """Gram matrix of (x, y) -> lam(x y): entry (i, j) is
        sum_k c[i, j, k] lam_k."""
        d = self.dim
        lam = np.asarray(lam, dtype=np.int16)
        return self.field.matmul(self.mult.reshape(d * d, d),
                                 lam[:, None]).reshape(d, d)

    def is_symmetric(self, seed=0, exhaustive_limit=65536):
        """(flag, witnesses): search for a nondegenerate central form.

        Witnesses include every standard-basis functional that happens to be
        central and nondegenerate (for a group-element basis this finds the
        coefficient-of-identity form), then combinations of the central form
        basis: exhaustively when the search space is small, else randomized
        with a block-by-block bimodule self-duality fallback.
        """
        F = self.field
        lams = self.central_forms()
        t = lams.shape[0]
        if t == 0:
            return False, []
        witnesses = []
        Rl, pivl = gfq.echelon(F, lams)

        def central(v):
            # v in row space of lams
            co = v[pivl]
            return np.array_equal(F.matmul(Rl.T, co[:, None])[:, 0], v)

        def nondeg(v):
            return gfq.rank(F, self.gram_of_form(v)) == self.dim

        for k in range(self.dim):
            v = np.zeros(self.dim, dtype=np.int16)
            v[k] = 1
            if central(v) and nondeg(v):
                witnesses.append(v)
        for row in lams:
            if nondeg(row):
                witnesses.append(row.copy())
        if witnesses:
            return True, witnesses
        if F.q ** t <= exhaustive_limit:
            combo = np.zeros(t, dtype=np.int16)
            for code in range(1, F.q ** t):
                c = code
                for i in range(t):
                    combo[i] = c % F.q
                    c //= F.q
                v = _combine_rows(F, combo, lams)
                if nondeg(v):
                    return True, [v]
            return False, []
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            combo = rng.integers(0, F.q, t).astype(np.int16)
            v = _combine_rows(F, combo, lams)
            if v.any() and nondeg(v):
                return True, [v]
        return self._symmetric_by_bimodule(seed), []

    def _symmetric_by_bimodule(self, seed=0):
        """A is symmetric iff A and its dual agree as bimodules; blocks are
        indecomposable bimodules with local endomorphism rings, so the
        pairwise test is exact."""
        F = self.field
        L = self.left_mats()
        R = self.right_mats()
        bigens_a = L + R
        bigens_d = [M.T.copy() for M in R] + [M.T.copy() for M in L]
        for z in self.central_primitive_idempotents(seed):
            rz = self.rmul_of(z)
            basis, piv = gfq.echelon(F, rz.T)
            mats_a = [meataxe.restrict_to_submodule(F, [M], basis, piv)[0]
                      for M in bigens_a]
            lzT = self.lmul_of(z).T
            basis_d, piv_d = gfq.echelon(F, lzT.T)
            mats_d = [meataxe.restrict_to_submodule(F, [M], basis_d, piv_d)[0]
                      for M in bigens_d]
            if meataxe.iso_of_indecomposables(F, mats_a, mats_d) is None:
                return False
        return True

    def is_local(self, seed=0):
        return len(self.primitive_idempotents(seed=seed)) == 1

    def is_split_local(self, seed=0):
        """Local with one-dimensional semisimple quotient."""
        if not self.is_local(seed):
            return False
        Abar, _, _ = self.semisimple_quotient()
        return Abar.dim == 1

    # -- serialization --

    def to_json(self):
        trips = []
        idx = np.nonzero(self.mult)
        for i, j, k in zip(*idx):
            trips.append([int(i), int(j), int(k), int(self.mult[i, j, k])])
        data = {"dim": self.dim,
                "field": self.field.name,
                "one": [int(c) for c in self.one],
                "products": trips}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @staticmethod
    def from_json(data):
        field = gfq.GF.parse(data["field"])
        d = data["dim"]
        mult = np.zeros((d, d, d), dtype=np.int16)
        for i, j, k, c in data["products"]:
            mult[i, j, k] = c
        return FinDimAlgebra(field, mult, np.array(data["one"], np.int16),
                             labels=data.get("labels"))

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self):
        return "FinDimAlgebra(dim=%d over %r)" % (self.dim, self.field)


def _combine_rows(F, combo, rows):
    return F.matmul(combo[None, :], rows)[0]


def _trace_radical(p, mult):
    """RREF row basis of the radical of the GF(p)-algebra with structure
    constants mult (codes 0..p-1 of any integer dtype): the last ideal
    I_i = {a in I_(i-1) : g_i(ab) = 0 for all b}, I_-1 = A.  g_i is linear
    on I_(i-1): with g_k = g_i(y_k) on its RREF rows y_k, g_i(y_m b) =
    sum_k (y_m b)[piv_k] g_k, so I_i is the left kernel of Y W, W[j, b] =
    sum_k c[j, b, piv_k] g_k.  Level 0: Y = 1, g_k = sum_j c[k, j, j]."""
    F = gfq.GF.get(p)
    d = mult.shape[0]
    Y, piv = np.eye(d, dtype=np.int16), list(range(d))
    g = np.einsum("kjj->k", mult, dtype=np.int64)
    pi = 1
    while piv and pi <= d:
        if pi > 1:
            g = _trace_power_functional(p, pi, mult, Y)
        h = np.zeros(d, dtype=np.int64)
        h[piv] = g
        W = np.einsum("jbn,n->jb", mult, h) % p
        G = F.matmul(Y, W)
        Y, piv = gfq.echelon(F, F.matmul(gfq.nullspace(F, G.T), Y))
        pi *= p
    return Y


def _trace_power_functional(p, pi, mult, Y):
    """(Tr(L^pi) mod p pi) / pi for the integer lift L of the left
    multiplication of each row of Y, pi = p^i <= d, by float64 products
    reduced mod p pi (gfq._reduce holds for any modulus): entries stay below
    d (p pi)^2 <= p^2 d^3.  pi must divide every trace on I_(i-1)."""
    d = mult.shape[0]
    mod = p * pi
    bound = d * (mod - 1) ** 2
    # stacks of about 2^14 float64 entries; mult is cast in <= 8 pieces
    step = max(1, (1 << 14) // (d * d))
    piece = max(step, -(-d // 8))
    flat = mult.reshape(d, d * d)
    traces = []
    for r0 in range(0, len(Y), step):
        # the transposed left multiplications: [r, j, k] = sum_i y_i c[i, j, k]
        Yc = Y[r0:r0 + step].astype(np.float64)
        M = sum(Yc[:, i:i + piece] @ flat[i:i + piece].astype(np.float64)
                for i in range(0, d, piece))
        M = gfq._reduce(M, p, d * (p - 1) ** 2).reshape(-1, d, d)
        P = M
        for bit in bin(pi)[3:]:  # M^pi by left-to-right binary powering
            P = gfq._reduce(P @ P, mod, bound)
            if bit == "1":
                P = gfq._reduce(P @ M, mod, bound)
        traces.append(np.trace(P, axis1=1, axis2=2).astype(np.int64))
    tr = np.concatenate(traces)
    if (tr % pi).any():
        raise gfq.CertificateError("Tr(L^%d) of an element of the ideal is "
                                   "not divisible by %d" % (pi, pi))
    return tr // pi % p


def _restrict_scalars(F, mult):
    """Structure constants over GF(p) of an algebra over GF(p^e), on the
    basis x^s b_j (index j e + s), as uint8: (x^s b_i)(x^t b_j) =
    sum_k x^(s+t) c[i, j, k] b_k, and the coefficient of x^u b_k is plane
    u of the code of x^(s+t) c[i, j, k].  Over GF(p), mult itself."""
    e, d = F.e, mult.shape[0]
    if e == 1:
        return mult
    x = (F.p ** np.arange(e))[:, None, None, None]  # x^s has code p^s
    prods = F.mul(x[:, None], F.mul(x, mult)[None])  # [s, t, i, j, k]
    planes = F._planes.astype(np.uint8)[prods]  # [s, t, i, j, k, u]
    return planes.transpose(2, 0, 3, 1, 4, 5).reshape(d * e, d * e, d * e)


def _certify_radical(F, mult, R, piv):
    """Check that the rows of R (RREF, pivots piv) span a nilpotent
    two-sided ideal; returns the RREF bases [J, J^2, ..., 0] of its
    powers."""
    d = mult.shape[0]
    # the products y_a b_j and b_j y_a
    V = np.vstack([F.matmul(R, m.reshape(d, d * d)).reshape(len(R) * d, d)
                   for m in (mult, mult.swapaxes(0, 1))])
    if F.sub(V, F.matmul(V[:, piv], R)).any():
        raise gfq.CertificateError("the radical is not a two-sided ideal")
    chain = [R]
    while chain[-1].shape[0]:
        nxt, _ = gfq.echelon(F, _products(F, mult, chain[-1], R)
                             .reshape(-1, d))
        if nxt.shape[0] == chain[-1].shape[0]:
            raise gfq.CertificateError("the radical is not nilpotent")
        chain.append(nxt)
    return chain


def _products(F, mult, X, Y):
    """[a, b]: the product x_a y_b of row a of X and row b of Y."""
    d = mult.shape[0]
    return F.matmul(Y, F.matmul(X, mult.reshape(d, d * d)).reshape(-1, d, d))


def _semisimple_primitives(S, seed):
    """Primitive orthogonal idempotents summing to 1 in a semisimple
    algebra, by repeated splitting along singular elements."""
    rng = np.random.default_rng(seed)
    out = []

    def split(alg, e_outer, embed):
        # embed: rows mapping alg coordinates into the root algebra S
        d = alg.dim
        if d == 1:
            out.append(e_outer)
            return
        F = alg.field
        tries = 0
        cand_idx = 0
        while tries < 4000:
            tries += 1
            if cand_idx < d:
                z = np.zeros(d, dtype=np.int16)
                z[cand_idx] = 1
                cand_idx += 1
            else:
                z = rng.integers(0, F.q, d).astype(np.int16)
            if not z.any():
                continue
            lz = alg.lmul_of(z)
            rk = gfq.rank(F, lz)
            if rk == 0:
                continue
            if rk == d:
                # invertible: an irreducible minimal polynomial of degree d
                # certifies a field, and a proper factor f gives the zero
                # divisor f(z) = f(L_z) one (module docstring)
                facs = polys.factor(F, alg.minpoly_of(z))
                f = facs[0][0]
                if len(facs) == 1 and facs[0][1] == 1:
                    if polys.degree(f) == d:
                        out.append(e_outer)
                        return
                    continue
                z = np.zeros(d, dtype=np.int16)
                for c in f[::-1]:
                    z = F.add(F.matmul(lz, z[:, None])[:, 0],
                              F.mul(c, alg.one))
                if not 0 < gfq.rank(F, alg.lmul_of(z)) < d:
                    raise gfq.CertificateError("f(z) for a factor f of the "
                                               "minimal polynomial of z is "
                                               "not a zero divisor")
            # proper left ideal V = alg * z (the image of x -> x*z); find its
            # right identity g: sum_a c_a (v_j * w_a) = v_j with w_a the basis
            rz = alg.rmul_of(z)
            V, vpiv = gfq.echelon(F, rz.T)
            nv = V.shape[0]
            # row (j, m), column a: coordinate m of v_j w_a
            M = _products(F, alg.mult, V, V).transpose(0, 2, 1)
            c = gfq.solve(F, M.reshape(nv * d, nv), V.reshape(-1))
            if c is None:
                raise gfq.CertificateError("no right identity in left ideal")
            g = F.matmul(V.T, c[:, None])[:, 0]
            g2 = F.sub(alg.one, g)
            if not (alg.is_idempotent(g) and g.any() and g2.any()):
                raise gfq.CertificateError("right identity of a proper left "
                                           "ideal is not a proper idempotent")
            for part in (g, g2):
                C, rows2, piv2 = alg.corner(part)
                emb2 = F.matmul(rows2, embed) if embed is not None else rows2
                eo = F.matmul(embed.T, part[:, None])[:, 0] \
                    if embed is not None else part
                split(C, eo, emb2)
            return
        raise RuntimeError("could not split semisimple algebra")

    split(S, S.one, None)
    return out


def _lift_idempotent(alg, x):
    """Iterate x <- 3x^2 - 2x^3 until idempotent; x starts idempotent modulo
    the radical, and the defect x^2 - x lands in an ever deeper power."""
    F = alg.field
    three = np.int16(3 % F.p)
    mtwo = np.int16((-2) % F.p)
    for _ in range(64):
        if alg.is_idempotent(x):
            return x
        x2 = alg.multiply(x, x)
        x3 = alg.multiply(x2, x)
        x = F.add(F.mul(three, x2), F.mul(mtwo, x3))
    raise RuntimeError("idempotent lifting did not converge")


def algebra_shape(a, seed=0, _check_op=True):
    """Structural summary of a finite dimensional algebra.

    Returns {simple_dims, cartan, loewy, flags}.  Primitive idempotents
    are grouped into isomorphism classes by the central factor of A/J
    their image generates; simple_dims, the Cartan matrix and the Loewy
    layers of one projective per class are all indexed by these classes.
    Loewy layers list simple class indices with multiplicity.
    """
    F = a.field
    prims = a.primitive_idempotents(seed=seed)
    abar, proj, _lift = a.semisimple_quotient()
    zbars = abar.central_primitive_idempotents(seed=seed)

    def class_of(e):
        ebar = F.matmul(proj, np.asarray(e, np.int16)[:, None])[:, 0]
        hits = [t for t, z in enumerate(zbars)
                if abar.multiply(ebar, z).any()]
        if len(hits) != 1:
            raise gfq.CertificateError("idempotent image meets %d factors"
                                       % len(hits))
        return hits[0]

    cls = [class_of(e) for e in prims]
    classes = sorted(set(cls))
    rep = {c: cls.index(c) for c in classes}
    counts = {c: cls.count(c) for c in classes}
    simple_dims = []
    for c in classes:
        factor_dim = gfq.rank(F, abar.rmul_of(zbars[c]))
        if factor_dim % counts[c]:
            raise gfq.CertificateError("factor of dim %d is not %d equal "
                                       "simples" % (factor_dim, counts[c]))
        simple_dims.append(factor_dim // counts[c])
    # dim of the division algebra End(S_c)
    ddims = []
    for c in classes:
        e = prims[rep[c]]
        ebar = F.matmul(proj, e[:, None])[:, 0]
        corner_dim = gfq.rank(
            F, F.matmul(abar.lmul_of(ebar), abar.rmul_of(ebar)))
        ddims.append(corner_dim)

    def corner_rank(j, rows, i):
        if rows.shape[0] == 0:
            return 0
        ei, ej = prims[rep[classes[i]]], prims[rep[classes[j]]]
        imgs = [a.multiply(ej, a.multiply(rows[t], ei))
                for t in range(rows.shape[0])]
        return gfq.rank(F, np.array(imgs, dtype=np.int16))

    s = len(classes)
    full = np.eye(a.dim, dtype=np.int16)
    cartan = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            d = corner_rank(j, full, i)
            if d % ddims[j]:
                raise gfq.CertificateError("Cartan corner of dim %d over a "
                                           "%d-dim division algebra"
                                           % (d, ddims[j]))
            cartan[i][j] = d // ddims[j]
    powers = a.radical_powers()
    loewy = []
    for i in range(s):
        layers = []
        for lv in range(len(powers) - 1):
            layer = []
            for j in range(s):
                d = corner_rank(j, powers[lv], i) \
                    - corner_rank(j, powers[lv + 1], i)
                if d % ddims[j]:
                    raise gfq.CertificateError("Loewy layer of dim %d over a "
                                               "%d-dim division algebra"
                                               % (d, ddims[j]))
                layer.extend([j] * (d // ddims[j]))
            if layer:
                layers.append(layer)
        loewy.append(layers)
    uniserial = all(len(layer) == 1 for ls in loewy for layer in ls)
    if uniserial and _check_op:
        op = FinDimAlgebra(F, np.ascontiguousarray(a.mult.swapaxes(0, 1)),
                           a.one)
        op_shape = algebra_shape(op, seed=seed, _check_op=False)
        op_shape_uniserial = all(len(layer) == 1
                                 for ls in op_shape["loewy"] for layer in ls)
    else:
        op_shape_uniserial = uniserial
    flags = {
        "is_self_injective": bool(a.is_self_injective(seed)),
        "is_symmetric": bool(a.is_symmetric(seed)[0]),
        "is_nakayama": bool(uniserial and op_shape_uniserial),
        "is_split_local": bool(a.is_split_local(seed)),
    }
    return {"simple_dims": simple_dims, "cartan": cartan,
            "loewy": loewy, "flags": flags}


def nakayama_algebra(field, num_simples, proj_length):
    """Basic cyclic Nakayama algebra: truncated path algebra of the cyclic
    quiver on num_simples vertices, paths of length < proj_length.

    Basis (v, l): the path of length l starting at vertex v.  Every
    projective is uniserial of length proj_length.
    """
    s = num_simples
    L = proj_length
    d = s * L

    def idx(v, l):
        return v * L + l

    mult = np.zeros((d, d, d), dtype=np.int16)
    labels = []
    for v in range(s):
        for l in range(L):
            labels.append("p[%d,%d]" % (v, l))
    for v1 in range(s):
        for l1 in range(L):
            for v2 in range(s):
                for l2 in range(L):
                    # path (v1,l1) after path (v2,l2)
                    if (v2 + l2) % s != v1 % s:
                        continue
                    if l1 + l2 >= L:
                        continue
                    mult[idx(v1, l1), idx(v2, l2), idx(v2, l1 + l2)] = 1
    one = np.zeros(d, dtype=np.int16)
    for v in range(s):
        one[idx(v, 0)] = 1
    return FinDimAlgebra(field, mult, one, labels)


def group_algebra(field, group):
    """Structure constants of kG on the sorted element basis (small groups)."""
    elems = group.elements()
    n = len(elems)
    mult = np.zeros((n, n, n), dtype=np.int16)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            mult[i, j, group.index_of(g * h)] = 1
    one = np.zeros(n, dtype=np.int16)
    from .permgrp import Perm
    one[group.index_of(Perm.identity(group.degree))] = 1
    labels = [g.to_cycle_string() for g in elems]
    return FinDimAlgebra(field, mult, one, labels)
