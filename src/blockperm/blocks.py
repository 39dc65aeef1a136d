"""Block decomposition of group algebras and the modules attached to blocks.

The group algebra kG is handled through index tables rather than structure
constant tensors: elements of kG are coefficient vectors over the sorted
element list, and multiplication facts are encoded in the table
M1[g, h] = index(g^-1 h).  A row of vec[M1] is then the left translate
g * vec, so the fixed-point algebra B^P is an integer gather followed by an
echelon call.

Blocks are found as the primitive idempotents of the center, which is small
(one dimension per conjugacy class) even when kG itself is large.

Block-level modules live on permutation modules, not on the |G|-dimensional
ideal kG e.  For x in kG commuting with H (e, or a source idempotent i of
B^P with H = P), kG x tensor_kH k is kG x[H] inside k[G/H], x[H] being the
image of x under g -> gH; two-sided coinvariants are images in k[H\\G/H].
The ideal route (ideal_rows, right_translation_mats, source_corner_rows)
stays as an independent reference.
"""

import weakref

import numpy as np

from . import gfq
from . import meataxe
from . import polys
from .algebra import FinDimAlgebra
from .modules import GModule, coset_map
from .permgrp import Perm, ResourceCap, orbit_labels

# past this order the n x n echelon work is only viable with the BLAS-backed
# prime-field path
GENERIC_FIELD_ORDER_LIMIT = 600


class GroupAlgebra:
    """kG for a materialized permutation group, with index-table products."""

    def __init__(self, group, field):
        self.group = group
        self.field = field
        self.elems = group.elements()
        self.n = len(self.elems)
        if field.e > 1 and self.n > GENERIC_FIELD_ORDER_LIMIT:
            raise ResourceCap(
                "group of order %d needs a prime field for block work"
                % self.n)
        self._eltarr = group.image_array()
        self._itype = np.int16 if self.n < 2 ** 15 else np.int32
        self.M1 = self._build_m1()
        self._classes = None
        self._center = None
        self._blocks = None
        self._cosets = {}

    # -- index tables --

    def lmul_index(self, g):
        """arr with arr[h] = index(g * elems[h])."""
        gi = np.array(g.img, dtype=np.int32)
        imgs = gi[self._eltarr]  # row h is (g * elems[h]).img
        return self._lookup_rows(imgs)

    def rmul_index(self, g):
        """arr with arr[h] = index(elems[h] * g)."""
        gi = np.array(g.img, dtype=np.int32)
        imgs = self._eltarr[:, gi]
        return self._lookup_rows(imgs)

    def conj_index(self, g):
        """arr with arr[h] = index(g * elems[h] * g^-1)."""
        gi = np.array(g.img, dtype=np.int32)
        gii = np.array(g.inv().img, dtype=np.int32)
        imgs = gi[self._eltarr[:, gii]]
        return self._lookup_rows(imgs)

    def _lookup_rows(self, imgs):
        return self.group.indices(imgs).astype(self._itype)

    def _build_m1(self):
        """M1[g, h] = index(elems[g]^-1 * elems[h]), built by BFS on rows:
        for g' = s * g the row is M1[g'] = M1[g][linv_s]."""
        n = self.n
        M1 = np.empty((n, n), dtype=self._itype)
        linv = [self.lmul_index(s.inv()) for s in self.group.generators]
        lmul = [self.lmul_index(s) for s in self.group.generators]
        e = self.group.index_of(Perm.identity(self.group.degree))
        M1[e] = np.arange(n, dtype=self._itype)
        done = np.zeros(n, dtype=bool)
        done[e] = True
        frontier = [e]
        while frontier:
            nxt = []
            for g in frontier:
                for s in range(len(linv)):
                    g2 = int(lmul[s][g])
                    if not done[g2]:
                        M1[g2] = M1[g][linv[s]]
                        done[g2] = True
                        nxt.append(g2)
            frontier = nxt
        if not done.all():
            raise gfq.CertificateError("left translations miss an element")
        return M1

    def inv_index(self):
        """arr[g] = index of elems[g]^-1."""
        e = self.group.index_of(Perm.identity(self.group.degree))
        return self.M1[:, e].copy()

    def convolve(self, x, y):
        """Group algebra product of two coefficient vectors (O(n^2))."""
        F = self.field
        out = np.zeros(self.n, dtype=np.int16)
        for g in np.nonzero(x)[0]:
            out = F.add(out, F.mul(np.int16(x[g]), y[self.M1[int(g)]]))
        return out

    # -- conjugacy classes and the center --

    def conjugacy_classes(self):
        """(class_of, class_lists): classes sorted by smallest member index,
        so the identity class comes first."""
        if self._classes is not None:
            return self._classes
        conj = [self.conj_index(s) for s in self.group.generators]
        class_of = orbit_labels(conj, self.n)
        lists = [np.nonzero(class_of == c)[0].astype(np.int32)
                 for c in range(class_of.max() + 1)]
        self._classes = (class_of, lists)
        return self._classes

    def center_algebra(self):
        """Z(kG) on the class-sum basis, as a FinDimAlgebra.

        The structure constant of C_c in C_a C_b counts pairs (x, y) with
        x in C_a, y in C_b, x y = z for one fixed z in C_c; equivalently it
        counts x in C_a with x^-1 z in C_b.
        """
        if self._center is not None:
            return self._center
        class_of, lists = self.conjugacy_classes()
        c = len(lists)
        mult = np.zeros((c, c, c), dtype=np.int16)
        p = self.field.p
        for a in range(c):
            rows = self.M1[lists[a]]
            for k in range(c):
                z = int(lists[k][0])
                counts = np.bincount(class_of[rows[:, z]], minlength=c)
                mult[a, :, k] = (counts % p).astype(np.int16)
        one = np.zeros(c, dtype=np.int16)
        one[0] = 1  # the identity class is a singleton and sorts first
        Z = FinDimAlgebra(self.field, mult, one)
        self._center = Z
        return Z

    def class_vector(self, coeffs):
        """Coefficient vector over group elements from class-sum coords."""
        class_of, _ = self.conjugacy_classes()
        return np.asarray(coeffs, dtype=np.int16)[class_of]

    # -- blocks --

    def blocks(self, seed=0):
        """The blocks, principal first.  Blocks hold the algebra, which keeps
        their idempotents and results but the Blocks only weakly: dropping
        both frees the n x n tables at once, without a full collection."""
        if self._blocks is None:
            prims = self.center_algebra().primitive_idempotents(seed=seed)
            new = [Block(self, c, {}) for c in prims]
            new.sort(key=lambda b: (not b.is_principal,
                                    int(np.nonzero(b.evec)[0][0])))
            self._blocks = [[b.coords, b._cache, weakref.ref(b)] for b in new]
        out = []
        for entry in self._blocks:
            b = entry[2]()
            if b is None:  # nothing holds this Block any more
                b = Block(self, entry[0], entry[1])
                entry[2] = weakref.ref(b)
            out.append(b)
        return out

    def ideal_rows(self, vec):
        """RREF basis of the left ideal kG*vec (rows are g*vec)."""
        T = np.asarray(vec, dtype=np.int16)[self.M1]
        return gfq.echelon(self.field, T)

    def right_translation_mats(self, rows, piv, elements):
        """Matrices of v -> v*u on the coordinates of a right-stable row
        basis, for each u in elements."""
        out = []
        for u in elements:
            rinv = self.rmul_index(u.inv())
            img = rows[:, rinv]
            coords = img[:, piv]
            back = self.field.matmul(coords, rows)
            if not np.array_equal(back, img):
                raise gfq.CertificateError("row space not right-stable")
            out.append(coords.T.copy())
        return out

    # -- permutation modules k[G/H] --

    def cosets(self, h):
        """(k[G/H], cos), cached per subgroup: cos[j, t] is the index of
        reps[j] * h_t, so cos[:, 0] indexes the coset representatives."""
        key = _subgroup_key(h)
        if key not in self._cosets:
            perm = GModule.permutation(self.group, h, self.field)
            reps = np.array([r.img for r in perm.tags], dtype=np.int32)
            hel = h.image_array()
            cos = self._lookup_rows(reps[:, hel].reshape(self.n, -1))
            self._cosets[key] = (perm, cos.reshape(len(reps), -1))
        return self._cosets[key]

    def coset_submodule(self, x, h):
        """kG x[H] inside k[G/H] as (GModule, rows, pivots), for x in kG
        commuting with H.  Then x[H] is H-fixed, and kG x[H] is the image
        of the endomorphism gH -> g x[H] of k[G/H]."""
        F = self.field
        perm, cos = self.cosets(h)
        xbar = F.sum(np.asarray(x, dtype=np.int16)[cos], axis=1)
        rows, piv = gfq.echelon(F, coset_map(perm, perm, xbar).T)
        mats = meataxe.restrict_to_submodule(F, perm.mats, rows, piv)
        return GModule(self.group, F, mats, dim=len(piv)), rows, piv

    def left_mult_on_cosets(self, x, h):
        """Matrix of v -> x v on k[G/H]: column j is x reps[j] summed over
        each coset, where (x r)[g] = x[g r^-1] = x[M1[inv[g], inv[r]]]."""
        F = self.field
        _perm, cos = self.cosets(h)
        inv = self.inv_index()
        x = np.asarray(x, dtype=np.int16)
        left = inv[cos]
        cols = [F.sum(x[self.M1[left, inv[r]]], axis=1) for r in cos[:, 0]]
        return np.array(cols, dtype=np.int16).T

    def double_coset_rank(self, rows, h):
        """Rank of rows (vectors of k[G/H]) summed over each H-orbit of
        cosets, i.e. projected onto k[H\\G/H]: the dimension of the
        H-coinvariants of their span when that is a kH-summand of k[G/H]."""
        _perm, cos = self.cosets(h)
        coset_of = np.empty(self.n, dtype=np.int64)
        coset_of[cos] = np.arange(len(cos))[:, None]
        moves = [coset_of[self.lmul_index(u)[cos[:, 0]]] for u in h.generators]
        orbit = orbit_labels(moves, len(cos))
        sums = (orbit[:, None] == np.arange(orbit.max() + 1)).astype(np.int16)
        return gfq.rank(self.field, self.field.matmul(rows, sums))

    def central_character(self, evec_coords):
        """For a block idempotent in class-sum coords: the scalar by which
        each class sum acts on the block, as a tuple of field codes."""
        Z = self.center_algebra()
        c = Z.dim
        F = self.field
        out = []
        for a in range(c):
            delta = np.zeros(c, dtype=np.int16)
            delta[a] = 1
            y = Z.multiply(delta, evec_coords)
            # minpoly of y on the corner Z e, cyclic with generator e
            mp = meataxe.vector_annihilator(F, Z.lmul_of(y), evec_coords)
            roots = set()
            for f, _m in polys.factor(F, mp):
                if polys.degree(f) != 1:
                    raise gfq.CertificateError("irrational central value")
                roots.add(int(F.neg(np.int16(f[0]))))
            if len(roots) != 1:
                raise gfq.CertificateError("%d central values" % len(roots))
            out.append(roots.pop())
        return tuple(out)


def _subgroup_key(h):
    return (h.order(), tuple(g.img for g in h.generators))


class Block:
    """A block of kG: the ideal generated by a primitive central idempotent."""

    def __init__(self, ga, coords, cache):
        self.ga = ga
        self.coords = np.asarray(coords, dtype=np.int16)  # class-sum coords
        self.evec = ga.class_vector(self.coords)
        self.is_principal = int(ga.field.sum(self.evec)) == 1
        # results kept by ga for this block, none of which refers to ga
        self._cache = cache
        self._fpa = cache.setdefault("fpa", {})
        self._source = cache.setdefault("source", {})
        self._cosets = cache.setdefault("cosets", {})

    def _on_cosets(self, h, seed=None):
        """(GModule, rows, pivots) for B tensor_kH k = kG e[H] inside
        k[G/H]; with a seed, for Bi tensor_kH k = kG i[H] with i the source
        idempotent of B^H at that seed.  Cached per subgroup and seed."""
        key = (_subgroup_key(h), seed)
        if key not in self._cosets:
            x = self.evec if seed is None else \
                self.source_idempotent(h, seed=seed)
            self._cosets[key] = self.ga.coset_submodule(x, h)
        return self._cosets[key]

    @property
    def dim(self):
        """|S| dim(e k[G/S]) for a Sylow p-subgroup S: B is free over kS."""
        s = self.ga.group.sylow_subgroup(self.ga.field.p)
        return s.order() * self._on_cosets(s)[0].dim

    def central_character(self):
        if "char" not in self._cache:
            self._cache["char"] = self.ga.central_character(self.coords)
        return self._cache["char"]

    def brauer_quotient_nonzero(self, q):
        """Whether the image of the block idempotent under truncation to
        C_G(Q)-supported coordinates is nonzero."""
        cent = self.ga.group.centralizer(q)
        sup = self.ga.group.indices(cent.image_array())
        return bool(np.asarray(self.evec)[sup].any())

    def defect_group(self):
        """A maximal p-subgroup with nonzero Brauer quotient (unique class)."""
        if "defect" not in self._cache:
            classes = self.ga.group.p_subgroups_up_to_conjugacy(self.ga.field.p)
            best = None
            for q in classes:
                if self.brauer_quotient_nonzero(q):
                    if best is None or q.order() > best.order():
                        best = q
            self._cache["defect"] = best.with_small_generators()
        return self._cache["defect"]

    # -- fixed points under a p-group and the source idempotent --

    def fixed_point_algebra(self, p_sub):
        """B^P = e (kG)^P for a p-subgroup P, as (algebra, rows, pivots).

        Spanned by the P-conjugation orbit sums of the translates g*e; the
        structure constants are read off pivot coordinates with one gathered
        matrix product per pivot.
        """
        key = _subgroup_key(p_sub)
        if key in self._fpa:
            return self._fpa[key]
        ga = self.ga
        F = ga.field
        n = ga.n
        T = np.asarray(self.evec, dtype=np.int16)[ga.M1]  # row g is g*e
        orbit_of = orbit_labels([ga.conj_index(s) for s in p_sub.generators], n)
        sums = np.array([F.sum(T[orbit_of == o], axis=0)
                         for o in range(orbit_of.max() + 1)], dtype=np.int16)
        rows, piv = gfq.echelon(F, sums)
        d = rows.shape[0]
        mult = np.zeros((d, d, d), dtype=np.int16)
        for k, pk in enumerate(piv):
            col = ga.M1[:, pk]
            Y = rows[:, col]  # Y[j, g] = r_j[g^-1 z_k]
            mult[:, :, k] = F.matmul(rows, Y.T)
        one = np.asarray(self.evec)[piv].astype(np.int16)
        alg = FinDimAlgebra(F, mult, one)
        self._fpa[key] = (alg, rows, piv)
        return self._fpa[key]

    def source_idempotent(self, p_sub, seed=0):
        """A primitive idempotent of B^P with nonzero Brauer quotient,
        as a kG coefficient vector (deterministic for a fixed seed)."""
        key = (_subgroup_key(p_sub), seed)
        if key in self._source:
            return self._source[key]
        ga = self.ga
        alg, rows, piv = self.fixed_point_algebra(p_sub)
        cent = ga.group.centralizer(p_sub)
        sup = ga.group.indices(cent.image_array())
        for f in alg.primitive_idempotents(seed=seed):
            vec = ga.field.matmul(f[None, :], rows)[0]
            if vec[sup].any():
                self._source[key] = vec
                return vec
        raise AssertionError("no source idempotent found")

    # -- coinvariant modules --

    def source_permutation_module(self, p_sub, seed=0):
        """Bi tensor_kP k = kG i[P], for the source idempotent i of B^P.

        It is a summand of k[G/P] because i commutes with P, so kGi is a
        kG-kP summand of kG (Prop. 8.3, Lemma 9.1)."""
        m = self._on_cosets(p_sub, seed=seed)[0]
        m.name = "source permutation module"
        return m

    def block_sylow_module(self, sylow):
        """B tensor_kS k = e k[G/S] for a full Sylow p-subgroup S of G.

        The isomorphism class does not depend on which Sylow subgroup is
        passed (they are all conjugate), so a conjugate of the defect group
        always sits inside the chosen S."""
        p = self.ga.field.p
        order = self.ga.group.order()
        part = 1
        while order % p == 0:
            part *= p
            order //= p
        if sylow.order() != part:
            raise ValueError("subgroup is not a Sylow p-subgroup")
        m = self._on_cosets(sylow)[0]
        m.name = "block Sylow coinvariants"
        return m

    def source_corner_rows(self, p_sub, seed=0):
        """(rows, pivots) spanning the corner iBi inside kG.

        Computed by multiplying the left ideal Bi by i on the left; the
        corner is stable under left and right translation by P since i is
        fixed under P-conjugation.
        """
        ga = self.ga
        F = ga.field
        ivec = self.source_idempotent(p_sub, seed=seed)
        rows, _piv = ga.ideal_rows(ivec)
        inv = ga.inv_index()
        # LI[m, h] = i[m h^-1]; then (i*x)[m] = sum_h LI[m, h] x[h]
        A = ga.M1[np.ix_(inv, inv)]        # A[h, m] = idx(h m^-1)
        LI = np.asarray(ivec, dtype=np.int16)[inv[A]].T
        corner = F.matmul(rows, LI.T)
        return gfq.echelon(F, corner)

    def source_orbit_count(self, p_sub, seed=0):
        """Number of P-P orbits on a P-P-stable basis of the corner iBi.

        For a p-permutation bimodule this equals the dimension of its
        two-sided P-coinvariants k tensor_P iBi tensor_P k.  Since i
        commutes with P, iBi tensor_P k = i (Bi tensor_P k) is a kP-summand
        of k[G/P], so that dimension is read off in k[P\\G/P].
        """
        ga = self.ga
        _m, rows, _piv = self._on_cosets(p_sub, seed=seed)
        ivec = self.source_idempotent(p_sub, seed=seed)
        corner = ga.field.matmul(rows, ga.left_mult_on_cosets(ivec, p_sub).T)
        return ga.double_coset_rank(corner, p_sub)

    def is_nilpotent_hint(self):
        """Cheap sufficient condition for the block being nilpotent at its
        defect group P: N_G(P) = P * C_G(P)."""
        p_sub = self.defect_group()
        g = self.ga.group
        norm = g.normalizer(p_sub)
        cent = g.centralizer(p_sub)
        meet = len(p_sub.element_set() & cent.element_set())
        return norm.order() * meet == p_sub.order() * cent.order()

    def two_sided_coinvariant_dim(self, subgroup):
        """dim of k tensor_H B tensor_H k: the quotient of the block by all
        u*b - b and b*u - b, read off as the image of the kG-summand
        B tensor_H k = e k[G/H] of k[G/H] in k[H\\G/H]."""
        _m, rows, _piv = self._on_cosets(subgroup)
        return self.ga.double_coset_rank(rows, subgroup)

    def number_of_simples(self, sylow, seed=0):
        """l(B): distinct composition factors of the Sylow coinvariants of B.

        Every simple module of the block is a quotient of B tensor_S k: a
        nonzero fixed point of S on a simple gives a surjection from it.
        """
        m = self.block_sylow_module(sylow)
        return len(meataxe.composition_factors(m.field, m.mats, seed=seed))

    def brauer_correspondent(self, p_sub, seed=0):
        """The block of k[N_G(P)] cut out by truncating the block idempotent
        to C_G(P)-support.

        Returns (small GroupAlgebra, correspondent Block).  Valid when the
        defect group is P: the truncated idempotent is then the correspondent
        block idempotent.
        """
        ga = self.ga
        norm = ga.group.normalizer(p_sub).with_small_generators()
        cent = ga.group.centralizer(p_sub)
        small = GroupAlgebra(norm, ga.field)
        br = np.zeros(small.n, dtype=np.int16)
        rows = cent.image_array()
        br[small.group.indices(rows)] = self.evec[ga.group.indices(rows)]
        if not np.array_equal(small.convolve(br, br), br):
            raise gfq.CertificateError("Brauer quotient of the block "
                                       "idempotent is not idempotent")
        hits = []
        for c in small.blocks(seed=seed):
            if np.array_equal(small.convolve(c.evec, br), c.evec):
                hits.append(c)
        if len(hits) != 1 or not np.array_equal(hits[0].evec, br):
            raise gfq.CertificateError("correspondent is not a single block")
        return small, hits[0]

    def __repr__(self):
        return "Block(dim=%d%s)" % (self.dim,
                                    ", principal" if self.is_principal
                                    else "")


def block_decomposition(group, field, seed=0):
    """The blocks of kG, principal first.  Each Block keeps a reference to
    the shared GroupAlgebra as .ga; defect groups and source idempotents
    are computed on demand and cached."""
    ga = GroupAlgebra(group, field)
    return ga.blocks(seed=seed)


def brauer_hom(ga, x, p_sub):
    """Brauer homomorphism at P applied to a P-conjugation-fixed element.

    Truncates the coefficient vector to its C_G(P)-supported part; the
    result is returned as (centralizer, vector) with the vector still on
    the kG basis but supported only on centralizer elements.  Restricted
    to (kG)^P this is an algebra homomorphism onto kC_G(P).
    """
    F = ga.field
    x = np.asarray(x, dtype=np.int16)
    for s in p_sub.generators:
        if not np.array_equal(x[ga.conj_index(s)], x):
            raise ValueError("element is not fixed under P-conjugation")
    cent = ga.group.centralizer(p_sub).with_small_generators()
    out = np.zeros(ga.n, dtype=np.int16)
    sup = ga.group.indices(cent.image_array())
    out[sup] = x[sup]
    return cent, out
