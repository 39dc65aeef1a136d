"""Block decomposition of group algebras and the modules attached to blocks.

Elements of kG are coefficient vectors over the sorted element list.  No
|G| x |G| multiplication table is kept: products use index maps of size
|G| looked up in the group's element and inverse arrays
(PermGroup.indices), such as h -> index(s h) for a generator s or
g -> index(g^-1 z) for one z.  Work
that needs every translate g*x of a vector walks G breadth first along the
generators: s*(g*x) is g*x gathered by the index map of s^-1, so only one
layer of translates is alive at a time.  The fixed-point algebra B^P adds
each translate g*e into its P-orbit sum as the walk reaches it.  For a
trivial P (a block of defect zero) B^1 and k[G/1] are still |G| x |G|.

Blocks are found as the primitive idempotents of the center, which is small
(one dimension per conjugacy class) even when kG itself is large.

Block-level modules live on permutation modules, not on the |G|-dimensional
ideal kG e.  For x in kG commuting with H (e, or a source idempotent i of
B^P with H = P), kG x tensor_kH k is kG x[H] inside k[G/H], x[H] being the
image of x under g -> gH; two-sided coinvariants are images in k[H\\G/H].
The ideal route (ideal_rows, right_translation_mats, source_corner_rows)
stays as an independent reference for the tests; it builds its n x n
operands for the duration of a call only.
"""

import weakref

import numpy as np

from . import gfq
from . import meataxe
from .algebra import FinDimAlgebra
from .modules import GModule, coset_maps
from .permgrp import ResourceCap, orbit_labels

# past this order the n x n echelon work is only viable with the BLAS-backed
# prime-field path
GENERIC_FIELD_ORDER_LIMIT = 600


class GroupAlgebra:
    """kG for a materialized permutation group, with products on index maps
    of size |G|."""

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
        self._invarr = group.inverse_array()
        self._itype = np.int16 if self.n < 2 ** 15 else np.int32
        self._classes = None
        self._center = None
        self._frobenius = None  # see _frobenius_power
        self._blocks = None
        self._cosets = {}
        self._centralizers = {}

    # -- index maps --

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

    def ldiv_index(self, z):
        """arr with arr[g] = index(elems[g]^-1 * elems[z]), z an index."""
        return self._lookup_rows(self._invarr[:, self._eltarr[z]])

    def _lookup_rows(self, imgs):
        return self.group.indices(imgs).astype(self._itype)

    def _walk(self, start, grow, label=None):
        """Breadth-first walk on G from the identity (index 0) along left
        multiplication by the generators, one layer at a time.

        Yields (elements, payloads): the identity's payload is start, and
        the payloads of s_j * g for a layer are grow(payloads of g, j).
        With a label array on the elements, only the first element met of
        each label is visited.  Only one layer of payloads is alive; the
        walk checks at its end that it met every label."""
        step = [self.lmul_index(s) for s in self.group.generators]
        label = np.arange(self.n) if label is None else label
        seen = np.zeros(int(label.max()) + 1, dtype=bool)
        seen[label[0]] = True
        elts, pay = np.zeros(1, dtype=np.intp), start[None, :]
        while len(elts):
            yield elts, pay
            nxt, grown = [], []
            for j, s in enumerate(step):
                cand = s[elts]
                lab, first = np.unique(label[cand], return_index=True)
                first = first[~seen[lab]]
                seen[lab] = True
                nxt.append(cand[first])
                grown.append(grow(pay[first], j))
            elts = np.concatenate(nxt) if nxt else elts[:0]
            pay = np.concatenate(grown) if grown else pay[:0]
        if not seen.all():
            raise gfq.CertificateError("the walk misses part of G")

    def _left_translates(self, vec):
        """Walk G yielding (elements, rows) with rows[i] = elems[elements[i]]
        * vec: if y = g vec then (s y)[h] = y[s^-1 h]."""
        linv = [self.lmul_index(s.inv()) for s in self.group.generators]
        return self._walk(np.asarray(vec, dtype=np.int16),
                          lambda rows, j: rows[:, linv[j]])

    def _right_quotients(self, label=None):
        """Walk G yielding (elements, maps) with maps[i][h] = index(elems[h]
        * r^-1) for r = elems[elements[i]]: the map of s r is the map of r
        followed by right multiplication by s^-1."""
        rinv = [self.rmul_index(s.inv()) for s in self.group.generators]
        return self._walk(np.arange(self.n, dtype=self._itype),
                          lambda maps, j: rinv[j][maps], label)

    def convolve(self, x, y):
        """Group algebra product of two coefficient vectors: the sum of
        x[g] (g y) over the support of x, with (g y)[h] = y[g^-1 h]."""
        F = self.field
        y = np.asarray(y, dtype=np.int16)
        out = np.zeros(self.n, dtype=np.int16)
        for g in np.nonzero(x)[0]:
            ginv = self._lookup_rows(self._invarr[g][self._eltarr])
            out = F.add(out, F.mul(np.int16(x[g]), y[ginv]))
        return out

    def centralizer_support(self, q):
        """Indices of the elements of C_G(Q), cached per subgroup."""
        key = _subgroup_key(q)
        if key not in self._centralizers:
            self._centralizers[key] = np.flatnonzero(
                self.group.centralizer_mask(q))
        return self._centralizers[key]

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
        for k in range(c):
            # the classes of each x and of x^-1 z, one z in class k
            col = self.ldiv_index(int(lists[k][0]))
            pairs = np.bincount(class_of * c + class_of[col], minlength=c * c)
            mult[:, :, k] = pairs.reshape(c, c) % self.field.p
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
        """The blocks: principal first, then by the first element and the
        coefficients of the idempotent, an order that no seed changes.
        Blocks hold the algebra, which keeps their idempotents and results
        but the Blocks only weakly: dropping both frees the algebra and its
        caches at once, without a full collection."""
        if self._blocks is None:
            prims = self.center_algebra().primitive_idempotents(seed=seed)
            new = [Block(self, c, {}) for c in prims]
            new.sort(key=lambda b: (not b.is_principal,
                                    int(np.nonzero(b.evec)[0][0]),
                                    b.evec.tobytes()))
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
        """RREF basis of the left ideal kG*vec (rows are g*vec), echeloned
        from all n translates at once: a reference route only."""
        T = np.empty((self.n, self.n), dtype=np.int16)
        for elts, rows in self._left_translates(vec):
            T[elts] = rows
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
        of the kG-endomorphism E_x: gH -> g x[H] of k[G/H].

        E_x is idempotent when E_x(x[H]) = x[H], as for the block
        idempotent or a source idempotent; then kG x[H] is a summand of
        k[G/H], and the module records (k[G/H], rows, pivots) as its
        ambient, which sends hom_modules out of it down the fixed-point
        route.  Otherwise (2e, a class sum) no ambient is recorded."""
        F = self.field
        perm, cos = self.cosets(h)
        xbar = F.sum(np.asarray(x, dtype=np.int16)[cos], axis=1)
        if any(not np.array_equal(xbar[move], xbar)
               for move in self._coset_moves(h)):
            raise ValueError("x[H] is not fixed by H")
        E = coset_maps(perm, perm, xbar[None, :])[0][0]
        rows, piv = gfq.echelon(F, E.T)
        mats = meataxe.restrict_to_submodule(F, perm.mats, rows, piv)
        m = GModule(self.group, F, mats, dim=len(piv))
        if np.array_equal(F.matmul(E, xbar[:, None])[:, 0], xbar):
            m.ambient = (perm, rows, piv)
        return m, rows, piv

    def left_mult_on_cosets(self, x, h):
        """Matrix of v -> x v on k[G/H]: column j is x r summed over each
        coset, for any r in coset j, where (x r)[g] = x[g r^-1].  The maps
        g -> index(g r^-1) come from a walk visiting each coset once."""
        F = self.field
        _perm, cos = self.cosets(h)
        coset_of = _coset_of(cos, self.n)
        x = np.asarray(x, dtype=np.int16)
        out = np.empty((len(cos), len(cos)), dtype=np.int16)
        for elts, maps in self._right_quotients(label=coset_of):
            out[:, coset_of[elts]] = F.sum(x[maps[:, cos]], axis=2).T
        return out

    def _coset_moves(self, h):
        """For each generator u of H, the map j -> the coset of u r_j on
        k[G/H]."""
        _perm, cos = self.cosets(h)
        coset_of = _coset_of(cos, self.n)
        reps = self._eltarr[cos[:, 0]]  # row j is the image of r_j
        return [coset_of[self._lookup_rows(np.array(u.img)[reps])]
                for u in h.generators]

    def double_coset_rank(self, rows, h):
        """Rank of rows (vectors of k[G/H]) summed over each H-orbit of
        cosets, i.e. projected onto k[H\\G/H]: the dimension of the
        H-coinvariants of their span when that is a kH-summand of k[G/H]."""
        _perm, cos = self.cosets(h)
        orbit = orbit_labels(self._coset_moves(h), len(cos))
        sums = (orbit[:, None] == np.arange(orbit.max() + 1)).astype(np.int16)
        return gfq.rank(self.field, self.field.matmul(rows, sums))

    def central_character(self, evec_coords):
        """For a block idempotent e in class-sum coords: the scalar by
        which each class sum acts on the block, as a tuple of field codes.

        C_a e = w_a e + n_a with n_a in the radical of Z e, so n_a^Q = 0
        for Q >= dim Z.  So for Q a power of q, z -> z^Q (_frobenius_power)
        sends C_a e to w_a^Q e = w_a e for every a at once.
        CertificateError is raised unless each image is a multiple of e,
        as for a block that is not split over the field or a sum of two
        blocks."""
        F = self.field
        e = np.asarray(evec_coords, dtype=np.int16)
        if not e.any():
            raise gfq.CertificateError("the zero idempotent has no block")
        # column a is the image of C_a e
        img = F.matmul(self._frobenius_power(),
                       self.center_algebra().lmul_of(e))
        k = int(np.flatnonzero(e)[0])
        omega = F.mul(img[k], F.inv(e[k]))
        if not np.array_equal(img, F.mul(e[:, None], omega[None, :])):
            raise gfq.CertificateError("a class sum does not act on the "
                                       "block as a scalar")
        return tuple(int(w) for w in omega)

    def _frobenius_power(self):
        """Matrix of z -> z^Q on Z(kG) in class-sum coords, Q the least
        power of q with Q >= dim Z, built once per group algebra.  Z is
        commutative of characteristic p, so z -> z^q is additive and fixes
        GF(q): it is linear, and so is this power of it.  Column a is C_a^Q,
        by repeated squaring of all class sums at once."""
        if self._frobenius is None:
            F, Z = self.field, self.center_algebra()
            c = Z.dim
            table = Z.mult.reshape(c, c * c)

            def times(X, Y):
                # row r of the result is the product of the r-th rows
                T = F.matmul(X, table).reshape(c, c, c)
                return F.sum(F.mul(Y[:, :, None], T), axis=1)

            Q = F.q
            while Q < c:
                Q *= F.q
            power, base = np.tile(Z.one, (c, 1)), np.eye(c, dtype=np.int16)
            while Q:
                if Q & 1:
                    power = times(power, base)
                base, Q = times(base, base), Q >> 1
            self._frobenius = power.T.copy()
        return self._frobenius


def _subgroup_key(h):
    return (h.order(), tuple(g.img for g in h.generators))


def _coset_of(cos, n):
    """Coset number of each element, from a cosets() index table."""
    out = np.empty(n, dtype=np.intp)
    out[cos] = np.arange(len(cos))[:, None]
    return out


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
        return bool(self.evec[self.ga.centralizer_support(q)].any())

    def defect_group(self):
        """A maximal p-subgroup with nonzero Brauer quotient (unique class):
        the first such representative of p_subgroups_up_to_conjugacy, on
        small generators.

        The two ends need no class search.  If Br_S(e) != 0 for the Sylow
        S, the defect group is S.  Otherwise, if e vanishes on every g with
        p | |C_G(g)| = |G|/|class of g|, which is the union of the C_G(Q)
        over Q of order p, then Br_Q(e) = 0 for every Q != 1 (it contains
        such a Q and centralizes less), and the defect group is trivial.
        Only a block strictly in between scans the classes."""
        if "defect" not in self._cache:
            ga, p = self.ga, self.ga.field.p
            sylow = ga.group.sylow_subgroup(p)
            class_of = ga.conjugacy_classes()[0]
            singular = (ga.n // np.bincount(class_of))[class_of] % p == 0
            if self.brauer_quotient_nonzero(sylow):
                best = sylow
            elif not self.evec[singular].any():
                best = ga.group.trivial_subgroup()
            else:  # the first class of largest order
                best = max(filter(self.brauer_quotient_nonzero,
                                  ga.group.p_subgroups_up_to_conjugacy(p)),
                           key=lambda q: q.order())
            self._cache["defect"] = best.with_small_generators()
        return self._cache["defect"]

    # -- fixed points under a p-group and the source idempotent --

    def fixed_point_algebra(self, p_sub):
        """B^P = e (kG)^P for a p-subgroup P, as (algebra, rows, pivots).

        Spanned by the P-conjugation orbit sums of the translates g*e, each
        translate added to its orbit's sum as the walk over G reaches it;
        the structure constants are read off pivot coordinates with one
        gathered matrix product per pivot.
        """
        key = _subgroup_key(p_sub)
        if key in self._fpa:
            return self._fpa[key]
        ga = self.ga
        F = ga.field
        orbit_of = orbit_labels([ga.conj_index(s) for s in p_sub.generators],
                                ga.n)
        sums = np.zeros((orbit_of.max() + 1, ga.n), dtype=np.int16)
        for elts, rows in ga._left_translates(self.evec):
            lab = orbit_of[elts]
            while len(lab):  # one round per repeat of an orbit in the layer
                u, first = np.unique(lab, return_index=True)
                sums[u] = F.add(sums[u], rows[first])
                lab, rows = np.delete(lab, first), np.delete(rows, first, 0)
        rows, piv = gfq.echelon(F, sums)
        d = rows.shape[0]
        mult = np.zeros((d, d, d), dtype=np.int16)
        for k, pk in enumerate(piv):
            Y = rows[:, ga.ldiv_index(pk)]  # Y[j, g] = r_j[g^-1 z_k]
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
        sup = ga.centralizer_support(p_sub)
        for f in alg.primitive_idempotents(seed=seed):
            vec = ga.field.matmul(f[None, :], rows)[0]
            if vec[sup].any():
                self._source[key] = vec
                return vec
        raise gfq.CertificateError("no source idempotent found")

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
        part = self.ga.group.sylow_subgroup(self.ga.field.p).order()
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
        # (i*x)[m] = sum_h x[h] i[m h^-1], and row h of R is i[m h^-1]
        R = np.empty((ga.n, ga.n), dtype=np.int16)
        for elts, maps in ga._right_quotients():
            R[elts] = ivec[maps]
        return gfq.echelon(F, F.matmul(rows, R))

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
        cent = self.ga.centralizer_support(p_sub)
        meet = np.isin(g.indices(p_sub.image_array()), cent).sum()
        return norm.order() * int(meet) == p_sub.order() * len(cent)

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
        cent = ga.centralizer_support(p_sub)
        small = GroupAlgebra(norm, ga.field)
        br = np.zeros(small.n, dtype=np.int16)
        br[small.group.indices(ga._eltarr[cent])] = self.evec[cent]
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
    sup = ga.centralizer_support(p_sub)
    mask = np.zeros(ga.n, dtype=bool)
    mask[sup] = True
    cent = ga.group._from_mask(mask).with_small_generators()
    out = np.zeros(ga.n, dtype=np.int16)
    out[sup] = x[sup]
    return cent, out
