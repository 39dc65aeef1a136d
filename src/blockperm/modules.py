"""Modules over group algebras: decomposition, Loewy structure, reports.

A GModule is a representation of a PermGroup by matrices over GF(p^e), one
matrix per group generator.  Indecomposable decomposition goes through the
endomorphism algebra: its primitive idempotents cut out the summands, and
Krull-Schmidt grouping uses the invertible-product test between hom spaces,
which is exact for indecomposables because their endomorphism rings are
local.
"""

import numpy as np

from . import gfq
from . import meataxe
from .algebra import FinDimAlgebra
from .permgrp import Perm


class GModule:
    def __init__(self, group, field, mats, name=None, tags=None, dim=None):
        self.group = group
        self.field = field
        # the gfq kernels take reduced codes; this is where they enter
        self.mats = [field.array(M) for M in mats]
        if len(self.mats) != len(group.generators):
            raise gfq.CertificateError("%d matrices for %d generators" % (
                len(self.mats), len(group.generators)))
        if self.mats:
            self.dim = self.mats[0].shape[0]
        elif dim is None:
            raise gfq.CertificateError(
                "dim is required for generator-free groups")
        else:
            self.dim = dim
        for M in self.mats:
            if M.shape != (self.dim, self.dim):
                raise gfq.CertificateError("matrix of shape %r in a %d-dim "
                                           "module" % (M.shape, self.dim))
        self.name = name
        self.tags = tags
        self.induced_from = None   # subgroup H when self is k[G/H]
        self.coset_tree = None     # (reps, parent edges) for that case
        self._repcache = {}

    @staticmethod
    def trivial(group, field):
        one = np.eye(1, dtype=np.int16)
        m = GModule(group, field, [one.copy() for _ in group.generators],
                    name="k", dim=1)
        return m

    @staticmethod
    def permutation(group, subgroup, field):
        """k[G/H] on the left cosets of H."""
        reps, images = group.coset_action(subgroup)
        n = len(reps)
        mats = []
        for imgs in images:
            M = np.zeros((n, n), dtype=np.int16)
            for i, j in enumerate(imgs):
                M[j, i] = 1
            mats.append(M)
        m = GModule(group, field, mats,
                    name="k[%s cosets]" % (subgroup.name or "H"),
                    tags=reps)
        m.induced_from = subgroup
        # spanning tree: edges (gen, parent) discovered in BFS order
        parent = {0: None}
        order = [0]
        qi = 0
        while qi < len(order):
            i = order[qi]
            qi += 1
            for s, imgs in enumerate(images):
                j = imgs[i]
                if j not in parent:
                    parent[j] = (s, i)
                    order.append(j)
        m.coset_tree = (reps, parent, order)
        return m

    @staticmethod
    def regular(group, field):
        return GModule.permutation(group, group.trivial_subgroup(), field)

    def rep_of(self, g):
        """Matrix of an arbitrary group element, via a generator word."""
        if g.img in self._repcache:
            return self._repcache[g.img]
        word = _generator_word(self.group, g)
        if self.tags is not None:
            # permutation basis: compose index maps instead of matrices
            img = np.arange(self.dim)
            for s in reversed(word):
                img = self.perm_images()[s][img]
            M = np.zeros((self.dim, self.dim), dtype=np.int16)
            M[img, np.arange(self.dim)] = 1
        else:
            M = np.eye(self.dim, dtype=np.int16)
            for s in word:
                M = self.field.matmul(M, self.mats[s])
        self._repcache[g.img] = M
        return M

    def perm_images(self):
        """On a permutation basis: img[s][i] is the basis vector that
        generator s sends basis vector i to."""
        if not hasattr(self, "_perm_imgs"):
            self._perm_imgs = [np.argmax(M, axis=0) for M in self.mats]
        return self._perm_imgs

    def dual(self):
        mats = [gfq.inverse(self.field, M).T.copy() for M in self.mats]
        return GModule(self.group, self.field, mats,
                       name="(%s)*" % (self.name or "M"))

    def direct_sum(self, other):
        n1, n2 = self.dim, other.dim
        mats = []
        for A, B in zip(self.mats, other.mats):
            M = np.zeros((n1 + n2, n1 + n2), dtype=np.int16)
            M[:n1, :n1] = A
            M[n1:, n1:] = B
            mats.append(M)
        return GModule(self.group, self.field, mats)

    def induce(self, big):
        """Ind_H^G for self over H <= big."""
        h = self.group
        reps, images = big.coset_action(h)
        r = len(reps)
        d = self.dim
        mats = []
        for s, gen in enumerate(big.generators):
            M = np.zeros((r * d, r * d), dtype=np.int16)
            for a in range(r):
                b = images[s][a]
                helt = reps[b].inv() * gen * reps[a]
                if helt not in h:
                    raise gfq.CertificateError("coset action left H")
                M[b * d:(b + 1) * d, a * d:(a + 1) * d] = self.rep_of(helt)
            mats.append(M)
        m = GModule(big, self.field, mats,
                    name="ind(%s)" % (self.name or "M"))
        m.induced_from = h
        m._ind_data = (self, reps, images)
        return m

    def __repr__(self):
        return "GModule(dim=%d over %r, group %r)" % (
            self.dim, self.field, self.group)


def _generator_word(group, g):
    """g as a product of generators, leftmost applied last."""
    if not hasattr(group, "_wordcache"):
        group._wordcache = None
    if group._wordcache is None:
        words = {Perm.identity(group.degree).img: ()}
        frontier = [Perm.identity(group.degree)]
        while frontier:
            nxt = []
            for x in frontier:
                for s, gen in enumerate(group.generators):
                    y = gen * x
                    if y.img not in words:
                        words[y.img] = (s,) + words[x.img]
                        nxt.append(y)
            frontier = nxt
        group._wordcache = words
    return group._wordcache[g.img]


# ---------------------------------------------------------------------------
# hom spaces and endomorphism algebras


def hom_modules(m, n):
    """Basis of Hom_kG(m, n) as matrices X with X rho_m(g) = rho_n(g) X.

    For m = k[G/H] this uses the fixed-point description: intertwiners
    correspond to H-fixed vectors of n, with X sending the coset gH to
    rho_n(g)u.  Otherwise the spinning solver runs on the source module.
    """
    F = m.field
    if F is not n.field or m.group is not n.group:
        raise gfq.CertificateError("modules over different fields or groups")
    if m.induced_from is not None and m.tags is not None:
        h = m.induced_from
        hm = [n.rep_of(s) for s in h.generators]
        fixed = meataxe.fixed_points(F, hm) if hm else \
            np.eye(n.dim, dtype=np.int16)
        return [coset_map(m, n, u) for u in fixed]
    return meataxe.hom_space(F, m.mats, n.mats)


def coset_map(m, n, u):
    """The kG-map k[G/H] -> n sending the coset H to the H-fixed vector u.

    m is a permutation module from GModule.permutation; column j of the
    result is g u for any g in the j-th coset, filled along m's coset tree.
    """
    F = m.field
    X = np.zeros((n.dim, m.dim), dtype=np.int16)
    X[:, 0] = u
    _reps, parent, order = m.coset_tree
    for j in order[1:]:
        s, par = parent[j]
        if n.tags is not None:  # permutation basis: M v only moves entries
            X[n.perm_images()[s], j] = X[:, par]
        else:
            X[:, j] = F.matmul(n.mats[s], X[:, par][:, None])[:, 0]
    return X


def endomorphism_algebra(m):
    """(algebra, basis_mats): End_kG(m) with structure constants on the
    computed hom basis.

    Row i of the table comes from one product basis[i] @ [basis_0 ...
    basis_{r-1}]; the coordinates of all r products, and the certificate
    that each lies in the span of the basis, are read off the RREF of the
    flattened basis at once.
    """
    F = m.field
    basis = hom_modules(m, m)
    r = len(basis)
    d = m.dim
    flat = np.array(basis, dtype=np.int16).reshape(r, d * d)
    R, piv, T = gfq.echelon(F, flat, transform=True)
    if R.shape[0] != r:
        raise gfq.CertificateError("hom basis not independent")

    def coords(prods):
        # rows of prods are flattened matrices; R is the identity on piv
        cr = prods[:, piv]
        if not np.array_equal(F.matmul(cr, R), prods):
            raise gfq.CertificateError("product left the algebra")
        return F.matmul(cr, T)

    side = np.hstack(basis)
    mult = np.zeros((r, r, r), dtype=np.int16)
    for i in range(r):
        prods = F.matmul(basis[i], side).reshape(d, r, d)
        mult[i] = coords(prods.transpose(1, 0, 2).reshape(r, d * d))
    one = coords(np.eye(d, dtype=np.int16).reshape(1, d * d))[0]
    alg = FinDimAlgebra(F, mult, one)
    return alg, basis


class Summand:
    """One isomorphism class of indecomposable summands of a module."""

    def __init__(self, module, multiplicity, embeddings, idempotents):
        self.module = module
        self.multiplicity = multiplicity
        self.embeddings = embeddings      # row bases inside the parent
        self.idempotents = idempotents    # certifying idempotent endos

    def __repr__(self):
        return "Summand(dim=%d, mult=%d)" % (self.module.dim,
                                             self.multiplicity)


def decompose(m, seed=0):
    """Indecomposable direct summands of m, grouped by isomorphism.

    Returns a list of Summand objects; certifying idempotents are the images
    of the primitive idempotents of End(m)."""
    F = m.field
    if m.dim == 0:
        return []
    alg, basis = endomorphism_algebra(m)
    prims = alg.primitive_idempotents(seed=seed)
    d = m.dim
    flat = np.array(basis, dtype=np.int16).reshape(len(basis), d * d)
    idems = meataxe.matmul_rows(F, np.array(prims, dtype=np.int16),
                                flat).reshape(-1, d, d)
    pieces = []
    for X in idems:
        if not np.array_equal(F.matmul(X, X), X):
            raise gfq.CertificateError("primitive idempotent is not one")
        rows, piv = gfq.echelon(F, X.T)
        mats = meataxe.restrict_to_submodule(F, m.mats, rows, piv)
        sub = GModule(m.group, F, mats)
        pieces.append((sub, rows, X))
    total = sum(p[0].dim for p in pieces)
    if total != m.dim:
        raise gfq.CertificateError("summands of dims adding to %d in a "
                                   "%d-dim module" % (total, m.dim))
    groups = []
    for sub, rows, X in pieces:
        placed = False
        for g in groups:
            if g.module.dim == sub.dim and meataxe.iso_of_indecomposables(
                    F, g.module.mats, sub.mats) is not None:
                g.multiplicity += 1
                g.embeddings.append(rows)
                g.idempotents.append(X)
                placed = True
                break
        if not placed:
            groups.append(Summand(sub, 1, [rows], [X]))
    groups.sort(key=lambda g: (g.module.dim, -g.multiplicity))
    return groups


def is_isomorphic(m, n, seed=0):
    """Module isomorphism via full decompositions (works for decomposables)."""
    if m.dim != n.dim:
        return False
    dm = decompose(m, seed)
    dn = decompose(n, seed)
    if len(dm) != len(dn):
        return False
    used = [False] * len(dn)
    for a in dm:
        hit = False
        for i, b in enumerate(dn):
            if used[i] or a.multiplicity != b.multiplicity or \
                    a.module.dim != b.module.dim:
                continue
            if meataxe.iso_of_indecomposables(m.field, a.module.mats,
                                              b.module.mats) is not None:
                used[i] = True
                hit = True
                break
        if not hit:
            return False
    return True


# ---------------------------------------------------------------------------
# simples, Loewy structure, projectivity


class SimpleRegistry:
    """Stable labels for simple modules discovered during a run.

    Labels are dim followed by a letter in discovery order: 1a, 5a, 5b, ...
    """

    def __init__(self, field):
        self.field = field
        self.entries = []  # (mats, label)

    def label(self, mats):
        d = meataxe.module_dim(mats)
        same_dim = 0
        for known, lab in self.entries:
            if meataxe.module_dim(known) == d:
                if meataxe.is_isomorphic_simple(self.field, known, mats):
                    return lab
                same_dim += 1
        lab = "%d%s" % (d, chr(ord("a") + same_dim))
        self.entries.append((mats, lab))
        return lab


def loewy_layers(m, registry=None, seed=0):
    """Radical layers of m as sorted lists of simple labels (with repeats)."""
    registry = registry or SimpleRegistry(m.field)
    layers, _chain = meataxe.radical_series(m.field, m.mats, seed=seed)
    out = []
    for layer in layers:
        labs = []
        for s, mult in layer:
            labs.extend([registry.label(s)] * mult)
        out.append(sorted(labs))
    return out


def socle_layers(m, registry=None, seed=0):
    """Socle series layers, via the radical series of the dual: the labels
    are of the dual simples' duals, computed directly on duals."""
    registry = registry or SimpleRegistry(m.field)
    layers, _ = meataxe.radical_series(m.field,
                                       [M.T for M in m.mats], seed=seed)
    out = []
    for layer in layers:
        labs = []
        for s, mult in layer:
            labs.extend([registry.label([M.T.copy() for M in s])] * mult)
        out.append(sorted(labs))
    return out[::-1]


def composition_factor_labels(m, registry=None, seed=0):
    registry = registry or SimpleRegistry(m.field)
    out = {}
    for s, mult in meataxe.composition_factors(m.field, m.mats, seed=seed):
        out[registry.label(s)] = mult
    return out


def meataxe_split(m, seed=0):
    """One MeatAxe step on m.

    Returns ('irreducible', None) with a Norton-style certificate behind
    it, or ('split', basis) where basis rows span a proper nonzero
    submodule."""
    rng = np.random.default_rng(seed)
    verdict, basis, _piv = meataxe.split_once(m.field, m.mats, rng)
    return verdict, basis


def radical_socle_series(m, registry=None, seed=0):
    """Both filtration descriptions at once: {'radical_layers', 'socle_layers'}
    as lists of sorted simple-label lists, sharing one label registry."""
    registry = registry or SimpleRegistry(m.field)
    return {
        "radical_layers": loewy_layers(m, registry, seed),
        "socle_layers": socle_layers(m, registry, seed),
    }


def is_projective(m):
    """Projectivity via freeness over a Sylow p-subgroup.

    Over the local algebra kS the module is projective iff free, iff
    dim M equals |S| times the dimension of M / rad(kS)M.
    """
    F = m.field
    p = F.p
    if m.group.order() % p:
        return True
    s = m.group.sylow_subgroup(p)
    mats = [m.rep_of(x) for x in s.generators]
    stacked = np.vstack([F.sub(M, np.eye(m.dim, dtype=np.int16))
                         for M in mats])
    top = m.dim - gfq.rank(F, stacked)
    if m.dim > top * s.order():
        raise gfq.CertificateError("dim M > |S| dim M/rad(kS)M")
    return m.dim == top * s.order()


# ---------------------------------------------------------------------------
# reports


def decomposition_report(m, seed=0, with_vertex=True, registry=None):
    """JSON-ready description of the indecomposable summands of m.

    One entry per isomorphism class with its dimension, multiplicity, Loewy
    layers by simple labels, projectivity flag, and (optionally) vertex
    order.  Entries are sorted by (dim, loewy layers)."""
    registry = registry or SimpleRegistry(m.field)
    entries = []
    for summand in decompose(m, seed):
        entry = {
            "dim": summand.module.dim,
            "multiplicity": summand.multiplicity,
            "loewy_layers": loewy_layers(summand.module, registry, seed),
            "is_projective": bool(is_projective(summand.module)),
        }
        if with_vertex:
            from . import vertexweight
            v = vertexweight.vertex(summand.module)
            entry["vertex_order"] = v.order()
        entries.append(entry)
    entries.sort(key=lambda e: (e["dim"], e["loewy_layers"]))
    return {"dim": m.dim, "field": m.field.name, "summands": entries}
