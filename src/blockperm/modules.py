"""Modules over group algebras: decomposition, Loewy structure, reports.

A GModule is a representation of a PermGroup by matrices over GF(p^e), one
matrix per group generator.  Indecomposable decomposition goes through the
endomorphism algebra E = End(M): its primitive idempotents e cut out the
summands eM, and eM and fM are isomorphic exactly when e and f are
equivalent idempotents of E, a rank test on E's structure constants.
Those structure constants are read off the images of seeds that
generate M (r x d.s numbers for an r-dim E, a d-dim M and s seeds),
since a homomorphism is fixed by where it sends generators.

decompose(m) on a module with a permutation basis (k[G/H] from
GModule.permutation) gives each summand module the provenance (m, e), e
the summand's first certifying idempotent, a kG-endomorphism of m in the
permutation basis.  It is set on the fresh wrapper decompose returns,
never in the record store, and it changes no record key and no hom
route: vertexweight reads the summand's vertex off the Brauer quotients
of e.

hom_modules(m, n) takes one of three routes.  Out of k[G/H] from
GModule.permutation, Frobenius reciprocity gives Hom(k[G/H], n) = n^H,
and the basis is the maps of a basis of n^H.  Out of a certified
kG-summand of k[G/H] (m.ambient, recorded by
GroupAlgebra.coset_submodule: B tensor_kS k and the source permutation
module), the same maps restricted to m span Hom(m, n), and are put into
the basis meataxe.hom_space returns.  Out of anything else,
meataxe.hom_space spins m and solves for the images of its seeds.
When n is, or lies in, a permutation module k[G/K], Hom out of k[G/H]
runs no linear algebra: n^H of k[G/K] is spanned by the H-orbit sums,
and a map is a gather from one table of H-orbit labels that a single
walk of the coset tree of k[G/H] fills (coset_maps), the double-coset
view of the Hecke algebra (Curtis, Reiner, Methods of Representation
Theory I, 11D).  Into any other module n^H is a nullspace and the walk
takes one product per layer.

Each module question is answered once per module content.  decompose,
endomorphism_algebra, the composition factors behind
composition_factor_labels, the radical series behind loewy_layers and
socle_layers, is_isomorphic and vertexweight.vertex_certificate keep their
answers in a record store on the module's group, keyed by the question,
the field, the dim, the exact bytes of the action matrices, whatever else
the answer depends on (the seed; for k[G/H], the subgroup that sends
hom_modules down its fixed-point route) and, for is_isomorphic, the same
of the second module.  Keys are exact bytes, so equal keys mean equal
inputs.  A certified summand needs no route in its key: its hom basis
is byte-identical to the one hom_space gives on the same matrices, so a
summand and a plain module with its matrices share their records.  The
store lives and dies with its group.  It holds only plain data:
read-only arrays, ints, bools and subgroup representatives, which do
not refer to the group.  It never holds a GModule, which would refer back
to the group and leave a cycle that only a full garbage collection frees;
callers get fresh GModule, Summand and FinDimAlgebra wrappers around the
stored arrays.  A SimpleRegistry keeps its own labels by matrix bytes.
The module's composition factors are its only chop: the Loewy layers
are read off hom dimensions into them, and the socle layers off hom
dimensions into their transposes, so the registry meets the same
matrices again and labels them by their bytes.
"""

import numpy as np

from . import gfq
from . import meataxe
from .algebra import FinDimAlgebra
from .permgrp import orbit_labels


class GModule:
    def __init__(self, group, field, mats, name=None, tags=None, dim=None):
        self.group = group
        self.field = field
        # the gfq kernels take reduced codes; this is where they enter
        self.mats = [field.array(M) for M in mats]
        if len(self.mats) != len(group.generators):
            raise ValueError("%d matrices for %d generators" % (
                len(self.mats), len(group.generators)))
        if self.mats:
            self.dim = self.mats[0].shape[0]
        elif dim is None:
            raise ValueError("dim is required for generator-free groups")
        else:
            self.dim = dim
        for M in self.mats:
            if M.shape != (self.dim, self.dim):
                raise ValueError("matrix of shape %r in a %d-dim module" % (
                    M.shape, self.dim))
        self.name = name
        self.tags = tags
        self.induced_from = None   # subgroup H when self is k[G/H]
        self.coset_tree = None     # its layers, see _coset_tree
        # (k[G/H], rows, pivots) when self is a certified kG-summand of
        # k[G/H] with that RREF basis; see GroupAlgebra.coset_submodule
        self.ambient = None
        # (V, e) when self is the summand eV of a module V with a
        # permutation basis, e an idempotent of End(V); see decompose
        self.provenance = None
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
        imgs = [np.asarray(img, dtype=np.intp) for img in images]
        mats = []
        for img in imgs:
            M = np.zeros((n, n), dtype=np.int16)
            M[img, np.arange(n)] = 1
            mats.append(M)
        m = GModule(group, field, mats,
                    name="k[%s cosets]" % (subgroup.name or "H"),
                    tags=reps)
        m._perm_imgs = imgs
        m.induced_from = subgroup
        m.coset_tree = _coset_tree(images, n)
        return m

    @staticmethod
    def regular(group, field):
        return GModule.permutation(group, group.trivial_subgroup(), field)

    def rep_of(self, g):
        """Matrix of an arbitrary group element, via a generator word."""
        if g.img in self._repcache:
            return self._repcache[g.img]
        if self.tags is not None:
            M = np.zeros((self.dim, self.dim), dtype=np.int16)
            M[self.perm_image(g), np.arange(self.dim)] = 1
        else:
            M = np.eye(self.dim, dtype=np.int16)
            for s in self.group.generator_word(g):
                M = self.field.matmul(M, self.mats[s])
        self._repcache[g.img] = M
        return M

    def perm_images(self):
        """On a permutation basis: img[s][i] is the basis vector that
        generator s sends basis vector i to."""
        if not hasattr(self, "_perm_imgs"):
            self._perm_imgs = [np.argmax(M, axis=0) for M in self.mats]
        return self._perm_imgs

    def perm_image(self, g):
        """On a permutation basis: the basis vector that the group element
        g sends each basis vector to, the index maps of the generators
        composed along a generator word of g."""
        img = np.arange(self.dim)
        for s in reversed(self.group.generator_word(g)):
            img = self.perm_images()[s][img]
        return img

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
        return m

    def __repr__(self):
        return "GModule(dim=%d over %r, group %r)" % (
            self.dim, self.field, self.group)


def _coset_tree(images, n):
    """Breadth-first spanning tree of the n cosets from H (coset 0), as a
    list of layers (cosets, gens, parents): cosets[k] is generator
    gens[k] times the coset at position parents[k] of the layer before."""
    seen = {0}
    front = [0]
    layers = []
    while front:
        cosets, gens, parents = [], [], []
        for s, imgs in enumerate(images):
            for k, i in enumerate(front):
                j = imgs[i]
                if j not in seen:
                    seen.add(j)
                    cosets.append(j)
                    gens.append(s)
                    parents.append(k)
        if cosets:
            layers.append(tuple(np.array(x, dtype=np.intp)
                                for x in (cosets, gens, parents)))
        front = cosets
    if len(seen) != n:
        raise gfq.CertificateError("the coset tree misses a coset")
    return layers


def _route(m):
    """H's generators when hom_modules(m, -) takes the fixed-point route of
    a k[G/H] module, else None."""
    if m.induced_from is not None and m.tags is not None:
        return tuple(g.img for g in m.induced_from.generators)
    return None


def _mats_key(mats):
    return b"".join(M.tobytes() for M in mats)


def _frozen(x):
    """x as plain data: arrays become read-only copies, lists tuples."""
    if isinstance(x, np.ndarray):
        x = x.copy()
        x.flags.writeable = False
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_frozen(y) for y in x)
    return x


def _recall(m, kind, compute, *args):
    """The answer to question kind (with args) about m, from the record
    store of m's group; compute() gives it on the first ask."""
    key = (kind, m.field, m.dim, _route(m), _mats_key(m.mats)) + args
    store = m.group._records
    if key not in store:
        store[key] = _frozen(compute())
    return store[key]


# ---------------------------------------------------------------------------
# hom spaces and endomorphism algebras


def hom_modules(m, n, spin=None):
    """Basis of Hom_kG(m, n) as matrices X with X rho_m(g) = rho_n(g) X.
    spin, when given, is meataxe.greedy_spin(m.field, m.mats), made
    already by the caller.

    By Frobenius reciprocity Hom(k[G/H], n) is n^H: the map of an H-fixed
    vector u sends the coset gH to rho_n(g) u.  So when m is k[G/H] from
    GModule.permutation, the basis is the maps of a basis of n^H.  When m
    is a certified summand of k[G/H] (m.ambient, set by
    GroupAlgebra.coset_submodule), restriction from k[G/H] onto m is
    onto, so the same maps restricted to m span Hom(m, n); they are put
    into the basis meataxe.hom_space returns and certified to intertwine.
    Otherwise the spinning solver meataxe.hom_space runs on m.
    """
    F = m.field
    if F is not n.field or m.group is not n.group:
        raise ValueError("modules over different fields or groups")
    if m.induced_from is not None and m.tags is not None:
        return [X for stack in coset_maps(m, n, _fixed_vectors(
            m.induced_from, n)) for X in stack]
    if m.ambient is None:
        return meataxe.hom_space(F, m.mats, n.mats, spin)
    perm, rows, _piv = m.ambient
    U = _fixed_vectors(perm.induced_from, n)
    if not len(U):
        return []
    # restrict to m, whose basis vectors are the rows of rows in k[G/H]
    on_m = np.vstack([meataxe.matmul_rows(F, X.reshape(-1, perm.dim), rows.T)
                      for X in coset_maps(perm, n, U)])
    seeds = None if spin is None else meataxe.seed_columns(spin)
    basis = meataxe.hom_basis(F, m.mats,
                              on_m.reshape(len(U), n.dim, m.dim), seeds)
    meataxe.check_intertwines(F, basis, m.mats, n.mats)
    return list(basis)


def _fixed_vectors(h, n):
    """Row basis of the H-fixed vectors of n.

    On a permutation basis (n.tags) these are the indicator rows of the
    H-orbits, ordered by each orbit's largest point: the basis
    gfq.nullspace gives of the stacked (h - 1), in whose RREF the one free
    column of an orbit is its last point.  Each row is certified fixed by
    every generator of H.  Otherwise the basis is meataxe.fixed_points of
    H's generators."""
    if n.tags is None:
        hm = [n.rep_of(s) for s in h.generators]
        if not hm:
            return np.eye(n.dim, dtype=np.int16)
        return meataxe.fixed_points(n.field, hm)
    maps = [n.perm_image(s) for s in h.generators]
    label = orbit_labels(maps, n.dim)
    last = n.dim - 1 - np.unique(label[::-1], return_index=True)[1]
    by_last = np.argsort(last)
    U = (label[None, :] == by_last[:, None]).astype(np.int16)
    # (rho(g) u)[img[i]] = u[i]
    if any(not np.array_equal(U[:, img], U) for img in maps):
        raise gfq.CertificateError("an H-orbit row is not H-fixed")
    return U


def coset_maps(perm, n, U):
    """The kG-maps k[G/H] -> n sending the coset H to the H-fixed vectors
    in the rows of U: column j of a map is x_j u for the representative
    x_j of the j-th coset.  Returned in order as a list of (k, n.dim,
    perm.dim) stacks of about meataxe.CHUNK_ENTRIES entries, or of one
    map; only those stacks are allocated at full size.

    perm is a permutation module from GModule.permutation.  When n lies in
    a permutation module k[G/K] (a permutation basis, or a certified
    summand n.ambient), the lift of an H-fixed u to k[G/K] is constant on
    the H-orbits of its basis: it is C[:, label] for the H-orbit label of
    each point and C, the lift read at one point per orbit.  Then the lift
    of x_j u at y is C[:, L[y, j]] for the table L[y, j] of orbit labels
    of x_j^-1 y, read at n's pivots, and each stack is the one gather
    C[:, L].  One walk of the coset tree fills L.  The labels are
    certified constant along H's generators and the lift equal to
    C[:, label], so a u that is not H-fixed raises CertificateError.
    Otherwise the walk is one product with a generator's matrix per layer
    for all the maps of a stack."""
    F = perm.field
    U = np.asarray(U, dtype=np.int16)
    step = max(1, meataxe.CHUNK_ENTRIES // max(n.dim * perm.dim, 1))
    chunks = [slice(i, i + step) for i in range(0, len(U), step)]
    if n.tags is None and n.ambient is None:
        return _product_walk(perm, n, U, chunks)
    amb, rows, piv = (n, None, None) if n.tags is not None else n.ambient
    maps = [amb.perm_image(s) for s in perm.induced_from.generators]
    label = orbit_labels(maps, amb.dim)
    if any(not np.array_equal(label[img], label) for img in maps):
        raise gfq.CertificateError("orbit labels not constant on H-orbits")
    flat = U if rows is None else F.matmul(U, rows)
    C = flat[:, np.unique(label, return_index=True)[1]]
    if not np.array_equal(C[:, label], flat):
        raise gfq.CertificateError("a lifted vector is not H-fixed")
    L = _label_walk(perm, amb, label)
    if piv is not None:
        L = L[piv]
    return [np.take(C[c], L, axis=1) for c in chunks]


def _label_walk(perm, amb, label):
    """(amb.dim, perm.dim) table L of H-orbit labels: L[y, j] is
    label[x_j^-1 y] for the representative x_j of the j-th coset in the
    coset tree of perm.  (s x)^-1 y = x^-1 s^-1 y, so a child's column is
    its parent's read at s^-1 y."""
    sinv = np.array([np.argsort(img) for img in amb.perm_images()],
                    dtype=np.intp).reshape(-1, amb.dim)
    L = np.empty((amb.dim, perm.dim), dtype=np.intp)
    L[:, 0] = label
    prev = np.zeros(1, dtype=np.intp)
    for cosets, gens, parents in perm.coset_tree:
        L[:, cosets] = L[sinv[gens].T, prev[parents]]
        prev = cosets
    return L


def _product_walk(perm, n, U, chunks):
    """coset_maps into a module n without a permutation basis: layer by
    layer, x_j u = s (x_i u) for the tree edge from coset i by generator
    s, one product per generator and stack."""
    F = perm.field
    stacks = [np.empty((len(U[c]), n.dim, perm.dim), dtype=np.int16)
              for c in chunks]
    for c, X in zip(chunks, stacks):
        X[:, :, 0] = U[c]
    prev = np.zeros(1, dtype=np.intp)
    for cosets, gens, parents in perm.coset_tree:
        for s in np.unique(gens):
            src, dst = prev[parents[gens == s]], cosets[gens == s]
            for X in stacks:
                X[:, :, dst] = F.matmul(n.mats[s], X[:, :, src])
        prev = cosets
    return stacks


def endomorphism_algebra(m):
    """(algebra, basis_mats): End_kG(m) with structure constants on the
    basis hom_modules(m, m) returns.

    The unit vectors at a few seed columns generate m: coset 0 of k[G/H]
    (its coset tree reaches every coset), else the greedy seeds of
    meataxe.greedy_spin, the spin hom_modules uses too.  An endomorphism
    is fixed by its columns at the seeds, so the structure constants and
    the identity are read off those columns alone (_end_tables).
    """
    mult, one, basis = _recall(m, "end", lambda: _endomorphism_algebra(m))
    return FinDimAlgebra(m.field, mult, one), list(basis)


def _endomorphism_algebra(m):
    """endomorphism_algebra's answer as (mult, one, basis)."""
    if _route(m) is not None:
        spin, seeds = None, [0]
    else:
        spin = meataxe.greedy_spin(m.field, m.mats)
        seeds = meataxe.seed_columns(spin)
    basis = hom_modules(m, m, spin=spin)
    mult, one = _end_tables(m.field, m.dim, basis, seeds)
    return mult, one, basis


def _end_tables(F, d, basis, seeds):
    """(mult, one) of the algebra spanned by the kG-endomorphisms in basis
    of a d-dim module that the unit vectors at the columns seeds generate.

    u(X) = X[:, seeds] is one to one on End: a map that kills the seeds
    kills what they generate.  So with the RREF of the u(basis) rows, the
    coordinates of a product X_i X_j are those of u(X_i X_j) = X_i
    u(X_j), one product of X_i with all the u(X_j) side by side.  A
    product of endomorphisms is one, so u(X_i X_j) == coords . u(basis)
    means X_i X_j == coords . basis exactly; that check raises
    CertificateError, as does a basis that u does not keep independent
    (seeds that do not generate the module can show this way)."""
    r, s = len(basis), len(seeds)
    U = np.array([X[:, seeds] for X in basis], dtype=np.int16)
    U = U.reshape(r, d, s)
    R, piv, T = gfq.echelon(F, U.reshape(r, d * s), transform=True)
    if R.shape[0] != r:
        raise gfq.CertificateError("hom basis not independent at the seeds")

    def coords(rows):
        cr = rows[:, piv]
        if not np.array_equal(F.matmul(cr, R), rows):
            raise gfq.CertificateError("product left the algebra")
        return F.matmul(cr, T)

    side = U.transpose(1, 0, 2).reshape(d, r * s)
    mult = np.zeros((r, r, r), dtype=np.int16)
    for i, X in enumerate(basis):
        # row j, column (a, t) is (X_i X_j)[a, seeds[t]]
        prods = F.matmul(X, side).reshape(d, r, s).transpose(1, 0, 2)
        mult[i] = coords(prods.reshape(r, d * s))
    one = coords(np.eye(d, dtype=np.int16)[:, seeds].reshape(1, d * s))[0]
    return mult, one


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
    of the primitive idempotents of End(m).  When m has a permutation
    basis, each summand module carries (m, e) as its provenance, e its
    first certifying idempotent (see vertexweight)."""
    record = _recall(m, "decompose", lambda: [
        (x.module.mats, x.multiplicity, x.embeddings, x.idempotents)
        for x in _decompose(m, seed)], seed)
    out = []
    for mats, mult, emb, idems in record:
        sub = GModule(m.group, m.field, mats, dim=emb[0].shape[0])
        if m.tags is not None:
            sub.provenance = (m, idems[0])
        out.append(Summand(sub, mult, list(emb), list(idems)))
    return out


def _decompose(m, seed):
    """decompose without the record store."""
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
    groups, firsts = [], []   # firsts: the idempotent in E of each group
    for (sub, rows, X), f in zip(pieces, prims):
        for g, e in zip(groups, firsts):
            if g.module.dim == sub.dim and alg.equivalent_idempotents(e, f):
                g.multiplicity += 1
                g.embeddings.append(rows)
                g.idempotents.append(X)
                break
        else:
            groups.append(Summand(sub, 1, [rows], [X]))
            firsts.append(f)
    groups.sort(key=lambda g: (g.module.dim, -g.multiplicity))
    return groups


def is_isomorphic(m, n, seed=0):
    """Module isomorphism via full decompositions (works for decomposables)."""
    if m.dim != n.dim:
        return False
    if m.group is not n.group or m.field is not n.field:
        return _is_isomorphic(m, n, seed)
    return _recall(m, "iso", lambda: _is_isomorphic(m, n, seed), seed,
                   _route(n), _mats_key(n.mats))


def _is_isomorphic(m, n, seed):
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
        # label by matrix bytes: entries only grow, so equal matrices get
        # the label they got first
        self._labels = {}

    def label(self, mats):
        d = meataxe.module_dim(mats)
        key = (d, _mats_key(mats))
        if key not in self._labels:
            self._labels[key] = self._find_label(mats, d)
        return self._labels[key]

    def _find_label(self, mats, d):
        same_dim = 0
        for known, lab in self.entries:
            if meataxe.module_dim(known) == d:
                if meataxe.is_isomorphic_simple(self.field, known, mats):
                    return lab
                same_dim += 1
        lab = "%d%s" % (d, chr(ord("a") + same_dim))
        self.entries.append((mats, lab))
        return lab


def _factors(m, seed):
    """composition_factors of m."""
    return _recall(m, "factors", lambda: meataxe.composition_factors(
        m.field, m.mats, seed), seed)


def _radical_layers(m, seed, transposed=False):
    """The layers of radical_series of m's matrices, or of their
    transposes, on the simples of _factors(m, seed) or their transposes.

    The transposes need no chop of their own.  A composition series
    0 = M_0 < M_1 < ... < M_r = M gives the annihilators M_i^perp, a
    composition series for the transposed matrices whose factors
    M_(i-1)^perp / M_i^perp are the transposes of the M_i / M_(i-1).
    Nor do they need their own End dims: End(S^T) is End(S)^op."""
    def compute():
        simples = [s for s, _ in _factors(m, seed)]
        mats = m.mats
        if transposed:
            mats = [M.T for M in mats]
            simples = [[S.T.copy() for S in s] for s in simples]
        return meataxe.radical_series(m.field, mats, seed, simples,
                                      _end_dims(m, seed))[0]
    return _recall(m, "socle" if transposed else "layers", compute, seed)


def _end_dims(m, seed):
    """dim End(S) for the simples S of _factors(m, seed)."""
    return _recall(m, "end-dims", lambda: [
        len(meataxe.hom_space(m.field, s, s)) for s, _ in _factors(m, seed)],
        seed)


def loewy_layers(m, registry=None, seed=0):
    """Radical layers of m as sorted lists of simple labels (with repeats)."""
    registry = registry or SimpleRegistry(m.field)
    out = []
    for layer in _radical_layers(m, seed):
        labs = []
        for s, mult in layer:
            labs.extend([registry.label(s)] * mult)
        out.append(sorted(labs))
    return out


def socle_layers(m, registry=None, seed=0):
    """Socle series layers, top first: the radical series of the
    transposed matrices, read backwards.  Its simples are the transposes
    of m's composition factors, and each is labelled by the factor it is
    the transpose of."""
    registry = registry or SimpleRegistry(m.field)
    out = []
    for layer in _radical_layers(m, seed, transposed=True):
        labs = []
        for s, mult in layer:
            labs.extend([registry.label([M.T.copy() for M in s])] * mult)
        out.append(sorted(labs))
    return out[::-1]


def composition_factor_labels(m, registry=None, seed=0):
    registry = registry or SimpleRegistry(m.field)
    out = {}
    for s, mult in _factors(m, seed):
        out[registry.label(s)] = mult
    return out


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
