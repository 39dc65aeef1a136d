"""Relative projectivity, vertices, weights and Green correspondence.

The vertex of an indecomposable module M is decided by one of two
criteria.

* Brauer quotients, for a summand M = eV of a module V with a permutation
  basis (the provenance (V, e) that modules.decompose sets on the
  summands of k[G/H]).  M is then a p-permutation module, and M(Q) != 0
  exactly when Q is subconjugate to the vertex (Broue, On Scott modules
  and p-permutation modules, Proc. AMS 93, 1985; Thevenaz, G-Algebras
  and Modular Representation Theory, section 27).  M(Q) is the image of
  Br_Q(e) on V(Q), and in the permutation basis Br_Q(e) is e restricted
  to the basis points that Q fixes.  So the vertex is the first class,
  scanning from the largest down, on which that restriction is nonzero.
* Higman's criterion, for every other module (Green correspondents,
  GModule.trivial): M is projective relative to a subgroup Q exactly when
  the identity endomorphism lies in the image of the relative trace map
  Tr^G_Q on End_kQ(M).  The trace is evaluated through the chain
  Q <= N_G(Q) <= G so transversals stay short, and the vertex is the
  first class, scanning from the smallest up, relative to which M is
  projective.

Both scans return the same class representative of
PermGroup.p_subgroups_up_to_conjugacy: the class of the vertex.
"""

import numpy as np

from . import gfq
from . import meataxe
from . import modules
from .blocks import GroupAlgebra
from .modules import GModule
from .permgrp import Perm, PermGroup


def _coset_transversal(big, sub):
    reps, _images = big.coset_action(sub)
    return reps


def relative_trace_span(m, q):
    """Row space (flattened) of Tr^G_Q(End_kQ(M))."""
    F = m.field
    g = m.group
    qmats = [m.rep_of(x) for x in q.generators]
    if not qmats:
        # End over the trivial subgroup is all matrices; projectivity is
        # decided by the cheaper freeness test instead
        raise ValueError("use modules.is_projective for the trivial subgroup")
    endo = meataxe.hom_space(F, qmats, qmats)
    chain = [q]
    n = g.normalizer(q).with_small_generators()
    if n.order() > q.order() and n.order() < g.order():
        chain.append(n)
    chain.append(g)
    d = m.dim
    span = endo
    for lower, upper in zip(chain, chain[1:]):
        reps = _coset_transversal(upper, lower)
        T = len(reps)
        # sum_t R_t X R_t^-1 = [R_1 ... R_T] @ vstack_t(X R_t^-1), for a
        # chunk of span elements X at a time
        Rcat = np.hstack([m.rep_of(t) for t in reps])
        Rincat = np.hstack([m.rep_of(t.inv()) for t in reps])
        step = max(1, meataxe.CHUNK_ENTRIES // (T * d * d))
        traced = [np.zeros((0, d * d), dtype=np.int16)]
        for i in range(0, len(span), step):
            X = np.array(span[i:i + step], dtype=np.int16)
            Y = F.matmul(X.reshape(-1, d), Rincat).reshape(-1, d, T, d)
            Y = Y.transpose(0, 2, 1, 3).reshape(-1, T * d, d)
            traced.append(F.matmul(Rcat, Y).reshape(-1, d * d))
        R, piv = gfq.echelon(F, np.vstack(traced))
        span = [R[i].reshape(d, d) for i in range(R.shape[0])]
    return span


def is_relatively_projective(m, q):
    """Higman's criterion for projectivity of m relative to q <= G."""
    F = m.field
    p = F.p
    if m.group.order() % p:
        return True
    if q.order() % p ** _p_valuation(m.group.order(), p) == 0:
        return True  # q contains a Sylow subgroup
    if q.order() == 1:
        return modules.is_projective(m)
    span = relative_trace_span(m, q)
    ident = np.eye(m.dim, dtype=np.int16).reshape(1, -1)
    if not span:
        return False
    flat = np.vstack([X.reshape(1, -1) for X in span])
    return gfq.rank(F, np.vstack([flat, ident])) == flat.shape[0]


def _p_valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class VertexCertificate:
    """A vertex along with the verdicts that led to it, one (subgroup
    order, verdict) per tested subgroup class, and the route that decided
    them.  On route "higman" a verdict says whether the module is
    projective relative to the class (classes tested from the smallest
    up); on route "brauer" it says whether the Brauer construction M(Q)
    is nonzero (classes tested from the largest down)."""

    def __init__(self, module, vertex, witnesses, route):
        self.module = module
        self.vertex = vertex
        self.witnesses = witnesses
        self.route = route

    def __repr__(self):
        return "VertexCertificate(|Q|=%d, %s)" % (self.vertex.order(),
                                                  self.route)


def vertex_certificate(m):
    """Vertex of m with the tested-class record.

    Only meaningful for indecomposable m, where the vertex is unique up to
    conjugacy.  A summand of a permutation module with its provenance
    takes the Brauer route, any other module Higman's (module docstring).
    The answer is kept in the record store of m's group (see modules),
    keyed by m's matrices and not by its provenance: a plain module with
    the same matrices is the same module, its vertex class depends only
    on the module, and both routes return that class's representative,
    so sharing the record is sound.
    """
    q, witnesses, route = modules._recall(m, "vertex", lambda: _vertex(m))
    return VertexCertificate(m, q, list(witnesses), route)


def _vertex(m):
    """vertex_certificate's answer as (vertex, witnesses, route)."""
    if m.provenance is not None:
        return _brauer_vertex(m) + ("brauer",)
    return _higman_vertex(m) + ("higman",)


def _higman_vertex(m):
    """(vertex, witnesses) by Higman's criterion, classes ascending."""
    g = m.group
    p = m.field.p
    classes = g.p_subgroups_up_to_conjugacy(p)
    witnesses = []
    if g.order() % p or modules.is_projective(m):
        witnesses.append((1, True))
        return classes[0], witnesses
    witnesses.append((1, False))
    for q in classes[1:]:
        ok = is_relatively_projective(m, q)
        witnesses.append((q.order(), ok))
        if ok:
            return q, witnesses
    raise gfq.CertificateError("no vertex found; Sylow should always work")


def _brauer_vertex(m):
    """(vertex, witnesses) of m = eV from the Brauer quotients of e,
    classes descending.

    e must be an idempotent kG-endomorphism of V; both are checked.  The
    scan stops at the first class Q with Br_Q(e) != 0, so Br_R(e) = 0 on
    every class R tested before it; the trivial class is last, and
    Br_1(e) = e is nonzero."""
    V, e = m.provenance
    F = m.field
    if not np.array_equal(F.matmul(e, e), e):
        raise gfq.CertificateError("provenance idempotent is not one")
    for img in V.perm_images():
        # (e P_s)[:, j] = e[:, img[j]] and (P_s e)[img[i], :] = e[i, :]
        if not np.array_equal(e[:, img], e[np.argsort(img)]):
            raise gfq.CertificateError("provenance idempotent is not a "
                                       "kG-endomorphism")
    witnesses = []
    for q in reversed(m.group.p_subgroups_up_to_conjugacy(F.p)):
        fixed = fixed_basis_points(V, q)
        hit = bool(e[np.ix_(fixed, fixed)].any())
        witnesses.append((q.order(), hit))
        if hit:
            return q, witnesses
    raise gfq.CertificateError("Br_Q(e) vanishes on every p-subgroup class")


def fixed_basis_points(v, q):
    """The basis points of a module with a permutation basis that every
    element of q fixes, ascending."""
    fixed = np.ones(v.dim, dtype=bool)
    for u in q.generators:
        fixed &= v.perm_image(u) == np.arange(v.dim)
    return np.flatnonzero(fixed)


def vertex(m):
    """A vertex of m, as one of the group's p-subgroup class
    representatives."""
    return vertex_certificate(m).vertex


def green_correspondent(x, big, q, seed=0):
    """The Green correspondent in big of a module x over N_big(Q) with
    vertex Q: the unique summand of the induced module with vertex Q."""
    ind = x.induce(big)
    hits = []
    for s in modules.decompose(ind, seed):
        v = vertex(s.module)
        if v.order() == q.order() and big.are_conjugate_subgroups(v, q):
            hits.append(s)
    if len(hits) != 1 or hits[0].multiplicity != 1:
        raise gfq.CertificateError("Green correspondent not unique")
    return hits[0].module


class Weight:
    """A weight: a p-subgroup Q together with a projective simple module of
    k[N_G(Q)/Q], carried as its inflation to N_G(Q).  The weights of one Q
    share one group algebra k[N_G(Q)], whose blocks block_of_weight reads."""

    def __init__(self, q, normalizer_algebra, module, simple_dim):
        self.q = q
        self.normalizer_algebra = normalizer_algebra
        self.normalizer = normalizer_algebra.group
        self.module = module          # GModule over the normalizer
        self.simple_dim = simple_dim

    def __repr__(self):
        return "Weight(|Q|=%d, dim=%d)" % (self.q.order(), self.simple_dim)


def weights(group, field, seed=0):
    """All weights of the group with Q nontrivial, one per class of pairs.

    Weights with trivial Q correspond exactly to the defect-zero blocks and
    belong to those blocks, so they never contribute to a positive-defect
    block count and are listed separately by defect_zero_weight_count.
    """
    out = []
    for q in group.p_subgroups_up_to_conjugacy(field.p)[1:]:
        n = group.normalizer(q).with_small_generators()
        found = _weight_modules(n, q, field, seed)
        if found:
            gan = GroupAlgebra(n, field)
            out.extend(Weight(q, gan, m, dim) for m, dim in found)
    return out


def _weight_modules(n, q, field, seed):
    """(inflated module, simple dim) per projective simple of k[N/Q]."""
    reps, images = n.coset_action(q)
    if len(reps) == 1:
        # Q is self-normalizing: k[N/Q] = k and the trivial module is the
        # unique (projective simple) weight module
        one = np.eye(1, dtype=np.int16)
        return [(GModule(n, field, [one] * len(n.generators),
                         name="weight module"), 1)]
    out = []
    wgens = [Perm(images[s]) for s in range(len(n.generators))]
    wgroup = PermGroup(len(reps), wgens)
    gaw = GroupAlgebra(wgroup, field)
    for c in gaw.blocks(seed=seed):
        if c.defect_group().order() != 1:
            continue
        block_mod = c.block_sylow_module(wgroup.sylow_subgroup(field.p))
        facs = meataxe.composition_factors(field, block_mod.mats, seed=seed)
        if len(facs) != 1:
            raise gfq.CertificateError("inhomogeneous defect 0 block")
        simple_mats, _mult = facs[0]
        # the block module's matrices follow wgroup's (possibly reduced)
        # generator list; inflate generator by generator so the module
        # lines up with n's generators even when some map to the identity
        # of N/Q
        wmod = GModule(wgroup, field, simple_mats)
        inflated = GModule(n, field, [wmod.rep_of(w) for w in wgens],
                           name="weight module")
        out.append((inflated, meataxe.module_dim(simple_mats)))
    return out


def defect_zero_weight_count(ga, seed=0):
    """Number of weights with trivial Q: the defect-zero blocks of kG."""
    return sum(1 for b in ga.blocks(seed=seed)
               if b.defect_group().order() == 1)


def block_of_weight(ga, weight, seed=0):
    """The block of kG a weight belongs to.

    The inflated simple lies in a block c of k[N_G(Q)]; the weight belongs
    to the block of G whose central character agrees with the transport of
    c's central character through the Brauer homomorphism (truncation of
    each G-class sum to its C_G(Q)-supported part).
    """
    F = ga.field
    q = weight.q
    gan = weight.normalizer_algebra
    # locate the kN-block acting as identity on the weight module
    target = None
    for c in gan.blocks(seed=seed):
        act = np.zeros((weight.module.dim,) * 2, dtype=np.int16)
        for g in np.nonzero(c.evec)[0]:
            R = weight.module.rep_of(gan.elems[int(g)])
            act = F.add(act, F.mul(np.int16(c.evec[g]), R))
        if target is None and np.array_equal(
                act, np.eye(weight.module.dim, dtype=np.int16)):
            target = c
        elif act.any():
            raise gfq.CertificateError("a block of N acts on the weight "
                                       "neither as 0 nor as the only 1")
    if target is None:
        raise gfq.CertificateError("no block of N acts as 1 on the weight")
    lam_small = gan.central_character(target.coords)
    class_of_n, _lists_n = gan.conjugacy_classes()
    cent = ga.centralizer_support(q)
    cent_in_n = gan.group.indices(ga.group.image_array()[cent])
    # transported character on the big classes
    class_of, lists = ga.conjugacy_classes()
    class_in_g = class_of[cent]
    lam = []
    for a in range(len(lists)):
        val = 0
        seen_nclasses = np.bincount(class_of_n[cent_in_n[class_in_g == a]],
                                    minlength=len(_lists_n))
        # the truncation is a 0/1 combination of N-class sums
        for nc in np.nonzero(seen_nclasses)[0]:
            if seen_nclasses[nc] != len(_lists_n[nc]):
                raise gfq.CertificateError("class sum not N-stable")
            val = int(F.add(val, lam_small[int(nc)]))
        lam.append(val)
    lam = tuple(lam)
    hits = [b for b in ga.blocks(seed=seed) if b.central_character() == lam]
    if len(hits) != 1:
        raise gfq.CertificateError("weight matches %d blocks" % len(hits))
    return hits[0]


def weight_count_for_block(ga, block, seed=0):
    """w(B) for a positive-defect block (nontrivial-Q weights only)."""
    count = 0
    for w in weights(ga.group, ga.field, seed=seed):
        if block_of_weight(ga, w, seed=seed) is block:
            count += 1
    return count
