"""Hom out of k[G/H] on H-orbit labels against the linear-algebra route.

The reference route finds the H-fixed vectors of a module as the
nullspace of the stacked (h - 1) (meataxe.fixed_points) and fills the maps
of a permutation module, or of a certified summand of one, with one
gather per layer of the coset tree.  The orbit-label route must give the
same bytes: the fixed vectors, every map of coset_maps, and the basis of
hom_modules.
"""

import numpy as np
import pytest

from blockperm import blocks, gfq, meataxe, modules
from blockperm.permgrp import ResourceCap, parse_group

# maps larger than this many entries in all (int16) are not compared
_ENTRIES = 4_000_000


def _reference_fixed_vectors(h, n):
    hm = [n.rep_of(s) for s in h.generators]
    if not hm:
        return np.eye(n.dim, dtype=np.int16)
    return meataxe.fixed_points(n.field, hm)


def _layer_gather_coset_maps(perm, n, U):
    """coset_maps by the per-layer walk: on a permutation module, or a
    certified summand of one, the walk keeps the maps y -> x^-1 y of one
    layer and gathers the lifted vectors at them; elsewhere each step is a
    product with a generator's matrix."""
    F = perm.field
    U = np.asarray(U, dtype=np.int16)
    X = np.empty((len(U), n.dim, perm.dim), dtype=np.int16)
    X[:, :, 0] = U
    lift = n.tags is not None or n.ambient is not None
    if lift:
        amb, rows, piv = (n, None, None) if n.tags is not None else n.ambient
        sinv = np.array([np.argsort(img) for img in amb.perm_images()],
                        dtype=np.int32).reshape(-1, amb.dim)
        flat = U if rows is None else F.matmul(U, rows)
        inv = np.arange(amb.dim, dtype=np.int32)[None, :]
    prev = np.zeros(1, dtype=np.intp)
    for cosets, gens, parents in perm.coset_tree:
        if lift:
            inv = inv[parents[:, None], sinv[gens]]
            at = inv if piv is None else inv[:, piv]
            X[:, :, cosets] = flat[:, at].transpose(0, 2, 1)
        else:
            for s in np.unique(gens):
                src, dst = prev[parents[gens == s]], cosets[gens == s]
                X[:, :, dst] = F.matmul(n.mats[s], X[:, :, src])
        prev = cosets
    return X


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fspec", ["2", "3", "2^2", "5"])
@pytest.mark.parametrize("gspec", ["sym:3", "sym:4", "sym:5", "sym:6",
                                   "alt:4", "alt:5", "alt:6"])
def test_orbit_route_matches_the_linear_algebra_route(gspec, fspec):
    """Out of k[G/H] for H of every p-subgroup class, into k[G/S], k[G/H],
    B (x)_S k of every block, the source permutation module of every
    block of nontrivial defect and kG e[H] inside k[G/H] for every block
    idempotent e: byte-equal fixed vectors, coset maps and hom bases, and
    byte-equal maps E_e: gH -> g e[H].  Pairs whose maps exceed _ENTRIES
    entries are left out; so are the block targets where the group
    algebra is refused (S_6 over GF(4))."""
    g, F = parse_group(gspec), gfq.GF.parse(fspec)
    sylow = g.sylow_subgroup(F.p)
    try:
        ga = blocks.GroupAlgebra(g, F)
    except ResourceCap:
        ga = None
    found = [] if ga is None else ga.blocks(seed=0)
    targets = [modules.GModule.permutation(g, sylow, F)]
    for b in found:
        targets.append(b.block_sylow_module(sylow))
        if b.defect_group().order() > 1:
            targets.append(b.source_permutation_module(b.defect_group(),
                                                       seed=0))
    compared = 0
    for h in g.p_subgroups_up_to_conjugacy(F.p):
        if ga is None:
            src = modules.GModule.permutation(g, h, F)
        else:
            src, cos = ga.cosets(h)
        parts = [ga.coset_submodule(b.evec, h)[0] for b in found]
        assert all(x.ambient is not None for x in parts)
        for n in targets + parts + [src]:
            U = modules._fixed_vectors(h, n)
            _same_bytes(U, _reference_fixed_vectors(h, n))
            if len(U) * n.dim * src.dim > _ENTRIES:
                continue
            X = np.concatenate(modules.coset_maps(src, n, U))
            _same_bytes(X, _layer_gather_coset_maps(src, n, U))
            _same_bytes(modules.hom_modules(src, n), X)
            compared += 1
        for b in found:
            xbar = F.sum(b.evec[cos], axis=1)[None, :]
            _same_bytes(modules.coset_maps(src, src, xbar)[0],
                        _layer_gather_coset_maps(src, src, xbar))
    assert compared > 0


def test_hom_between_permutation_modules_runs_no_linear_algebra(
        monkeypatch):
    """hom_modules(k[G/P], k[G/Q]) makes no gfq.nullspace or gfq.echelon
    call, and its dimension is |P\\G/Q|."""
    g, F = parse_group("sym:5"), gfq.GF.get(2)
    classes = g.p_subgroups_up_to_conjugacy(2)
    pairs = [(p, q, modules.GModule.permutation(g, p, F),
              modules.GModule.permutation(g, q, F))
             for p in classes for q in classes[-2:]]

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra on the orbit route")

    monkeypatch.setattr(gfq, "nullspace", refuse)
    monkeypatch.setattr(gfq, "echelon", refuse)
    for p, q, m, n in pairs:
        assert len(modules.hom_modules(m, n)) == len(g.double_cosets(p, q))


def test_orbit_route_certificates_run_under_python_O(failure_kinds_under_O):
    """A vector that is not H-fixed handed to coset_maps, and an orbit
    table that splits an orbit, raise CertificateError under python -O."""
    assert failure_kinds_under_O("""
        import numpy as np
        from blockperm import modules
        from blockperm.permgrp import parse_group

        g, F = parse_group("sym:4"), gfq.GF.get(3)
        h = g.sylow_subgroup(3)
        src = modules.GModule.permutation(g, h, F)
        n = modules.GModule.permutation(g, g.sylow_subgroup(2), F)
        U = modules._fixed_vectors(h, n)
        print(kind(lambda: modules.coset_maps(src, n, U)))
        # a unit vector at a point of an orbit of length > 1
        point = np.flatnonzero(U[U.sum(axis=1) > 1][0])[0]
        bad = np.zeros((1, n.dim), dtype=np.int16)
        bad[0, point] = 1
        print(kind(lambda: modules.coset_maps(src, n, bad)))

        real = modules.orbit_labels

        def split(maps, dim):
            label = real(maps, dim).copy()
            label[point] = label.max() + 1
            return label

        modules.orbit_labels = split
        print(kind(lambda: modules._fixed_vectors(h, n)))
        print(kind(lambda: modules.coset_maps(src, n, U)))
        print(kind(lambda: modules.hom_modules(src, n)))
        """) == ["none", "cert", "cert", "cert", "cert"]
