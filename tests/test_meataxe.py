import hashlib

import numpy as np
import pytest

from blockperm import gfq, meataxe, polys
from blockperm.permgrp import PermGroup
from blockperm.modules import GModule


def perm_module_mats(group, field):
    m = GModule.permutation(group, group.trivial_subgroup(), field)
    return m.mats


def test_split_once_finds_trivial_submodule():
    F = gfq.GF.get(3)
    mats = perm_module_mats(PermGroup.cyclic(4), F)
    rng = np.random.default_rng(0)
    verdict, basis, piv = meataxe.split_once(F, mats, rng)
    assert verdict == "split"
    assert 0 < basis.shape[0] < 4
    # the found rowspace is G-stable
    for M in mats:
        moved = F.matmul(basis, M.T)
        assert gfq.rank(F, np.vstack([basis, moved])) == basis.shape[0]


def test_split_once_certifies_irreducible():
    # the 2-dim simple of S3 over GF(5), from the regular module
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(3)
    mats = perm_module_mats(g, F)
    facs = meataxe.composition_factors(F, mats, seed=1)
    dims = sorted(meataxe.module_dim(m) for m, _k in facs)
    assert dims == [1, 1, 2]
    simple2 = [m for m, _k in facs if meataxe.module_dim(m) == 2][0]
    rng = np.random.default_rng(2)
    verdict, _b, _p = meataxe.split_once(F, simple2, rng)
    assert verdict == "irreducible"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_composition_factors_regular_module(p):
    F = gfq.GF.get(p)
    g = PermGroup.symmetric(3)
    mats = GModule.regular(g, F).mats
    facs = meataxe.composition_factors(F, mats, seed=0)
    total = sum(meataxe.module_dim(m) * k for m, k in facs)
    assert total == 6


def test_fixed_points_counts_orbits():
    F = gfq.GF.get(7)
    g = PermGroup.symmetric(4)
    h = g.sylow_subgroup(2)
    m = GModule.permutation(g, h, F)
    fp = meataxe.fixed_points(F, m.mats)
    # transitive action, p coprime to |G|: one fixed vector
    assert fp.shape[0] == 1


def test_hom_space_dimension_semisimple_case():
    F = gfq.GF.get(7)
    g = PermGroup.cyclic(3)
    mats = GModule.regular(g, F).mats
    homs = meataxe.hom_space(F, mats, mats)
    # kC3 at p=7 is semisimple with 3 simples over GF(7); End has dim 3
    assert len(homs) == 3
    for H in homs:
        for M in mats:
            assert np.array_equal(F.matmul(M, H), F.matmul(H, M))


def test_radical_and_socle_of_modular_regular_module():
    F = gfq.GF.get(3)
    g = PermGroup.cyclic(3)
    mats = GModule.regular(g, F).mats
    rad, rpiv = meataxe.module_radical(F, mats, seed=0)
    soc, spiv = meataxe.module_socle(F, mats, seed=0)
    assert rad.shape[0] == 2   # J(kC3) has codim 1
    assert soc.shape[0] == 1   # simple socle
    layers, chain = meataxe.radical_series(F, mats, seed=0)
    # kC3 at p=3 is uniserial with three trivial layers
    assert len(layers) == 3
    for facs_layer in layers:
        assert sum(meataxe.module_dim(m) * k for m, k in facs_layer) == 1


def test_quotient_and_restrict_are_complementary():
    F = gfq.GF.get(2)
    g = PermGroup.cyclic(4)
    mats = perm_module_mats(g, F)
    rng = np.random.default_rng(5)
    verdict, basis, piv = meataxe.split_once(F, mats, rng)
    assert verdict == "split"
    sub = meataxe.restrict_to_submodule(F, mats, basis, piv)
    quo, _proj = meataxe.quotient_by_submodule(F, mats, basis, piv)
    assert meataxe.module_dim(sub) + meataxe.module_dim(quo) == 4


def test_iso_of_indecomposables():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    m = GModule.permutation(g, g.subgroup([g.generators[0]]), F)
    iso = meataxe.iso_of_indecomposables(F, m.mats, m.mats)
    assert iso is not None
    # conjugating by the iso fixes the action
    inv = gfq.inverse(F, iso)
    for M in m.mats:
        assert np.array_equal(F.matmul(F.matmul(iso, M), inv), M)


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 8)])
def test_vector_annihilator(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(p * 10 + e)
    n = 6
    A = rng.integers(0, F.q, (3, 3)).astype(np.int16)
    blockdiag = np.zeros((n, n), dtype=np.int16)
    blockdiag[:3, :3] = A
    blockdiag[3:, 3:] = A
    cases = [rng.integers(0, F.q, (n, n)).astype(np.int16), blockdiag,
             np.eye(n, dtype=np.int16)]
    for M in cases:
        v = rng.integers(0, F.q, n).astype(np.int16)
        v[0] = 1
        f = meataxe.vector_annihilator(F, M, v)
        assert f[-1] == 1
        fM = meataxe.eval_poly_at_matrix(F, f, M)
        assert not F.matmul(fM, v[:, None]).any()
        krylov = [v]
        for _ in range(n):
            krylov.append(F.matmul(M, krylov[-1][:, None])[:, 0])
        assert polys.degree(f) == gfq.rank(F, np.array(krylov))


def _hom_digest(homs):
    h = hashlib.sha1()
    for X in homs:
        h.update(np.ascontiguousarray(X, dtype=np.int16).tobytes())
    return len(homs), h.hexdigest()


def test_hom_space_pinned_bases():
    """The hom bases feed End(M) and the simple labels in the golden
    reports, so their order and entries are pinned, not only their span."""
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    src = GModule.permutation(g, g.sylow_subgroup(2), F).direct_sum(
        GModule.permutation(g, g.subgroup([g.generators[0]]), F))
    dst = GModule.permutation(g, g.sylow_subgroup(3), F)
    assert _hom_digest(meataxe.hom_space(F, src.mats, dst.mats)) == \
        (5, "11ea159642d62e054116e1ea82e85cba3f45d1da")
    F = gfq.GF.get(2, 8)
    g = PermGroup.alternating(4)
    src = GModule.permutation(g, g.sylow_subgroup(3), F).direct_sum(
        GModule.trivial(g, F))
    dst = GModule.regular(g, F)
    assert _hom_digest(meataxe.hom_space(F, src.mats, dst.mats)) == \
        (5, "6f7866b7ccb8377744c6e6c64c9d1b942c6308b2")
