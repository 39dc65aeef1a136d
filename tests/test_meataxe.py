import hashlib

import numpy as np
import pytest

from blockperm import gfq, meataxe, modules, polys
from blockperm.permgrp import PermGroup, parse_group
from blockperm.modules import GModule, SimpleRegistry


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


def module_socle(field, mats, seed=0):
    """RREF row basis of soc M: the sum of images of all homs from simples."""
    n = meataxe.module_dim(mats)
    rows = []
    for s, _k in meataxe.composition_factors(field, mats, seed):
        for X in meataxe.hom_space(field, s, mats):
            rows.append(X.T)
    if not rows:
        return np.zeros((0, n), dtype=np.int16), []
    return gfq.echelon(field, np.vstack(rows))


def test_radical_and_socle_of_modular_regular_module():
    F = gfq.GF.get(3)
    g = PermGroup.cyclic(3)
    mats = GModule.regular(g, F).mats
    rad, rpiv = meataxe.module_radical(F, mats, seed=0)
    soc, spiv = module_socle(F, mats, seed=0)
    assert rad.shape[0] == 2   # J(kC3) has codim 1
    assert soc.shape[0] == 1   # simple socle
    layers, chain = meataxe.radical_series(F, mats, seed=0)
    # kC3 at p=3 is uniserial with three trivial layers
    assert len(layers) == 3
    for facs_layer in layers:
        assert sum(meataxe.module_dim(m) * k for m, k in facs_layer) == 1


def _chopped_radical_series(field, mats, seed=0):
    """The Loewy layers of radical_series as the chop gives them: each
    layer rad^i M / rad^(i+1) M split into its composition factors."""
    simples = [s for s, _ in meataxe.composition_factors(field, mats, seed)]
    layers = []
    while meataxe.module_dim(mats) > 0:
        R, piv = meataxe.module_radical(field, mats, simples=simples)
        quo, _ = meataxe.quotient_by_submodule(field, mats, R, piv)
        layers.append(meataxe.composition_factors(field, quo, seed))
        if R.shape[0] == 0:
            break
        mats = meataxe.restrict_to_submodule(field, mats, R, piv)
    return layers


def _labelled(registry, layers, transposed=False):
    out = []
    for layer in layers:
        labs = []
        for s, mult in layer:
            if transposed:
                s = [M.T.copy() for M in s]
            labs.extend([registry.label(s)] * mult)
        out.append(sorted(labs))
    return out


@pytest.mark.parametrize("group,spec", [
    (g, f) for g in ["sym:3", "sym:4", "sym:5", "alt:4", "alt:5"]
    for f in ["2", "3", "2^2", "5"]] + [("cyclic:3", "2"), ("cyclic:5", "2")])
def test_layers_from_hom_dims_match_the_chopped_layers(group, spec):
    """Loewy and socle layers read off hom dimensions, on M's own
    composition factors, are the layers that chopping each layer gives,
    up to isomorphism: on k[G/1], k[G/S] for a Sylow p-subgroup S, and
    the modules of their transposed matrices.  Over GF(2), A_4, A_5, C_3
    and C_5 have simples that are not absolutely simple (dim End 2 or 4),
    where a multiplicity is dim Hom / dim End."""
    F = gfq.GF.parse(spec)
    g = parse_group(group)
    perms = [GModule.regular(g, F),
             GModule.permutation(g, g.sylow_subgroup(F.p), F)]
    mods = perms + [GModule(g, F, [M.T.copy() for M in m.mats])
                    for m in perms]
    ends = set()
    for m in mods:
        reg = SimpleRegistry(F)
        assert modules.loewy_layers(m, reg, seed=0) == \
            _labelled(reg, _chopped_radical_series(F, m.mats))
        transposes = [M.T.copy() for M in m.mats]
        assert modules.socle_layers(m, reg, seed=0) == _labelled(
            reg, _chopped_radical_series(F, transposes), True)[::-1]
        ends.update(len(meataxe.hom_space(F, s, s))
                    for s, _k in meataxe.composition_factors(F, m.mats))
    if spec == "2" and group in ("alt:4", "alt:5", "cyclic:3", "cyclic:5"):
        assert ends & {2, 4}


def test_last_socle_layer_is_the_socle():
    """The labels of the last socle layer are those of the composition
    factors of module_socle, computed from the homs out of the simples."""
    F = gfq.GF.get(2)
    for group in ["sym:4", "alt:5"]:
        g = parse_group(group)
        for m in [GModule.regular(g, F),
                  GModule.permutation(g, g.sylow_subgroup(3), F)]:
            reg = SimpleRegistry(F)
            last = modules.socle_layers(m, reg, seed=0)[-1]
            soc, piv = module_socle(F, m.mats)
            sub = meataxe.restrict_to_submodule(F, m.mats, soc, piv)
            assert last == _labelled(
                reg, [meataxe.composition_factors(F, sub)])[0]


def test_radical_series_certificates_run_under_python_O(
        failure_kinds_under_O):
    """The Loewy layer certificates are not asserts: a simple missing
    from the simples, or one given twice, is caught under python -O."""
    assert failure_kinds_under_O("""
        from blockperm import meataxe
        from blockperm.modules import GModule
        from blockperm.permgrp import PermGroup

        F = gfq.GF.get(2)
        mats = GModule.regular(PermGroup.alternating(4), F).mats
        simples = [s for s, _ in meataxe.composition_factors(F, mats)]
        for given in [simples, simples[1:], simples[:-1],
                      simples + simples[:1]]:
            print(kind(lambda: meataxe.radical_series(F, mats, 0, given)))
        """) == ["none", "cert", "cert", "cert"]


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


@pytest.mark.parametrize("spec", ["5", "2^2", "3^2"])
def test_greedy_spin_works_on_whole_frontiers(monkeypatch, spec):
    """greedy_spin of k[S_5/C_5] (dim 24) makes no elementwise field call
    and fewer products than its dimension: each add is one product with
    the reduced copy, and each frontier one product with all generators."""
    F = gfq.GF.parse(spec)
    g = PermGroup.symmetric(5)
    mats = GModule.permutation(g, g.sylow_subgroup(5), F).mats
    calls = dict.fromkeys(["add", "sub", "mul", "neg", "inv", "matmul"], 0)
    for name in calls:
        real = getattr(gfq.GF, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(gfq.GF, name, counting)
    spin = meataxe.greedy_spin(F, mats)
    assert len(spin.raws) == 24
    assert calls.pop("matmul") < 24
    assert calls == dict.fromkeys(calls, 0)


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


def test_hom_space_pinned_bases_in_small_chunks(monkeypatch):
    """With a budget of a few entries every constraint block is its own
    chunk and the RREF is refolded after each one; the bases must not
    change."""
    monkeypatch.setattr(meataxe, "CHUNK_ENTRIES", 5)
    test_hom_space_pinned_bases()


def _in_random_basis(F, mats, rng):
    """The same module written in a random basis, so its matrices are no
    longer monomial."""
    n = mats[0].shape[0]
    while True:
        P = rng.integers(0, F.q, (n, n)).astype(np.int16)
        if gfq.rank(F, P) == n:
            break
    Pinv = gfq.inverse(F, P)
    return [F.matmul(F.matmul(P, M), Pinv) for M in mats]


def _hom_by_kronecker(F, mats_m, mats_n):
    """Row-major vec(X) of every X with X A_g = B_g X: the nullspace of the
    stacked I (x) A_g^T - B_g (x) I.  One Kronecker factor is always 0/1,
    so np.kron multiplies exactly over every field."""
    dm, dn = mats_m[0].shape[0], mats_n[0].shape[0]
    rows = [F.sub(np.kron(np.eye(dn, dtype=np.int16), A.T),
                  np.kron(B, np.eye(dm, dtype=np.int16)))
            for A, B in zip(mats_m, mats_n)]
    return gfq.nullspace(F, np.vstack(rows))


def _small_modules(group, subgroups, F, rng):
    mods = [GModule.permutation(group, h, F) for h in subgroups]
    mods.append(mods[0].direct_sum(GModule.trivial(group, F)))
    mats = [m.mats for m in mods]
    return mats + [_in_random_basis(F, mats[-1], rng),
                   _in_random_basis(F, GModule.regular(group, F).mats, rng)]


@pytest.mark.parametrize("chunk", [meataxe.CHUNK_ENTRIES, 5])
@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (251, 1), (2, 2), (3, 2),
                                 (2, 8)])
def test_hom_space_matches_kronecker_reference(monkeypatch, chunk, p, e):
    monkeypatch.setattr(meataxe, "CHUNK_ENTRIES", chunk)
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(p * 10 + e)
    g = PermGroup.symmetric(3)
    a4 = PermGroup.alternating(4)
    cases = [_small_modules(g, [g.sylow_subgroup(2), g.sylow_subgroup(3)],
                            F, rng),
             _small_modules(a4, [a4.sylow_subgroup(3)], F, rng)[:2]]
    for mods in cases:
        for src in mods:
            for dst in mods:
                homs = meataxe.hom_space(F, src, dst)
                ref = _hom_by_kronecker(F, src, dst)
                assert len(homs) == ref.shape[0]
                for X in homs:
                    assert X.shape == (dst[0].shape[0], src[0].shape[0])
                    for A, B in zip(src, dst):
                        assert np.array_equal(F.matmul(X, A),
                                              F.matmul(B, X))
                if homs:
                    flat = np.array(homs).reshape(len(homs), -1)
                    R, piv = gfq.echelon(F, flat)
                    Rr, pivr = gfq.echelon(F, ref)
                    assert piv == pivr and np.array_equal(R, Rr)
