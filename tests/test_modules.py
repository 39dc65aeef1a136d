import gc
import hashlib
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from blockperm import blocks, gfq, meataxe, modules, vertexweight
from blockperm.modules import GModule, SimpleRegistry
from blockperm.permgrp import PermGroup, parse_group


def test_permutation_module_basics():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    h = g.sylow_subgroup(3)
    m = GModule.permutation(g, h, F)
    assert m.dim == 8
    assert m.tags is not None
    for el in g.generators:
        M = m.rep_of(el)
        # permutation matrix
        assert np.all(M.sum(axis=0) == 1) and np.all(M.sum(axis=1) == 1)


def test_rep_of_is_multiplicative():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(4)
    m = GModule.permutation(g, g.sylow_subgroup(2), F)
    rng = np.random.default_rng(3)
    els = g.elements()
    for _ in range(10):
        a, b = (els[int(i)] for i in rng.integers(0, len(els), 2))
        assert np.array_equal(m.rep_of(a * b),
                              F.matmul(m.rep_of(a), m.rep_of(b)))


def test_regular_module_dimension():
    F = gfq.GF.get(2)
    g = PermGroup.alternating(4)
    m = GModule.regular(g, F)
    assert m.dim == 12


def test_decompose_krull_schmidt_stability():
    """Same summand multiset regardless of the splitting seed."""
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    m = GModule.permutation(g, g.sylow_subgroup(3), F)
    outcomes = []
    for seed in range(5):
        summands = modules.decompose(m, seed=seed)
        outcomes.append(sorted((s.module.dim, s.multiplicity)
                               for s in summands))
        assert sum(s.module.dim * s.multiplicity
                   for s in summands) == m.dim
    assert all(o == outcomes[0] for o in outcomes)


@pytest.mark.parametrize("gspec,fspec", [("sym:4", "3"), ("alt:5", "2^2"),
                                         ("sym:5", "5")])
def test_permutation_matrices_match_the_per_entry_loop(gspec, fspec):
    """GModule.permutation scatters each generator matrix at once and
    keeps the coset images it built them from: the matrices are the ones
    the per-entry loop built, and perm_images is the argmax of each."""
    g, F = parse_group(gspec), gfq.GF.parse(fspec)
    for h in g.p_subgroups_up_to_conjugacy(2):
        m = GModule.permutation(g, h, F)
        _reps, images = g.coset_action(h)
        for M, imgs, img in zip(m.mats, images, m.perm_images()):
            ref = np.zeros((m.dim, m.dim), dtype=np.int16)
            for i, j in enumerate(imgs):
                ref[j, i] = 1
            ref = F.array(ref)
            assert M.dtype == ref.dtype and M.tobytes() == ref.tobytes()
            want = np.argmax(ref, axis=0)
            assert img.dtype == want.dtype and img.tobytes() == want.tobytes()


def test_decompose_finds_trivial_summand():
    # |G/H| coprime to p: the trivial module splits off
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(4)
    m = GModule.permutation(g, g.sylow_subgroup(2), F)
    dims = [s.module.dim for s in modules.decompose(m, seed=0)]
    assert 1 in dims


def test_endomorphism_algebra_of_transitive_module():
    F = gfq.GF.get(7)
    g = PermGroup.symmetric(4)
    h = g.sylow_subgroup(2)
    end, basis = modules.endomorphism_algebra(
        GModule.permutation(g, h, F))
    # semisimple case: dim End = number of H-orbits on G/H = rank
    assert end.dim == len(g.double_cosets(h, h))
    for B in basis:
        assert B.shape == (3, 3)


def test_hom_modules_matches_double_cosets():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    p = g.sylow_subgroup(5)
    q = g.sylow_subgroup(3)
    mp = GModule.permutation(g, p, F)
    mq = GModule.permutation(g, q, F)
    homs = modules.hom_modules(mp, mq)
    assert len(homs) == len(g.double_cosets(p, q))


def test_is_isomorphic_and_registry_labels():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    m = GModule.permutation(g, g.trivial_subgroup(), F)
    reg = SimpleRegistry(F)
    labels = modules.composition_factor_labels(m, reg, seed=0)
    # all factors 1-dim at p=3: trivial and sign, three of each
    assert labels == {"1a": 3, "1b": 3}


def test_loewy_and_socle_layers():
    F = gfq.GF.get(3)
    g = PermGroup.cyclic(9)
    m = GModule.regular(g, F)
    reg = SimpleRegistry(F)
    layers = modules.loewy_layers(m, reg, seed=0)
    assert len(layers) == 9             # uniserial of length 9
    series = modules.radical_socle_series(m, reg, seed=0)
    assert series["radical_layers"] == layers
    assert len(series["socle_layers"]) == 9


def test_loewy_layers_reverse_to_socle_for_selfdual_case():
    F = gfq.GF.get(2)
    g = PermGroup.alternating(4)
    m = GModule.permutation(g, g.sylow_subgroup(3), F)
    reg = SimpleRegistry(F)
    low = modules.loewy_layers(m, reg, seed=0)
    soc = modules.socle_layers(m, reg, seed=0)
    assert len(low) == len(soc)
    assert sorted(x for l in low for x in l) == \
        sorted(x for l in soc for x in l)


@pytest.mark.parametrize("group,spec", [("alt:5", "2"), ("sym:4", "3"),
                                        ("alt:4", "2^2")])
def test_radical_socle_series_chops_only_the_module(monkeypatch, group,
                                                    spec):
    """radical_socle_series on a fresh module splits no more than
    composition_factors of the module does: the Loewy layers come from
    hom dimensions and the socle layers from the transposed factors."""
    F = gfq.GF.parse(spec)
    calls = []
    real = meataxe.split_once

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(meataxe, "split_once", counting)
    g = parse_group(group)
    meataxe.composition_factors(F, GModule.regular(g, F).mats, seed=0)
    chop = len(calls)
    modules.radical_socle_series(GModule.regular(parse_group(group), F),
                                 seed=0)
    assert chop > 0 and len(calls) == 2 * chop


@pytest.mark.parametrize("group,spec", [("alt:5", "2"), ("sym:4", "3"),
                                        ("alt:4", "2^2")])
def test_radical_socle_series_asks_each_end_once(monkeypatch, group, spec):
    """radical_socle_series computes dim End(S) once per simple S of the
    module: the socle series reuses the Loewy series' values, since
    End(S^T) is End(S)^op."""
    F = gfq.GF.parse(spec)
    ends = []
    real = meataxe.hom_space

    def counting(field, mats_m, mats_n, *args):
        if mats_m is mats_n:
            ends.append(1)
        return real(field, mats_m, mats_n, *args)

    monkeypatch.setattr(meataxe, "hom_space", counting)
    m = GModule.regular(parse_group(group), F)
    series = modules.radical_socle_series(m, seed=0)
    assert len(series["socle_layers"]) == len(series["radical_layers"])
    assert len(ends) == len(modules._factors(m, 0)) > 1


def test_is_projective():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    free = GModule.regular(g, F)
    assert modules.is_projective(free)
    triv = GModule.trivial(g, F)
    assert not modules.is_projective(triv)


def test_decomposition_report_shape():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    m = GModule.permutation(g, g.sylow_subgroup(3), F)
    rep = modules.decomposition_report(m, seed=0)
    assert rep["dim"] == 8
    keys = {"dim", "multiplicity", "loewy_layers", "is_projective",
            "vertex_order"}
    for entry in rep["summands"]:
        assert set(entry) == keys
    pairs = [(e["dim"], e["loewy_layers"]) for e in rep["summands"]]
    assert pairs == sorted(pairs)


def test_direct_sum_and_iso():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(3)
    t = GModule.trivial(g, F)
    tt = t.direct_sum(t)
    assert tt.dim == 2
    assert not modules.is_isomorphic(t, tt)
    assert modules.is_isomorphic(tt, t.direct_sum(t))


def _end_cases():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    yield GModule.permutation(g, g.sylow_subgroup(2), F).direct_sum(
        GModule.permutation(g, g.subgroup([g.generators[0]]), F)), \
        (13, "f9f22ae41e2be59f9e1313aee31bbd8a9e231d78")
    F = gfq.GF.get(2, 8)
    g = PermGroup.alternating(4)
    yield GModule.permutation(g, g.sylow_subgroup(3), F).direct_sum(
        GModule.trivial(g, F)), \
        (5, "fca04d3291b46cabbfc6aac01c918795ac23723b")


def test_endomorphism_algebra_tables():
    """Structure constants reproduce the products of the basis, are
    associative, and have `one` as identity; the tables themselves are
    pinned (sha1 of mult then one, recorded before End(M) was built from
    batched products)."""
    for m, pinned in _end_cases():
        F = m.field
        alg, basis = modules.endomorphism_algebra(m)
        r, d = alg.dim, m.dim
        flat = np.array(basis).reshape(r, d * d)
        for i in range(r):
            for j in range(r):
                prod = F.matmul(basis[i], basis[j]).reshape(1, -1)
                assert np.array_equal(
                    prod, F.matmul(alg.mult[i, j][None, :], flat))
        assert np.array_equal(F.matmul(alg.one[None, :], flat),
                              np.eye(d, dtype=np.int16).reshape(1, -1))
        mult = alg.mult
        # (e_i e_j) e_k and e_i (e_j e_k), indexed [i, j, k, :]
        left = F.matmul(mult.reshape(r * r, r), mult.reshape(r, r * r))
        right = F.matmul(mult.reshape(r * r, r),
                         mult.transpose(1, 0, 2).reshape(r, r * r))
        right = right.reshape(r, r, r, r).transpose(2, 0, 1, 3)
        assert np.array_equal(left.reshape(r, r, r, r), right)
        for i in range(r):
            e = np.zeros(r, dtype=np.int16)
            e[i] = 1
            assert np.array_equal(alg.multiply(alg.one, e), e)
            assert np.array_equal(alg.multiply(e, alg.one), e)
        h = hashlib.sha1()
        h.update(np.ascontiguousarray(mult, dtype=np.int16).tobytes())
        h.update(np.ascontiguousarray(alg.one, dtype=np.int16).tobytes())
        assert (r, h.hexdigest()) == pinned


def test_gmodule_takes_reduced_codes():
    """The gfq kernels assume reduced codes; GModule is where matrices
    enter, so it reduces prime-field input and refuses codes outside an
    extension field."""
    g = PermGroup.cyclic(2)
    M = np.array([[7, 8], [-6, 14]], dtype=np.int16)  # the swap, mod 7
    m = GModule(g, gfq.GF.get(7), [M])
    assert np.array_equal(m.mats[0], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        GModule(g, gfq.GF.get(2, 2), [np.array([[0, 4], [1, 0]])])


def _bad_input(case):
    """A call on bad input, by case name, and the ValueError it gives."""
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    m = GModule.permutation(g, g.sylow_subgroup(2), F)
    other = PermGroup.symmetric(3)
    return {
        "matrix-count": (lambda: GModule(g, F, m.mats[:1]),
                         "2 generators"),
        "missing-dim": (lambda: GModule(PermGroup(3, []), F, []),
                        "dim is required"),
        "matrix-shape": (lambda: GModule(g, F, [m.mats[0],
                                                np.eye(2, dtype=np.int16)]),
                         "shape"),
        "other-group": (lambda: modules.hom_modules(m, GModule.permutation(
            other, other.sylow_subgroup(2), F)), "different"),
        "other-field": (lambda: modules.hom_modules(m, GModule.permutation(
            g, g.sylow_subgroup(2), gfq.GF.get(5))), "different"),
    }[case]


@pytest.mark.parametrize("case", ["matrix-count", "missing-dim",
                                  "matrix-shape", "other-group",
                                  "other-field"])
def test_bad_module_input_raises_value_error(case):
    """Bad input to a GModule or to hom_modules is a ValueError (exit 2),
    not a failed certificate."""
    call, message = _bad_input(case)
    with pytest.raises(ValueError, match=message):
        call()


def _free_over(m, s):
    """The freeness test of is_projective over a given Sylow subgroup."""
    F = m.field
    stacked = np.vstack([F.sub(m.rep_of(x), np.eye(m.dim, dtype=np.int16))
                         for x in s.generators])
    return m.dim == (m.dim - gfq.rank(F, stacked)) * s.order()


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_projective_does_not_depend_on_the_sylow_subgroup(n, p):
    """is_projective uses the group's own Sylow class representative; the
    verdicts agree with the wreath-product Sylow subgroup of S_n on every
    summand of the Sylow permutation module k[S_n/S]."""
    g = PermGroup.symmetric(n)
    F = gfq.GF.get(p)
    wreath = PermGroup.sylow_of_symmetric(n, p)
    m = GModule.permutation(g, g.sylow_subgroup(p), F)
    for x in modules.decompose(m, seed=0):
        assert modules.is_projective(x.module) == _free_over(x.module, wreath)


def _ask_every_recorded_question(g):
    """decompose, vertex, radical_socle_series and is_isomorphic on two
    modules over g; returns nothing that refers to g."""
    F = gfq.GF.get(2)
    m = GModule.permutation(g, g.sylow_subgroup(3), F)
    n = GModule(g, F, m.mats)
    for x in modules.decompose(m, seed=0):
        vertexweight.vertex(x.module)
    modules.radical_socle_series(m, seed=0)
    assert modules.is_isomorphic(m, n, seed=0)
    assert g._records


def test_dropped_group_and_its_records_are_freed_without_collection():
    """The record store keeps no GModule, so nothing in it refers back to
    its group: a group dropped by the caller is freed at once, records and
    all, with the garbage collector off."""
    def build():
        g = PermGroup.alternating(4)
        _ask_every_recorded_question(g)
        return weakref.ref(g)

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert build()() is None
    finally:
        if enabled:
            gc.enable()


def test_blockperm_never_imports_hashlib():
    """Record keys are exact bytes, compared in full by the dict; hashing
    them with hashlib would load OpenSSL for nothing.  Importing every
    blockperm module loads no hashlib (checked in a fresh interpreter,
    since pytest and this file load it), and no blockperm source imports
    it inside a function either.  numpy.random still loads hashlib on
    first use, through secrets and hmac."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    names = sorted(p.stem for p in (src / "blockperm").glob("*.py"))
    script = "\n".join(["import sys"] + [
        "import blockperm.%s" % name for name in names] + [
        "print('hashlib' in sys.modules)"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    for path in (src / "blockperm").glob("*.py"):
        assert "hashlib" not in path.read_text(), path.name


def _same_summands(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.module is not y.module
        assert x.multiplicity == y.multiplicity
        for a, b in zip(x.module.mats + x.embeddings + x.idempotents,
                        y.module.mats + y.embeddings + y.idempotents):
            assert np.array_equal(a, b)


def test_records_are_keyed_by_module_content(monkeypatch):
    """Equal matrices over one group are one decomposition; the seed, the
    group object and the k[G/H] route each ask again.  Arrays handed out
    from a record are read-only."""
    computed = []
    real = modules._decompose

    def counting(m, seed):
        computed.append(seed)
        return real(m, seed)

    monkeypatch.setattr(modules, "_decompose", counting)
    F = gfq.GF.get(2)
    g = PermGroup.alternating(4)
    perm = GModule.permutation(g, g.sylow_subgroup(3), F)
    a = GModule(g, F, perm.mats)
    b = GModule(g, F, [M.copy() for M in perm.mats])
    da = modules.decompose(a, seed=0)
    _same_summands(da, modules.decompose(b, seed=0))
    assert len(computed) == 1
    modules.decompose(a, seed=1)
    assert len(computed) == 2
    other = PermGroup.alternating(4)
    _same_summands(da, modules.decompose(GModule(other, F, perm.mats), 0))
    assert len(computed) == 3
    modules.decompose(perm, seed=0)   # fixed-point route of hom_modules
    assert len(computed) == 4
    _end, basis = modules.endomorphism_algebra(a)
    for arr in (da[0].embeddings[0], da[0].idempotents[0], basis[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


# -- End(M) from seed images, summand isomorphism from idempotents --


def _reference_end(m):
    """(mult, one) of End(m) computed the way it was before seed images:
    one product basis[i] @ [basis_0 ... basis_{r-1}] per i, and the
    coordinates of all products off the RREF of the r x d^2 flattening."""
    F = m.field
    basis = modules.hom_modules(m, m)
    r, d = len(basis), m.dim
    flat = np.array(basis, dtype=np.int16).reshape(r, d * d)
    R, piv, T = gfq.echelon(F, flat, transform=True)
    assert R.shape[0] == r

    def coords(prods):
        cr = prods[:, piv]
        assert np.array_equal(F.matmul(cr, R), prods)
        return F.matmul(cr, T)

    side = np.hstack(basis)
    mult = np.zeros((r, r, r), dtype=np.int16)
    for i in range(r):
        prods = F.matmul(basis[i], side).reshape(d, r, d)
        mult[i] = coords(prods.transpose(1, 0, 2).reshape(r, d * d))
    one = coords(np.eye(d, dtype=np.int16).reshape(1, d * d))[0]
    return mult, one


@pytest.mark.parametrize("gspec,fspec", [("sym:4", "3"), ("sym:5", "5"),
                                         ("alt:5", "2^2"), ("alt:4", "2^8")])
def test_end_from_seed_images_matches_the_flattened_products(monkeypatch,
                                                             gspec, fspec):
    """On each route of hom_modules (k[G/H], a certified summand of k[G/H],
    a plain basis) the structure constants and identity read off the seed
    columns are byte-identical to the ones read off the whole matrices,
    and M is spun at most once."""
    ga = blocks.GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    g, F = ga.group, ga.field
    summand = ga.blocks(seed=0)[0].block_sylow_module(
        g.sylow_subgroup(F.p))
    cases = [("coset", GModule.permutation(g, g.sylow_subgroup(F.p), F), 0),
             ("coset", GModule.permutation(g, g.subgroup(
                 [g.generators[0]]), F), 0),
             ("summand", summand, 1),
             ("spin", GModule(g, F, summand.mats), 1),
             ("spin", GModule.permutation(g, g.sylow_subgroup(F.p), F)
              .direct_sum(GModule.trivial(g, F)), 1)]
    spins = []
    real = meataxe.greedy_spin

    def counting(*args):
        spins.append(1)
        return real(*args)

    monkeypatch.setattr(meataxe, "greedy_spin", counting)
    for route, m, nspins in cases:
        assert route == ("coset" if modules._route(m) is not None else
                         "summand" if m.ambient is not None else "spin")
        del spins[:]
        mult, one, _basis = modules._endomorphism_algebra(m)
        assert len(spins) == nspins
        ref_mult, ref_one = _reference_end(m)
        assert mult.tobytes() == ref_mult.tobytes()
        assert one.tobytes() == ref_one.tobytes()


def _reference_iso(F, mats_m, mats_n):
    """iso_of_indecomposables as it was, with both hom spaces: the first h
    of Hom(M, N) with h hb invertible for some hb in Hom(N, M)."""
    dn = meataxe.module_dim(mats_n)
    if meataxe.module_dim(mats_m) != dn:
        return None
    H = meataxe.hom_space(F, mats_m, mats_n)
    if not H:
        return None
    for h in H:
        for hb in meataxe.hom_space(F, mats_n, mats_m):
            if gfq.rank(F, F.matmul(h, hb)) == dn:
                return h
    return None


def _pieces(m):
    """(End(m), its primitive idempotents, the action matrices of the
    summands they cut out), as _decompose makes them."""
    F, d = m.field, m.dim
    alg, basis = modules.endomorphism_algebra(m)
    prims = alg.primitive_idempotents(seed=0)
    flat = np.array(basis).reshape(len(basis), d * d)
    pieces = []
    for f in prims:
        X = F.matmul(f[None, :], flat).reshape(d, d)
        rows, piv = gfq.echelon(F, X.T)
        pieces.append(meataxe.restrict_to_submodule(F, m.mats, rows, piv))
    return alg, prims, pieces


def _iso_cases():
    g6, g4, g3, a4 = (PermGroup.symmetric(6), PermGroup.symmetric(4),
                      PermGroup.symmetric(3), PermGroup.alternating(4))
    return [
        # 1 + 1 + 9 + 9 + 10 + 10 + 20 + 20, only the 20s isomorphic
        GModule.permutation(g6, g6.sylow_subgroup(3), gfq.GF.get(3)),
        # 3 + 3 + 3 + 3, two of them isomorphic
        GModule.permutation(g4, g4.subgroup([g4.generators[0]]),
                            gfq.GF.get(3)),
        # P(k) + 2 + 2: the 2-dim projective simple twice
        GModule.regular(g3, gfq.GF.get(2)),
        # three 4-dim projectives, pairwise not isomorphic
        GModule.regular(a4, gfq.GF.get(2, 2)),
    ]


@pytest.mark.parametrize("case", range(4))
def test_idempotent_isomorphism_agrees_with_hom_spaces(case):
    """eM and fM are isomorphic exactly when e and f are equivalent
    idempotents of End(M): on every pair of summands of equal dimension
    the verdict is iso_of_indecomposables's, and that one-sided test
    returns the matrix (or None) of the two-sided one it replaced."""
    m = _iso_cases()[case]
    F = m.field
    alg, prims, pieces = _pieces(m)
    verdicts = []
    for i, (e, a) in enumerate(zip(prims, pieces)):
        for j, (f, b) in enumerate(zip(prims, pieces)):
            if meataxe.module_dim(a) != meataxe.module_dim(b):
                continue
            iso = meataxe.iso_of_indecomposables(F, a, b)
            ref = _reference_iso(F, a, b)
            assert (iso is None) == (ref is None)
            if iso is not None:
                assert iso.tobytes() == ref.tobytes()
            assert alg.equivalent_idempotents(e, f) == (iso is not None)
            if i != j:
                verdicts.append((meataxe.module_dim(a), iso is not None))
    assert any(not v for _d, v in verdicts)
    if case == 0:
        assert sorted(d for d, v in verdicts if v) == [20, 20]
        assert [(x.module.dim, x.multiplicity)
                for x in modules.decompose(m, seed=0)][-1] == (20, 2)


def test_end_tables_certificates_run_under_python_O(failure_kinds_under_O):
    """The seed-coordinate check of End is not an assert: a basis that is
    not closed under products, and seeds that do not generate the module,
    are caught under python -O."""
    assert failure_kinds_under_O("""
        import numpy as np
        from blockperm import modules
        from blockperm.modules import GModule
        from blockperm.permgrp import PermGroup

        F = gfq.GF.get(5)
        t = GModule.trivial(PermGroup.symmetric(3), F)
        m = t.direct_sum(t)       # End(m) is all 2 x 2 matrices
        units = []
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            X = np.zeros((2, 2), dtype=np.int16)
            X[i, j] = 1
            units.append(X)
        print(kind(lambda: modules._end_tables(F, 2, units, [0, 1])))
        # E_10 E_01 = E_11 is not in the span of E_00, E_01, E_10
        print(kind(lambda: modules._end_tables(F, 2, units[:3], [0, 1])))
        # e_0 alone spans only the first summand
        print(kind(lambda: modules._end_tables(F, 2, units, [0])))
        """) == ["none", "cert", "cert"]


def test_generator_words_are_shortest_and_uncapped(monkeypatch):
    """Each element's word multiplies out to it and is as short as in a
    breadth-first walk over Perm objects; words need no element cap, and
    rep_of gives the same matrices either way."""
    g = PermGroup.alternating(5)
    words = {tuple(range(5)): ()}
    frontier = [g.elements()[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for s, gen in enumerate(g.generators):
                y = gen * x
                if y.img not in words:
                    words[y.img] = (s,) + words[x.img]
                    nxt.append(y)
        frontier = nxt
    for x in g.elements():
        word = g.generator_word(x)
        assert len(word) == len(words[x.img])
        prod = g.elements()[0]
        for s in reversed(word):
            prod = g.generators[s] * prod
        assert prod == x
    F = gfq.GF.get(3)
    m = GModule(g, F, GModule.permutation(g, g.sylow_subgroup(2), F).mats)
    mats = [m.rep_of(x) for x in g.elements()]
    monkeypatch.setenv("BLOCKPERM_CAP", "10")
    fresh = PermGroup.alternating(5)
    n = GModule(fresh, F, m.mats)
    for x, M in zip(g.elements(), mats):
        assert np.array_equal(n.rep_of(x), M)
