import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockperm import blocks, gfq, meataxe, modules, polys
from blockperm.permgrp import Perm, PermGroup, ResourceCap, parse_group


def test_group_algebra_convolution_matches_group_law():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(3)
    ga = blocks.GroupAlgebra(g, F)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.integers(0, 5, ga.n).astype(np.int16)
        y = rng.integers(0, 5, ga.n).astype(np.int16)
        xy = ga.convolve(x, y)
        # associativity spot check against a third element
        z = rng.integers(0, 5, ga.n).astype(np.int16)
        assert np.array_equal(ga.convolve(xy, z),
                              ga.convolve(x, ga.convolve(y, z)))


def test_block_idempotents_are_orthogonal_and_sum_to_one():
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    bl = ga.blocks(seed=0)
    total = np.zeros(ga.n, dtype=np.int16)
    for b in bl:
        total = F.add(total, b.evec)
        assert np.array_equal(ga.convolve(b.evec, b.evec), b.evec)
    for i in range(len(bl)):
        for j in range(i + 1, len(bl)):
            assert not ga.convolve(bl[i].evec, bl[j].evec).any()
    ident = np.zeros(ga.n, dtype=np.int16)
    ident[g.index_of(Perm.identity(g.degree))] = 1
    assert np.array_equal(total, ident)


def test_block_dims_partition_group_order():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(4)
    ga = blocks.GroupAlgebra(g, F)
    assert sum(b.dim for b in ga.blocks(seed=0)) == 24


def test_principal_block_and_defect_groups():
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    bl = ga.blocks(seed=0)
    principal = [b for b in bl if b.is_principal]
    assert len(principal) == 1
    # principal block has the Sylow subgroup as defect group
    d = principal[0].defect_group()
    assert d.order() == 8
    orders = sorted(b.defect_group().order() for b in bl)
    assert orders == [2, 8]


def test_block_decomposition_top_level():
    bl = blocks.block_decomposition(parse_group("alt:5"), gfq.GF.parse("2^2"))
    assert sorted(b.dim for b in bl) == [16, 44]


def test_central_characters_separate_blocks():
    F = gfq.GF.get(3)
    ga = blocks.GroupAlgebra(PermGroup.symmetric(4), F)
    chars = [b.central_character() for b in ga.blocks(seed=0)]
    assert len(set(chars)) == len(chars)


def _minpoly_central_character(ga, evec_coords):
    """central_character by minimal polynomials: C_a acts on the block as
    the one root of the minimal polynomial of C_a e on Z e."""
    Z = ga.center_algebra()
    F = ga.field
    out = []
    for a in range(Z.dim):
        delta = np.zeros(Z.dim, dtype=np.int16)
        delta[a] = 1
        y = Z.multiply(delta, evec_coords)
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


def _character_or_cert(f, ga, coords):
    try:
        return f(ga, coords)
    except gfq.CertificateError:
        return "cert"


@pytest.mark.parametrize("group", ["sym:3", "sym:4", "sym:5", "alt:4",
                                   "alt:5", "cyclic:3", "cyclic:7"])
def test_central_character_from_frobenius_matches_minimal_polynomials(
        group):
    """The Frobenius route and the minimal-polynomial route give the same
    central character on every block, and both refuse the same inputs:
    blocks that are not split over the field, and sums of two blocks."""
    refused = {"block": 0, "sum": 0}
    for spec in ["2", "2^2", "3", "5", "7", "3^2", "2^8"]:
        ga = blocks.GroupAlgebra(parse_group(group), gfq.GF.parse(spec))
        bl = ga.blocks(seed=0)
        cases = [("block", b.coords) for b in bl]
        cases += [("sum", ga.field.add(a.coords, b.coords))
                  for a, b in zip(bl, bl[1:])]
        for kind, coords in cases:
            got = _character_or_cert(blocks.GroupAlgebra.central_character,
                                      ga, coords)
            assert got == _character_or_cert(_minpoly_central_character,
                                             ga, coords)
            refused[kind] += got == "cert"
    assert refused["sum"] > 0
    if group in ("cyclic:3", "cyclic:7", "alt:5"):
        assert refused["block"] > 0   # GF(2) does not split them


def test_central_character_needs_no_polynomial(monkeypatch):
    """central_character factors no minimal polynomial: once the blocks
    are found, it calls neither polys.factor nor vector_annihilator."""
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), gfq.GF.parse("2^2"))
    bl = ga.blocks(seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("no polynomial work expected")

    monkeypatch.setattr(polys, "factor", refuse)
    monkeypatch.setattr(meataxe, "vector_annihilator", refuse)
    chars = [b.central_character() for b in bl]
    assert len(set(chars)) == len(chars)


def test_central_character_certificate_runs_under_python_O(
        failure_kinds_under_O):
    """The scalar-image certificate is not an assert: the sum of two block
    idempotents is caught under python -O."""
    assert failure_kinds_under_O("""
        from blockperm import blocks
        from blockperm.permgrp import parse_group

        ga = blocks.GroupAlgebra(parse_group("sym:4"), gfq.GF.get(3))
        e, f = [b.coords for b in ga.blocks(seed=0)][:2]
        print(kind(lambda: ga.central_character(e)))
        print(kind(lambda: ga.central_character(ga.field.add(e, f))))
        """) == ["none", "cert"]


def test_brauer_hom_multiplicative_on_class_sums():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    p_sub = g.sylow_subgroup(5)
    _cls, lists = ga.conjugacy_classes()
    for i in (1, 2):
        for j in (2, 3):
            x = ga.class_vector(lists[i])
            y = ga.class_vector(lists[j])
            _c1, bx = blocks.brauer_hom(ga, x, p_sub)
            _c2, by = blocks.brauer_hom(ga, y, p_sub)
            _c3, bxy = blocks.brauer_hom(ga, ga.convolve(x, y), p_sub)
            assert np.array_equal(bxy, ga.convolve(bx, by))
    cent = blocks.brauer_hom(ga, x, p_sub)[0]
    assert cent.elements() == g.centralizer(p_sub).elements()


def test_source_permutation_module_dims_s5():
    F = gfq.GF.get(5)
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), F)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    p_sub = b.defect_group()
    spm = b.source_permutation_module(p_sub, seed=0)
    dims = sorted(s.module.dim for s in modules.decompose(spm, seed=0))
    assert dims == [1, 1, 6, 6]


def test_source_idempotent_seed_independence():
    """Different seeds may pick different source idempotents, but the
    resulting source permutation modules are isomorphic."""
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    results = []
    for seed in (0, 1):
        ga = blocks.GroupAlgebra(g, F)
        ga._blocks = None   # force a fresh block split
        b = [x for x in ga.blocks(seed=seed) if x.is_principal][0]
        results.append(b.source_permutation_module(b.defect_group(),
                                                   seed=seed))
    assert modules.is_isomorphic(results[0], results[1], seed=0)


def test_two_sided_coinvariant_dim_counts_double_cosets():
    # k (x)_P kG (x)_P k = k[P\\G/P] splits over the blocks
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    p_sub = g.sylow_subgroup(5)
    total = sum(b.two_sided_coinvariant_dim(p_sub) for b in ga.blocks(seed=0))
    assert total == len(g.double_cosets(p_sub, p_sub))


def test_source_orbit_count_equals_end_dim_s5():
    F = gfq.GF.get(5)
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), F)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    p_sub = b.defect_group()
    spm = b.source_permutation_module(p_sub, seed=0)
    end, _basis = modules.endomorphism_algebra(spm)
    assert end.dim == b.source_orbit_count(p_sub, seed=0) == 6


def test_nilpotent_hint():
    F3 = gfq.GF.get(3)
    ga = blocks.GroupAlgebra(PermGroup.alternating(4), F3)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    assert b.is_nilpotent_hint()
    # A5 at p=2: N(V4) = A4 strictly contains V4 * C(V4) = V4
    F2 = gfq.GF.get(2)
    ga2 = blocks.GroupAlgebra(PermGroup.alternating(5), F2)
    b2 = [x for x in ga2.blocks(seed=0) if x.is_principal][0]
    assert not b2.is_nilpotent_hint()


def test_number_of_simples_s5_p5():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    assert b.number_of_simples(g.sylow_subgroup(5), seed=0) == 4


def test_brauer_correspondent_preserves_defect():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    ga = blocks.GroupAlgebra(g, F)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    p_sub = b.defect_group()
    corr_ga, corr = b.brauer_correspondent(p_sub, seed=0)
    assert corr_ga.group.order() == 20
    assert corr.defect_group().order() == 5


def test_resource_caps_raise_resource_cap():
    with pytest.raises(ResourceCap):
        PermGroup.symmetric(5).elements(cap=100)
    with pytest.raises(ResourceCap):
        blocks.GroupAlgebra(PermGroup.symmetric(6), gfq.GF.parse("2^2"))


# -- the block-level modules against the |G|-dimensional ideal route --


def _translation_mats(ga, rows, piv, elems, side):
    """Matrices of v -> u v (left) or v -> v u (right) on the coordinates
    of a row basis of a subspace of kG."""
    if side == "right":
        return ga.right_translation_mats(rows, piv, elems)
    return [rows[:, ga.lmul_index(u.inv())][:, piv].T.copy() for u in elems]


def _coinvariants(ga, rows, piv, h):
    """span(rows) / span{v u - v : u in H} as a kG-module."""
    F = ga.field
    d = rows.shape[0]
    one = np.eye(d, dtype=np.int16)
    elems = [u for u in h.elements() if u.order() > 1]
    diffs = [F.sub(R, one).T
             for R in _translation_mats(ga, rows, piv, elems, "right")]
    W, wpiv = gfq.echelon(F, np.vstack(diffs)) if diffs else (None, [])
    left = _translation_mats(ga, rows, piv, ga.group.generators, "left")
    mats, _proj = meataxe.quotient_by_submodule(F, left, W, wpiv)
    return modules.GModule(ga.group, F, mats, dim=d - len(wpiv))


def _two_sided(ga, rows, piv, h):
    """dim of span(rows) / span{u v - v, v u - v : u in H}."""
    F = ga.field
    d = rows.shape[0]
    one = np.eye(d, dtype=np.int16)
    elems = [u for u in h.elements() if u.order() > 1]
    diffs = [F.sub(M, one).T for side in ("left", "right")
             for M in _translation_mats(ga, rows, piv, elems, side)]
    return d - (gfq.rank(F, np.vstack(diffs)) if diffs else 0)


def _ideal_route(ga, b, sylow):
    """(dim B, B (x)_S k, two-sided dim, Bi (x)_P k, P-P orbits of iBi),
    with every module a quotient of a left ideal of kG."""
    p_sub = b.defect_group()
    rows, piv = ga.ideal_rows(b.evec)
    irows, ipiv = ga.ideal_rows(b.source_idempotent(p_sub, seed=0))
    corner, cpiv = b.source_corner_rows(p_sub, seed=0)
    return (rows.shape[0], _coinvariants(ga, rows, piv, sylow),
            _two_sided(ga, rows, piv, sylow),
            _coinvariants(ga, irows, ipiv, p_sub),
            _two_sided(ga, corner, cpiv, p_sub))


def _coset_route(b, sylow):
    p_sub = b.defect_group()
    return (b.dim, b.block_sylow_module(sylow),
            b.two_sided_coinvariant_dim(sylow),
            b.source_permutation_module(p_sub, seed=0),
            b.source_orbit_count(p_sub, seed=0))


@pytest.mark.parametrize("gspec,fspec", [
    ("sym:4", "2"), ("sym:4", "3"), ("sym:5", "2"), ("sym:5", "3"),
    ("sym:5", "5"), ("alt:4", "3"), ("alt:5", "3"), ("alt:5", "2^2")])
def test_coset_route_matches_ideal_route(gspec, fspec):
    ga = blocks.GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    sylow = ga.group.sylow_subgroup(ga.field.p)
    blist = ga.blocks(seed=0)
    assert sum(b.dim for b in blist) == ga.n
    for b in blist:
        dim, bsm, two, spm, orbits = _coset_route(b, sylow)
        rdim, rbsm, rtwo, rspm, rorbits = _ideal_route(ga, b, sylow)
        assert (dim, bsm.dim, two, spm.dim, orbits) == \
            (rdim, rbsm.dim, rtwo, rspm.dim, rorbits)
        assert dim == sylow.order() * bsm.dim
        assert modules.is_isomorphic(bsm, rbsm, seed=0)
        assert modules.is_isomorphic(spm, rspm, seed=0)


def test_coset_route_s5_p5_principal():
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), gfq.GF.get(5))
    b = ga.blocks(seed=0)[0]
    dim, bsm, two, spm, orbits = _coset_route(b, ga.group.sylow_subgroup(5))
    assert (dim, bsm.dim, two, spm.dim, orbits) == (70, 14, 6, 14, 6)


def test_block_sylow_module_is_computed_once():
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), gfq.GF.get(5))
    b = ga.blocks(seed=0)[0]
    sylow = ga.group.sylow_subgroup(5)
    first = b.block_sylow_module(sylow)
    assert b.dim == 70 and b.two_sided_coinvariant_dim(sylow) == 6
    assert b.number_of_simples(sylow, seed=0) == 4
    assert b.block_sylow_module(sylow) is first
    assert len(ga._cosets) == 1


def test_dropped_group_algebra_is_freed_without_collection():
    import gc
    import weakref

    def build():
        ga = blocks.GroupAlgebra(PermGroup.symmetric(4), gfq.GF.get(3))
        b = ga.blocks(seed=0)[0]
        b.block_sylow_module(ga.group.sylow_subgroup(3))
        b.source_permutation_module(b.defect_group(), seed=0)
        b.central_character()
        return weakref.ref(ga)

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert build()() is None
    finally:
        if enabled:
            gc.enable()


def test_blocks_keep_identity_and_cached_results():
    ga = blocks.GroupAlgebra(PermGroup.symmetric(4), gfq.GF.get(3))
    sylow = ga.group.sylow_subgroup(3)
    held = ga.blocks(seed=0)[0]
    assert ga.blocks(seed=0)[0] is held
    m = ga.blocks(seed=0)[1].block_sylow_module(sylow)
    # the second Block object is gone; a new one shares its results
    assert ga.blocks(seed=0)[1].block_sylow_module(sylow) is m


def test_block_input_checks_raise_value_error():
    """A subgroup that is not Sylow, an element that P-conjugation moves,
    and an x with x[H] not H-fixed are bad input, refused with ValueError
    (not an assert)."""
    g = parse_group("sym:3")
    ga = blocks.GroupAlgebra(g, gfq.GF.get(3))
    principal = ga.blocks(seed=0)[0]
    with pytest.raises(ValueError, match="not a Sylow"):
        principal.block_sylow_module(g.trivial_subgroup())
    c3 = g.sylow_subgroup(3)
    x = np.zeros(ga.n, dtype=np.int16)
    x[[i for i, e in enumerate(ga.elems) if e.order() == 2][0]] = 1
    with pytest.raises(ValueError, match="not fixed under P-conjugation"):
        blocks.brauer_hom(ga, x, c3)
    # a transposition moves the cosets of a non-normal C_3 in S_4
    ga = blocks.GroupAlgebra(parse_group("sym:4"), gfq.GF.get(3))
    x = np.zeros(ga.n, dtype=np.int16)
    x[ga.group.index_of(Perm([0, 1, 3, 2]))] = 1
    with pytest.raises(ValueError, match="not fixed by H"):
        ga.coset_submodule(x, ga.group.subgroup([Perm([1, 2, 0, 3])]))


# -- products on index maps against the stored |G| x |G| table they replace --


def _reference_m1(ga):
    """M1[g, h] = index(g^-1 h), built breadth first on rows: for g' = s g
    the row is M1[g][index map of s^-1 on the left]."""
    n = ga.n
    M1 = np.empty((n, n), dtype=ga._itype)
    linv = [ga.lmul_index(s.inv()) for s in ga.group.generators]
    lmul = [ga.lmul_index(s) for s in ga.group.generators]
    e = ga.group.index_of(Perm.identity(ga.group.degree))
    M1[e] = np.arange(n, dtype=ga._itype)
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
    assert done.all()
    return M1


def _reference_center_mult(ga, M1):
    class_of, lists = ga.conjugacy_classes()
    c = len(lists)
    mult = np.zeros((c, c, c), dtype=np.int16)
    for a in range(c):
        rows = M1[lists[a]]
        for k in range(c):
            counts = np.bincount(class_of[rows[:, int(lists[k][0])]],
                                 minlength=c)
            mult[a, :, k] = counts % ga.field.p
    return mult


def _reference_fixed_point_algebra(b, p_sub, M1):
    ga, F = b.ga, b.ga.field
    T = b.evec[M1]  # row g is g*e
    orbit_of = blocks.orbit_labels(
        [ga.conj_index(s) for s in p_sub.generators], ga.n)
    sums = np.array([F.sum(T[orbit_of == o], axis=0)
                     for o in range(orbit_of.max() + 1)], dtype=np.int16)
    rows, piv = gfq.echelon(F, sums)
    d = rows.shape[0]
    mult = np.zeros((d, d, d), dtype=np.int16)
    for k, pk in enumerate(piv):
        mult[:, :, k] = F.matmul(rows, rows[:, M1[:, pk]].T)
    return mult, rows, piv


def _reference_left_mult_on_cosets(ga, x, h, M1):
    _perm, cos = ga.cosets(h)
    inv = M1[:, 0]  # the identity has index 0
    cols = [ga.field.sum(x[M1[inv[cos], inv[r]]], axis=1) for r in cos[:, 0]]
    return np.array(cols, dtype=np.int16).T


def _reference_convolve(ga, x, y, M1):
    F = ga.field
    out = np.zeros(ga.n, dtype=np.int16)
    for g in np.nonzero(x)[0]:
        out = F.add(out, F.mul(np.int16(x[g]), y[M1[int(g)]]))
    return out


@pytest.mark.parametrize("gspec,fspec", [
    (g, f) for g in ("sym:3", "sym:4", "sym:5", "sym:6", "alt:4", "alt:5")
    for f in ("2", "3", "5", "2^2") if (g, f) != ("sym:6", "2^2")])
def test_index_maps_match_the_stored_table(gspec, fspec):
    """Byte-identical to the |G| x |G| table route: the center's structure
    constants, products, left multiplication on k[G/Q] and B^Q
    for every block and every p-subgroup class representative Q.  B^Q is
    skipped when Q has more than 150 conjugation orbits on G (only for
    sym:6, where B^1 would be a 720-dim algebra)."""
    ga = blocks.GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    F, M1 = ga.field, _reference_m1(ga)
    assert np.array_equal(ga.center_algebra().mult,
                          _reference_center_mult(ga, M1))
    rng = np.random.default_rng(0)
    x, y = (F.array(rng.integers(0, F.q, ga.n)) for _ in range(2))
    assert np.array_equal(ga.convolve(x, y), _reference_convolve(ga, x, y, M1))
    classes = ga.group.p_subgroups_up_to_conjugacy(F.p)
    for q in classes:
        assert np.array_equal(ga.left_mult_on_cosets(x, q),
                              _reference_left_mult_on_cosets(ga, x, q, M1))
    for b in ga.blocks(seed=0):
        for q in classes:
            orbits = blocks.orbit_labels(
                [ga.conj_index(s) for s in q.generators], ga.n)
            if orbits.max() >= 150:
                continue
            alg, rows, piv = b.fixed_point_algebra(q)
            rmult, rrows, rpiv = _reference_fixed_point_algebra(b, q, M1)
            assert np.array_equal(alg.mult, rmult)
            assert np.array_equal(rows, rrows)
            assert list(piv) == list(rpiv)


def test_no_group_by_group_table_is_kept():
    """After blocks(), defect groups and a source idempotent on GF(5)S_6,
    no array reachable from the group algebra or its blocks has two axes
    of length |G| or more.  (Counting entries instead would flag the
    structure constants of the 88-dim B^P, 88^3 > 720^2 entries.)"""
    import types

    ga = blocks.GroupAlgebra(parse_group("sym:6"), gfq.GF.get(5))
    held = ga.blocks(seed=0)
    for b in held:
        b.defect_group()
    held[0].source_idempotent(held[0].defect_group(), seed=0)
    n = ga.n
    seen, stack, arrays = set(), [ga] + held, []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType, str)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj if obj.base is None else obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    assert len(arrays) > 20
    for a in arrays:
        assert sum(1 for k in np.shape(a) if k >= n) < 2, np.shape(a)


# -- hom_modules out of certified summands of k[G/H] --


def _same_bytes(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _summands_and_targets(ga):
    """(summands, targets): B (x)_S k of every block and the source
    permutation module of every block of nontrivial defect, and those
    plus k[G/S] and a plain-basis copy of the principal B (x)_S k."""
    sylow = ga.group.sylow_subgroup(ga.field.p)
    summands = []
    for b in ga.blocks(seed=0):
        summands.append(b.block_sylow_module(sylow))
        if b.defect_group().order() > 1:
            summands.append(b.source_permutation_module(b.defect_group(),
                                                        seed=0))
    plain = modules.GModule(ga.group, ga.field, summands[0].mats)
    perm = modules.GModule.permutation(ga.group, sylow, ga.field)
    return summands, summands + [perm, plain]


@pytest.mark.parametrize("gspec,fspec", [
    ("sym:4", "2"), ("sym:4", "3"), ("sym:5", "5"), ("alt:4", "2^2"),
    ("alt:5", "3"), ("alt:5", "2^2")])
def test_hom_out_of_a_summand_is_hom_space_byte_for_byte(gspec, fspec):
    """Out of a certified summand, hom_modules takes the fixed-point route
    and returns the very basis meataxe.hom_space returns."""
    ga = blocks.GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    summands, targets = _summands_and_targets(ga)
    for m in summands:
        assert m.ambient is not None
        for n in targets:
            _same_bytes(modules.hom_modules(m, n),
                        meataxe.hom_space(ga.field, m.mats, n.mats))


# the field shapes of tests/test_properties.py
_FIELDS = [gfq.GF.get(p, e) for p, e in
           [(2, 1), (7, 1), (251, 1), (2, 2), (2, 8), (3, 5), (5, 3), (13, 2)]]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 3))
def test_hom_basis_recovers_hom_space_from_any_spanning_set(F, seed, extra):
    """Random combinations of hom_space's basis that span Hom, extra of
    them dependent, go back to that basis byte for byte, over the fields
    of the property tests."""
    rng = np.random.default_rng(seed)
    g = PermGroup.symmetric(4)
    m = modules.GModule.permutation(g, g.sylow_subgroup(2), F)
    n = modules.GModule.permutation(g, g.subgroup([g.generators[0]]), F)
    ref = np.array(meataxe.hom_space(F, m.mats, n.mats))
    r = len(ref)
    while True:
        C = rng.integers(0, F.q, (r + extra, r)).astype(np.int16)
        if gfq.rank(F, C) == r:
            break
    mixed = F.matmul(C, ref.reshape(r, -1)).reshape((r + extra,)
                                                    + ref.shape[1:])
    _same_bytes(meataxe.hom_basis(F, m.mats, mixed), ref)


def test_non_idempotent_x_gets_no_ambient_and_falls_back(monkeypatch):
    """E_x is certified idempotent before kG x[H] counts as a summand:
    for 2e and for a class sum it is not, so no ambient is recorded and
    hom_modules runs hom_space, with the same result as out of the
    summand for e."""
    ga = blocks.GroupAlgebra(parse_group("sym:4"), gfq.GF.get(3))
    sylow = ga.group.sylow_subgroup(3)
    b = ga.blocks(seed=0)[0]
    summand, rows, _piv = ga.coset_submodule(b.evec, sylow)
    assert summand.ambient is not None
    _class_of, lists = ga.conjugacy_classes()
    klass = np.zeros(ga.n, dtype=np.int16)
    klass[lists[1]] = 1
    calls = []
    real = meataxe.hom_space

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meataxe, "hom_space", counting)
    double, drows, _piv = ga.coset_submodule(ga.field.add(b.evec, b.evec),
                                              sylow)
    other = ga.coset_submodule(klass, sylow)[0]
    assert double.ambient is None and other.ambient is None
    homs = modules.hom_modules(double, double)
    modules.hom_modules(other, other)
    assert len(calls) == 2
    # 2e spans what e spans
    assert np.array_equal(drows, rows)
    _same_bytes(homs, modules.hom_modules(summand, summand))
    assert len(calls) == 2


def test_corrupted_route_map_raises_under_O(failure_kinds_under_O):
    """The intertwining certificate of the fixed-point route is not an
    assert: a fixed-point map corrupted on its way out of coset_maps is
    caught under python -O."""
    assert failure_kinds_under_O("""
        import numpy as np
        from blockperm import blocks, modules
        from blockperm.permgrp import parse_group

        ga = blocks.GroupAlgebra(parse_group("sym:4"), gfq.GF.get(3))
        m = ga.blocks(seed=0)[0].block_sylow_module(
            ga.group.sylow_subgroup(3))
        real = modules.coset_maps
        print(kind(lambda: modules.hom_modules(m, m)))

        def corrupted(perm, n, U):
            stacks = real(perm, n, U)
            X = stacks[0][0]
            X[:] = np.random.default_rng(0).integers(0, 3, X.shape)
            return stacks

        modules.coset_maps = corrupted
        print(kind(lambda: modules.hom_modules(m, m)))
        """) == ["none", "cert"]


def test_summand_and_plain_module_share_one_structure(monkeypatch):
    """A summand and a plain GModule with its matrices take different
    hom_modules routes to byte-identical End(M), so one record serves
    both: one _decompose between them."""
    ga = blocks.GroupAlgebra(parse_group("sym:5"), gfq.GF.get(5))
    m = ga.blocks(seed=0)[0].block_sylow_module(ga.group.sylow_subgroup(5))
    plain = modules.GModule(ga.group, ga.field, m.mats)
    assert m.ambient is not None and plain.ambient is None
    mult, one, basis = modules._endomorphism_algebra(m)
    pmult, pone, pbasis = modules._endomorphism_algebra(plain)
    _same_bytes([mult, one] + basis, [pmult, pone] + pbasis)
    computed = []
    real = modules._decompose

    def counting(mod, seed):
        computed.append(mod)
        return real(mod, seed)

    monkeypatch.setattr(modules, "_decompose", counting)
    modules.decompose(m, seed=0)
    modules.decompose(plain, seed=0)
    assert len(computed) == 1


def _reference_coset_map(m, n, u):
    """The map k[G/H] -> n of one H-fixed u, one coset at a time along a
    breadth-first tree: a scatter on a permutation basis, else a matvec."""
    F = m.field
    imgs = m.perm_images()
    parent, order = {0: None}, [0]
    for i in order:
        for s, img in enumerate(imgs):
            j = int(img[i])
            if j not in parent:
                parent[j] = (s, i)
                order.append(j)
    X = np.zeros((n.dim, m.dim), dtype=np.int16)
    X[:, 0] = u
    for j in order[1:]:
        s, par = parent[j]
        if n.tags is not None:
            X[n.perm_images()[s], j] = X[:, par]
        else:
            X[:, j] = F.matmul(n.mats[s], X[:, par][:, None])[:, 0]
    return X


@pytest.mark.parametrize("chunk", [meataxe.CHUNK_ENTRIES, 5])
@pytest.mark.parametrize("gspec,fspec", [("sym:4", "3"), ("alt:5", "2^2")])
def test_coset_maps_match_the_per_vector_loop(monkeypatch, chunk, gspec,
                                              fspec):
    """coset_maps walks once for all vectors, by gathers into permutation
    modules and summands and by products elsewhere; each map is the one
    the old per-vector loop built."""
    monkeypatch.setattr(meataxe, "CHUNK_ENTRIES", chunk)
    ga = blocks.GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    g, F = ga.group, ga.field
    summands, _targets = _summands_and_targets(ga)
    perm = modules.GModule.permutation(g, g.sylow_subgroup(F.p), F)
    plain = modules.GModule(g, F, summands[0].mats)
    for h in (g.sylow_subgroup(F.p), g.subgroup([g.generators[0]])):
        src = modules.GModule.permutation(g, h, F)
        for n in [perm, plain] + summands:
            U = modules._fixed_vectors(h, n)
            X = np.concatenate(modules.coset_maps(src, n, U))
            assert X.shape == (len(U), n.dim, src.dim)
            for x, u in zip(X, U):
                assert np.array_equal(x, _reference_coset_map(src, n, u))
