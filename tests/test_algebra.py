import sys

import numpy as np
import pytest

from blockperm import algebra, gfq, meataxe, modules
from blockperm.blocks import GroupAlgebra
from blockperm.permgrp import Perm, PermGroup, parse_group
from test_polys import is_irreducible


def is_semisimple(a):
    """Whether the algebra's Jacobson radical is zero."""
    return a.radical_basis()[0].shape[0] == 0


def test_group_algebra_multiplication():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    a = algebra.group_algebra(F, g)
    assert a.dim == 6
    # unit element acts as identity
    x = np.zeros(6, dtype=np.int16)
    x[2] = 1
    assert np.array_equal(a.multiply(a.one, x), x)
    assert np.array_equal(a.multiply(x, a.one), x)


def test_radical_of_modular_group_algebra():
    F = gfq.GF.get(3)
    a = algebra.group_algebra(F, PermGroup.cyclic(3))
    rows, piv = a.radical_basis()
    assert rows.shape[0] == 2
    # radical elements are nilpotent here: J^3 = 0
    powers = a.radical_powers()
    assert [r.shape[0] for r in powers] == [3, 2, 1, 0]


def test_semisimple_quotient_splits():
    F = gfq.GF.get(5)
    a = algebra.group_algebra(F, PermGroup.symmetric(3))
    assert is_semisimple(a)
    abar, proj, lift = a.semisimple_quotient()
    assert abar.dim == a.dim


def test_primitive_and_central_idempotents():
    F = gfq.GF.get(7)
    a = algebra.group_algebra(F, PermGroup.cyclic(6))
    prims = a.primitive_idempotents(seed=0)
    assert len(prims) == 6
    for e in prims:
        assert a.is_idempotent(e)
    cents = a.central_primitive_idempotents(seed=0)
    total = np.zeros(a.dim, dtype=np.int16)
    for z in cents:
        total = F.add(total, z)
    assert np.array_equal(total, a.one)


def test_block_factors_partition_dimension():
    F = gfq.GF.get(3)
    a = algebra.group_algebra(F, PermGroup.symmetric(4))
    facs = a.block_factors(seed=0)
    assert sum(c.dim for c, _z in facs) == 24


def test_nakayama_algebra_shape():
    F = gfq.GF.get(7)
    n = algebra.nakayama_algebra(F, 2, 2)
    assert n.dim == 4
    shape = algebra.algebra_shape(n, seed=0)
    assert shape["simple_dims"] == [1, 1]
    assert shape["flags"]["is_nakayama"]
    assert shape["flags"]["is_self_injective"]
    assert not shape["flags"]["is_split_local"]


def test_self_injectivity_of_group_algebra():
    # group algebras are Frobenius, hence self-injective
    F = gfq.GF.get(2)
    a = algebra.group_algebra(F, PermGroup.symmetric(3))
    ok, pairs = a.self_injective_witness(seed=0)
    assert ok
    assert len(pairs) > 0


def test_self_injectivity_failure_detected():
    # k[x,y]/(x,y)^2: local, radical square zero of dim 3, not self-injective
    F = gfq.GF.get(5)
    mult = np.zeros((3, 3, 3), dtype=np.int16)
    one = np.array([1, 0, 0], dtype=np.int16)
    for i in range(3):
        mult[0, i, i] = 1
        mult[i, 0, i] = 1
    a = algebra.FinDimAlgebra(F, mult, one)
    assert a.is_local()
    ok, _w = a.self_injective_witness(seed=0)
    assert not ok


def test_group_algebra_is_symmetric_with_standard_form():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    a = algebra.group_algebra(F, g)
    flag, witnesses = a.is_symmetric(seed=0)
    assert flag
    # the standard symmetrizing form picks out the identity coefficient
    e_idx = [i for i, el in enumerate(g.elements()) if el.is_identity()][0]
    std = np.zeros(a.dim, dtype=np.int16)
    std[e_idx] = 1
    assert any(np.array_equal(w, std) for w in witnesses)


def test_center_of_group_algebra():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(3)
    a = algebra.group_algebra(F, g)
    z = a.center()[0]
    assert z.dim == 3   # three conjugacy classes


def test_corner_algebra():
    F = gfq.GF.get(7)
    a = algebra.nakayama_algebra(F, 2, 2)
    prims = a.primitive_idempotents(seed=0)
    C, rows, piv = a.corner(prims[0])
    assert C.dim == rows.shape[0]
    assert C.is_local()


def test_json_round_trip():
    F = gfq.GF.get(2, 2)
    a = algebra.nakayama_algebra(F, 3, 2)
    b = algebra.FinDimAlgebra.from_json(a.to_json())
    assert b.dim == a.dim
    assert np.array_equal(a.mult, b.mult)
    assert a.dumps() == b.dumps()


def test_json_coefficients_enter_as_reduced_codes():
    """The gfq kernels take reduced codes.  An algebra read from JSON with
    coefficients such as 7 and -1 over GF(7) is the algebra with the same
    coefficients in 0..6, down to the blocked echelon (over 4096 entries)
    on its left multiplication matrices."""
    F = gfq.GF.get(7)
    a = algebra.group_algebra(F, PermGroup.cyclic(21))
    data = a.to_json()
    rng = np.random.default_rng(0)
    nonzero = {tuple(t[:3]) for t in data["products"]}
    products = [[i, j, k, c + 7 * int(rng.integers(-2, 3))]
                for i, j, k, c in data["products"]]
    products += [[i, j, k, 7] for i in range(3) for j in range(3)
                 for k in range(a.dim) if (i, j, k) not in nonzero]
    products[0][3] = -6  # the coefficient 1 written as -6
    one = [c + 7 * (-1) ** n for n, c in enumerate(data["one"])]
    assert min(t[3] for t in products) < 0 and 7 in [t[3] for t in products]
    b = algebra.FinDimAlgebra.from_json(dict(data, products=products,
                                             one=one))
    assert np.array_equal(a.mult, b.mult)
    assert np.array_equal(a.one, b.one)
    stacked = np.vstack(b.left_mats())
    assert stacked.size > 4096
    assert gfq.rank(F, stacked) == gfq.rank(F, np.vstack(a.left_mats()))
    for x, y in zip(a.radical_basis(), b.radical_basis()):
        assert np.array_equal(x, y)
    assert b.center()[0].dim == a.center()[0].dim == a.dim
    # over an extension field there is no reduction: such codes are refused
    g4 = algebra.nakayama_algebra(gfq.GF.get(2, 2), 2, 2).to_json()
    g4["products"][0][3] = -1
    with pytest.raises(ValueError):
        algebra.FinDimAlgebra.from_json(g4)


def test_split_local_detection():
    F = gfq.GF.get(3)
    a = algebra.group_algebra(F, PermGroup.cyclic(9))
    assert a.is_local()
    assert a.is_split_local()


def _loop_products(F, a, x, lam, combo, rows):
    """lmul_of, rmul_of, gram_of_form and _combine_rows as sums of scaled
    basis matrices, one F.add and F.mul per coordinate."""
    d = a.dim
    lm = np.zeros((d, d), dtype=np.int16)
    rm = np.zeros((d, d), dtype=np.int16)
    for i in range(d):
        lm = F.add(lm, F.mul(np.int16(x[i]), a.mult[i].T))
        rm = F.add(rm, F.mul(np.int16(x[i]), a.mult[:, i, :].T))
    gram = np.zeros((d, d), dtype=np.int16)
    for k in range(d):
        gram = F.add(gram, F.mul(np.int16(lam[k]), a.mult[:, :, k]))
    comb = np.zeros(rows.shape[1], dtype=np.int16)
    for i in range(rows.shape[0]):
        comb = F.add(comb, F.mul(np.int16(combo[i]), rows[i]))
    return lm, rm, gram, comb


@pytest.mark.parametrize("p,e", [(5, 1), (2, 2), (3, 2), (2, 8)])
def test_element_products_match_coordinate_loops(p, e):
    F = gfq.GF.get(p, e)
    rng = np.random.default_rng(7 * p + e)
    for d in (1, 6, 13):
        mult = rng.integers(0, F.q, (d, d, d))
        a = algebra.FinDimAlgebra(F, mult, rng.integers(0, F.q, d))
        x, lam = rng.integers(0, F.q, (2, d)).astype(np.int16)
        combo = rng.integers(0, F.q, 4).astype(np.int16)
        rows = rng.integers(0, F.q, (4, d)).astype(np.int16)
        lm, rm, gram, comb = _loop_products(F, a, x, lam, combo, rows)
        assert np.array_equal(a.lmul_of(x), lm)
        assert np.array_equal(a.rmul_of(x), rm)
        assert np.array_equal(a.gram_of_form(lam), gram)
        assert np.array_equal(algebra._combine_rows(F, combo, rows), comb)


# -- the trace-functional radical against the MeatAxe radical --


def _matrix_algebra(F, n):
    """M_n(F) on the basis E_ij (index i n + j): E_ij E_jl = E_il."""
    d = n * n
    mult = np.zeros((d, d, d), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mult[i * n + j, j * n + l, i * n + l] = 1
    return algebra.FinDimAlgebra(F, mult, np.eye(n, dtype=np.int16).ravel())


def _klein4():
    return PermGroup(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])


def _assert_meataxe_radical(a):
    """radical_basis equals the MeatAxe radical of the regular module,
    RREF rows and pivots, and its powers end at zero."""
    R, piv = a.radical_basis()
    R0, piv0 = meataxe.module_radical(a.field, a.left_mats())
    assert np.array_equal(R, R0) and list(piv) == list(piv0)
    powers = a.radical_powers()
    assert np.array_equal(powers[1], R) and powers[-1].shape[0] == 0


GROUPS = {"C2xC2": _klein4, "S3": lambda: PermGroup.symmetric(3),
          "D8": lambda: PermGroup.sylow_of_symmetric(4, 2),
          "A4": lambda: PermGroup.alternating(4)}


@pytest.mark.parametrize("q", ["2", "3", "4", "8", "9", "2^8"])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_trace_radical_of_group_algebras(group, q):
    _assert_meataxe_radical(
        algebra.group_algebra(gfq.GF.parse(q), GROUPS[group]()))


@pytest.mark.parametrize("spec,sub,q", [
    ("sym:4", [[1, 0, 2, 3], [1, 2, 0, 3]], "3"),
    ("alt:5", [[1, 2, 0, 3, 4], [0, 2, 3, 1, 4]], "2"),
    ("sym:5", [[1, 2, 3, 4, 0]], "5"),
    ("alt:4", [[1, 2, 0, 3]], "4")])
def test_trace_radical_of_permutation_module_endomorphisms(spec, sub, q):
    """End_kG(k[G/H]) for a point stabilizer or a cyclic H."""
    g = parse_group(spec)
    m = modules.GModule.permutation(g, g.subgroup([Perm(x) for x in sub]),
                                    gfq.GF.parse(q))
    _assert_meataxe_radical(modules.endomorphism_algebra(m)[0])


def test_trace_radical_of_a_corner():
    a = algebra.group_algebra(gfq.GF.get(3), PermGroup.symmetric(4))
    prims = a.primitive_idempotents(seed=0)
    e = a.field.add(prims[0], prims[-1])
    C, _rows, _piv = a.corner(e)
    assert 1 < C.dim < a.dim
    _assert_meataxe_radical(C)


@pytest.mark.parametrize("q,n", [("2", 4), ("2", 9), ("3", 9), ("3", 10),
                                 ("5", 25), ("4", 5), ("9", 9)])
def test_trace_radical_of_truncated_polynomials(q, n):
    """GF(q)[x]/(x^n) with n >= p^2: the levels i >= 2 run."""
    a = algebra.nakayama_algebra(gfq.GF.parse(q), 1, n)
    _assert_meataxe_radical(a)
    assert a.radical_basis()[0].shape[0] == n - 1


@pytest.mark.parametrize("a", [
    _matrix_algebra(gfq.GF.get(2), 2), _matrix_algebra(gfq.GF.get(3), 2),
    _matrix_algebra(gfq.GF.get(2, 2), 2),
    algebra.group_algebra(gfq.GF.get(5), PermGroup.symmetric(3))],
    ids=["M2(GF2)", "M2(GF3)", "M2(GF4)", "GF5S3"])
def test_trace_radical_of_semisimple_algebras(a):
    """Semisimple with p <= dim: the trace form of M_2(GF(2)) is zero, so
    J = 0 comes from the higher levels."""
    _assert_meataxe_radical(a)
    assert is_semisimple(a)


def _search_semisimple_primitives(S, seed):
    """The splitting before the factor split, kept as a reference: an
    invertible candidate is dropped unless its minimal polynomial certifies
    a field, and random elements follow the basis elements until one is
    singular."""
    rng = np.random.default_rng(seed)
    out = []

    def split(alg, e_outer, embed):
        d = alg.dim
        if d == 1:
            out.append(e_outer)
            return
        F = alg.field
        tries = 0
        cand_idx = 0
        while tries < 4000:
            tries += 1
            if cand_idx < d:
                z = np.zeros(d, dtype=np.int16)
                z[cand_idx] = 1
                cand_idx += 1
            else:
                z = rng.integers(0, F.q, d).astype(np.int16)
            if not z.any():
                continue
            lz = alg.lmul_of(z)
            rk = gfq.rank(F, lz)
            if rk == 0:
                continue
            if rk == d:
                mp = alg.minpoly_of(z)
                if len(mp) - 1 == d and is_irreducible(F, mp):
                    out.append(e_outer)
                    return
                continue
            rz = alg.rmul_of(z)
            V, vpiv = gfq.echelon(F, rz.T)
            nv = V.shape[0]
            M = algebra._products(F, alg.mult, V, V).transpose(0, 2, 1)
            c = gfq.solve(F, M.reshape(nv * d, nv), V.reshape(-1))
            if c is None:
                raise gfq.CertificateError("no right identity in left ideal")
            g = F.matmul(V.T, c[:, None])[:, 0]
            g2 = F.sub(alg.one, g)
            if not (alg.is_idempotent(g) and g.any() and g2.any()):
                raise gfq.CertificateError("right identity of a proper left "
                                           "ideal is not a proper idempotent")
            for part in (g, g2):
                C, rows2, piv2 = alg.corner(part)
                emb2 = F.matmul(rows2, embed) if embed is not None else rows2
                eo = F.matmul(embed.T, part[:, None])[:, 0] \
                    if embed is not None else part
                split(C, eo, emb2)
            return
        raise RuntimeError("could not split semisimple algebra")

    split(S, S.one, None)
    return out


SPLIT_GROUPS = ["sym:3", "sym:4", "sym:5", "alt:4", "alt:5", "cyclic:3"]
SPLIT_FIELDS = ["2", "2^2", "5", "2^8"]


def _block_bytes(gspec, fspec, seed):
    ga = GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
    return [b.evec.tobytes() for b in ga.blocks(seed=seed)]


@pytest.mark.parametrize("fspec", SPLIT_FIELDS)
@pytest.mark.parametrize("gspec", SPLIT_GROUPS)
def test_factor_split_gives_the_searched_block_idempotents(
        gspec, fspec, monkeypatch):
    """Central primitive idempotents are unique and blocks sort them, so
    splitting along factors of minimal polynomials gives the same block
    idempotents, byte for byte, as the search for singular elements."""
    for seed in (0, 1, 2):
        new = _block_bytes(gspec, fspec, seed)
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_semisimple_primitives",
                       _search_semisimple_primitives)
            assert _block_bytes(gspec, fspec, seed) == new


@pytest.mark.parametrize("fspec", SPLIT_FIELDS)
@pytest.mark.parametrize("gspec", SPLIT_GROUPS)
def test_factor_split_draws_no_random_candidate(gspec, fspec, monkeypatch):
    """On the centers of these group algebras a basis element always
    splits or certifies a field: split never reaches its rng."""
    draws = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, *args, **kwargs):
            self._rng = default_rng(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def integers(self, *args, **kwargs):
            draws.append(sys._getframe(1).f_code.co_name)
            return self._rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    for seed in (0, 1, 2):
        ga = GroupAlgebra(parse_group(gspec), gfq.GF.parse(fspec))
        assert len(ga.center_algebra().primitive_idempotents(seed=seed)) \
            == len(ga.blocks(seed=seed))
    assert "split" not in draws


def test_split_along_a_non_factor_is_refused(failure_kinds_under_O):
    """f(z) for a factor f that does not divide the minimal polynomial of
    z, or for m itself, is no zero divisor; the explicit rank check refuses
    it, also under python -O."""
    assert failure_kinds_under_O("""
        import numpy as np
        from blockperm import algebra, gfq, polys
        from blockperm.permgrp import PermGroup
        a = algebra.group_algebra(gfq.GF.get(5), PermGroup.cyclic(2))

        def refusal():
            try:
                algebra._semisimple_primitives(a, 0)
            except gfq.CertificateError as exc:
                return "zero-divisor" if "zero divisor" in str(exc) \\
                    else "other-cert"
            return "none"

        print(refusal())
        x = np.array([0, 1], np.int16)
        # x is not a factor of x^2 - 1: f(z) = z is invertible
        polys.factor = lambda F, f, seed=0: [(x, 1), (x, 1)]
        print(refusal())
        # x^2 - 1 itself is a factor but not a proper one: f(z) = 0
        polys.factor = lambda F, f, seed=0: [(f, 1), (f, 1)]
        print(refusal())
        """) == ["none", "zero-divisor", "zero-divisor"]
