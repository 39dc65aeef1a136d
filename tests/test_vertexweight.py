import numpy as np
import pytest

from blockperm import blocks, gfq, meataxe, modules, vertexweight
from blockperm.modules import GModule
from blockperm.permgrp import PermGroup, parse_group
from test_cli import _python_O


def brauer_construction(m, q):
    """The Brauer construction M(Q) of a module with a permutation basis.

    The Q-fixed basis points span a complement-stable subspace mod the
    span of the nontrivial orbits; N_G(Q) permutes the fixed points, and
    M(Q) is returned as a module over the normalizer (over G itself when
    Q is trivial).
    """
    if m.tags is None:
        raise ValueError("module has no declared permutation basis")
    if q.order() == 1:
        return m
    n = m.group.normalizer(q).with_small_generators()
    fixed = vertexweight.fixed_basis_points(m, q)
    idx = {int(j): a for a, j in enumerate(fixed)}
    mats = []
    for s in n.generators:
        M = m.rep_of(s)
        out = np.zeros((len(fixed), len(fixed)), dtype=np.int16)
        for a, j in enumerate(fixed):
            col = np.nonzero(M[:, j])[0]
            if len(col) != 1 or M[col[0], j] != 1:
                raise ValueError("action is not by permutation matrices")
            out[idx[int(col[0])], a] = 1
        mats.append(out)
    return GModule(n, m.field, mats, name="brauer(%s)" % (m.name or "M"),
                   dim=len(fixed))


def test_relative_trace_span_trivial_subgroup_rejected():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    m = GModule.trivial(g, F)
    with pytest.raises(ValueError):
        vertexweight.relative_trace_span(m, g.trivial_subgroup())


def test_projective_module_has_trivial_vertex():
    F = gfq.GF.get(3)
    g = PermGroup.symmetric(3)
    m = GModule.regular(g, F)
    v = vertexweight.vertex(m)
    assert v.order() == 1


def test_trivial_module_has_sylow_vertex():
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(4)
    m = GModule.trivial(g, F)
    cert = vertexweight.vertex_certificate(m)
    assert cert.vertex.order() == 8
    # the certificate records a verdict for each subgroup class tried
    assert any(v for _o, v in cert.witnesses)


def test_vertex_is_p_group_and_module_relatively_projective():
    F = gfq.GF.get(2)
    g = PermGroup.alternating(5)
    h = g.sylow_subgroup(5)
    m = GModule.permutation(g, h, F)
    for s in modules.decompose(m, seed=0):
        v = vertexweight.vertex(s.module)
        assert g.order() % v.order() == 0
        if v.order() > 1:
            assert vertexweight.is_relatively_projective(s.module, v)


def test_brauer_construction_of_permutation_module():
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(4)
    p = g.sylow_subgroup(2)
    # no 2-group fixes a coset of C3, so the construction vanishes
    m3 = GModule.permutation(g, g.sylow_subgroup(3), F)
    assert brauer_construction(m3, p).dim == 0
    # on G/P the Sylow fixes exactly its own coset (P is self-normalizing)
    mp = GModule.permutation(g, p, F)
    br = brauer_construction(mp, p)
    assert br.dim == 1
    assert br.group.order() == 8


def test_brauer_construction_trivial_q_is_identity():
    F = gfq.GF.get(2)
    g = PermGroup.symmetric(3)
    m = GModule.permutation(g, g.trivial_subgroup(), F)
    br = brauer_construction(m, g.trivial_subgroup())
    assert br.dim == m.dim


def test_green_correspondent_round_trip():
    F = gfq.GF.get(2)
    g = PermGroup.alternating(4)
    triv = GModule.trivial(g, F)
    q = vertexweight.vertex(triv)
    assert q.order() == 4
    n = g.normalizer(q).with_small_generators()
    f_of_m = vertexweight.green_correspondent(triv, g, q, seed=0)
    assert f_of_m.group.order() == n.order()
    assert vertexweight.vertex(f_of_m).order() == 4


def test_weights_count_s5_p5():
    F = gfq.GF.get(5)
    g = PermGroup.symmetric(5)
    ws = vertexweight.weights(g, F, seed=0)
    assert len(ws) == 4
    for w in ws:
        assert w.q.order() == 5
        assert w.module.group.order() == 20


def test_weights_of_one_q_share_one_normalizer_algebra():
    """The four weights of S_5 at p = 5 have one Q and carry one k[N_G(Q)],
    whose blocks block_of_weight reads; dropped with the weights, the
    algebra is freed at once with the garbage collector off."""
    import gc
    import weakref

    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), gfq.GF.get(5))

    def build():
        ws = vertexweight.weights(ga.group, ga.field, seed=0)
        gan = ws[0].normalizer_algebra
        assert all(w.normalizer_algebra is gan for w in ws)
        assert all(w.normalizer is gan.group for w in ws)
        principal = ga.blocks(seed=0)[0]
        assert all(vertexweight.block_of_weight(ga, w, seed=0) is principal
                   for w in ws)
        assert gan._blocks is not None
        return weakref.ref(gan)

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert build()() is None
    finally:
        if enabled:
            gc.enable()


def test_weight_count_equals_num_simples_a4_p2():
    F = gfq.GF.get(2, 2)
    g = PermGroup.alternating(4)
    ga = blocks.GroupAlgebra(g, F)
    b = [x for x in ga.blocks(seed=0) if x.is_principal][0]
    count = vertexweight.weight_count_for_block(ga, b, seed=0)
    sylow = g.sylow_subgroup(2)
    assert count == b.number_of_simples(sylow, seed=0) == 3


def test_defect_zero_weight_count():
    F = gfq.GF.get(3)
    ga = blocks.GroupAlgebra(PermGroup.symmetric(4), F)
    # S4 at p=3: one block of defect zero (the 3-dim pair contributes two)
    assert vertexweight.defect_zero_weight_count(ga, seed=0) == 2


def _trace_span_by_pairs(m, q):
    """relative_trace_span as two products per (coset representative,
    span element), the form the stacked products replaced."""
    F = m.field
    qmats = [m.rep_of(x) for x in q.generators]
    span = meataxe.hom_space(F, qmats, qmats)
    chain = [q]
    n = m.group.normalizer(q).with_small_generators()
    if q.order() < n.order() < m.group.order():
        chain.append(n)
    chain.append(m.group)
    for lower, upper in zip(chain, chain[1:]):
        reps, _images = upper.coset_action(lower)
        traced = [np.zeros((0, m.dim * m.dim), dtype=np.int16)]
        for X in span:
            acc = np.zeros_like(X)
            for t in reps:
                acc = F.add(acc, F.matmul(m.rep_of(t),
                                          F.matmul(X, m.rep_of(t.inv()))))
            traced.append(acc.reshape(1, -1))
        R, _piv = gfq.echelon(F, np.vstack(traced))
        span = [R[i].reshape(m.dim, m.dim) for i in range(R.shape[0])]
    return span


@pytest.mark.parametrize("spec,sub,field,qp", [
    ("sym:5", 5, (5, 1), 5), ("alt:5", 2, (2, 1), 2),
    ("alt:4", 3, (2, 2), 2)])
def test_relative_trace_span_matches_pairwise_products(spec, sub, field, qp):
    """On k[G/H] for a Sylow subgroup H of G, relative to the smallest
    nontrivial p-subgroup class and to the largest."""
    g = parse_group(spec)
    F = gfq.GF.get(*field)
    m = GModule.permutation(g, g.sylow_subgroup(sub), F)
    classes = g.p_subgroups_up_to_conjugacy(qp)
    for q in (classes[1], classes[-1]):
        got = vertexweight.relative_trace_span(m, q)
        want = _trace_span_by_pairs(m, q)
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_brauer_construction_refuses_a_module_without_permutation_basis():
    g = parse_group("sym:3")
    m = GModule.trivial(g, gfq.GF.get(3))
    with pytest.raises(ValueError, match="no declared permutation basis"):
        brauer_construction(m, g.sylow_subgroup(3))


def _route_equality_cases():
    cases = []
    for spec in ("sym:3", "sym:4", "sym:5", "alt:4", "alt:5"):
        order = parse_group(spec).order()
        cases += [(spec, (p, 1)) for p in (2, 3, 5) if order % p == 0]
    return cases + [("alt:4", (2, 2)), ("sym:4", (2, 2)), ("alt:5", (2, 2))]


@pytest.mark.parametrize("spec,field", _route_equality_cases())
def test_brauer_route_returns_higman_vertex(spec, field):
    """Every summand of k[G/H], for H a p-subgroup class representative or
    a Sylow subgroup of index <= 60, takes the Brauer route, and its
    vertex is the very class representative Higman's criterion returns on
    a plain copy of the summand, which has no provenance."""
    g = parse_group(spec)
    F = gfq.GF.get(*field)
    subs = [g.sylow_subgroup(r) for r in (2, 3, 5) if g.order() % r == 0]
    subs += g.p_subgroups_up_to_conjugacy(F.p)
    count = 0
    for h in subs:
        if g.order() // h.order() > 60:
            continue
        m = GModule.permutation(g, h, F)
        for s in modules.decompose(m, seed=0):
            assert s.module.provenance[0] is m
            cert = vertexweight.vertex_certificate(s.module)
            assert cert.route == "brauer"
            plain = GModule(g, F, s.module.mats, dim=s.module.dim)
            want, _witnesses = vertexweight._higman_vertex(plain)
            assert cert.vertex is want
            assert cert.witnesses[-1] == (want.order(), True)
            assert not any(hit for _o, hit in cert.witnesses[:-1])
            count += 1
    assert count > 0
    # the trivial module has a summand's matrices, and so its record; on a
    # fresh group it has no record and takes Higman's route
    triv = GModule.trivial(g, F)
    assert vertexweight.vertex_certificate(triv).route == "brauer"
    triv = GModule.trivial(parse_group(spec), F)
    assert vertexweight.vertex_certificate(triv).route == "higman"


@pytest.mark.parametrize("spec,p,want", [
    ("sym:6", 3, [[1, 1, 9], [1, 1, 9], [9, 1, 1], [9, 1, 1], [10, 1, 9],
                  [10, 1, 9], [20, 2, 9]]),
    ("alt:6", 2, [[1, 1, 8], [14, 1, 4], [14, 1, 4], [16, 1, 1]])])
def test_sylow_permutation_summands_need_no_relative_trace(monkeypatch, spec,
                                                           p, want):
    """The summands of k[G/Syl_p] get their vertices from Brauer quotients
    alone: with the relative trace and the projectivity test made to
    raise, they still get the vertex orders the benchmark records."""
    def refuse(*args):
        raise AssertionError("Higman's criterion was run")

    monkeypatch.setattr(vertexweight, "relative_trace_span", refuse)
    monkeypatch.setattr(modules, "is_projective", refuse)
    g = parse_group(spec)
    m = GModule.permutation(g, g.sylow_subgroup(p), gfq.GF.get(p))
    got = sorted([s.module.dim, s.multiplicity,
                  vertexweight.vertex(s.module).order()]
                 for s in modules.decompose(m, seed=0))
    assert got == want


def test_brauer_route_certificates_run_under_python_O():
    """k[S_3/C_2] over GF(3) is one projective summand with e = 1.  A
    provenance idempotent that is not idempotent (2e), or that is an
    idempotent but no kG-map (a matrix unit), raises CertificateError with
    asserts stripped."""
    script = "\n".join([
        "import numpy as np",
        "from blockperm import gfq, modules, vertexweight",
        "from blockperm.permgrp import PermGroup",
        "for bad in (lambda e: 2 * e, lambda e: np.diag([1, 0, 0])):",
        "    g = PermGroup.symmetric(3)",
        "    m = modules.GModule.permutation(g, g.sylow_subgroup(2),",
        "                                    gfq.GF.get(3))",
        "    [s] = modules.decompose(m, seed=0)",
        "    v, e = s.module.provenance",
        "    s.module.provenance = (v, bad(e).astype(np.int16))",
        "    try:",
        "        vertexweight.vertex(s.module)",
        "    except gfq.CertificateError as exc:",
        "        print(exc)"])
    proc = _python_O("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "provenance idempotent is not one",
        "provenance idempotent is not a kG-endomorphism"]
