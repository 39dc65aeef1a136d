"""Sylow subgroups, defect groups and orders without the class search.

PermGroup.sylow_subgroup grows its subgroup through normalizers,
Block.defect_group decides the Sylow and the trivial end from Brauer
quotients, and symmetric()/alternating() record their orders.  Each must
give exactly what the code it replaces gave: the reference functions below
are that code (the largest p-subgroup class, the scan of every class, the
Schreier-Sims order, the word dictionary over the walk).
"""

import math

import numpy as np
import pytest

from blockperm import blocks, gfq, modules, permgrp
from blockperm.permgrp import Perm, PermGroup, parse_group


def reference_sylow(g, p):
    """The largest class of the p-subgroup class search."""
    return max(g.p_subgroups_up_to_conjugacy(p), key=lambda h: h.order())


def reference_defect_group(b):
    """The first class of largest order with a nonzero Brauer quotient."""
    best = None
    for q in b.ga.group.p_subgroups_up_to_conjugacy(b.ga.field.p):
        if b.brauer_quotient_nonzero(q):
            if best is None or q.order() > best.order():
                best = q
    return best.with_small_generators()


def reference_words(g):
    """Each element's word, read off a dictionary over the walk."""
    rows, _keys, gen, parent = g._span(g._generator_array())
    out = {}
    for i, img in enumerate(map(tuple, rows.tolist())):
        word, j = [], i
        while j:
            word.append(int(gen[j]))
            j = int(parent[j])
        out[img] = tuple(word)
    return out


def _same_group(a, b):
    return ([x.img for x in a.generators] == [x.img for x in b.generators]
            and np.array_equal(a.image_array(), b.image_array())
            and a.name == b.name)


GROUPS = ["sym:%d" % n for n in range(3, 8)] + \
    ["alt:%d" % n for n in range(4, 8)]


@pytest.mark.parametrize("spec", GROUPS)
def test_grown_sylow_is_the_class_search_representative(spec):
    order = parse_group(spec).order()
    for p in [q for q in (2, 3, 5, 7) if order % q == 0]:  # degree <= 7
        grown = parse_group(spec).sylow_subgroup(p)
        assert _same_group(grown, reference_sylow(parse_group(spec), p))
        assert grown.order() % p == 0 and (order // grown.order()) % p
    # a prime not dividing |G| has the trivial Sylow subgroup
    g = parse_group(spec)
    assert g.sylow_subgroup(11).order() == 1
    assert _same_group(g.sylow_subgroup(11), reference_sylow(g, 11))


DEFECT_CASES = [(s, q) for s in GROUPS if s not in ("sym:7", "alt:7")
                for q in ("5", "7")] + \
    [("sym:7", "5"), ("sym:7", "7"), ("alt:4", "4"), ("alt:5", "4"),
     ("sym:5", "2")]


@pytest.mark.parametrize("spec,field", DEFECT_CASES,
                         ids=["%s/GF(%s)" % c for c in DEFECT_CASES])
def test_defect_groups_match_the_class_scan(spec, field):
    ga = blocks.GroupAlgebra(parse_group(spec), gfq.GF.parse(field))
    ref = blocks.GroupAlgebra(parse_group(spec), gfq.GF.parse(field))
    got = [b.defect_group() for b in ga.blocks(seed=0)]
    want = [reference_defect_group(b) for b in ref.blocks(seed=0)]
    assert len(got) == len(want)
    assert all(_same_group(a, b) for a, b in zip(got, want))


def test_intermediate_defect_group_of_s5_mod_2():
    """The non-principal 2-block of S_5 has a defect group strictly
    between 1 and the Sylow subgroup: the one case that scans classes."""
    ga = blocks.GroupAlgebra(PermGroup.symmetric(5), gfq.GF.get(2))
    b = ga.blocks(seed=0)[1]
    assert not b.brauer_quotient_nonzero(ga.group.sylow_subgroup(2))
    assert b.defect_group().order() == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_named_orders_match_schreier_sims(n):
    for g in (PermGroup.symmetric(n), PermGroup.alternating(n)):
        chain = permgrp._schreier_sims(g.generators, g.degree)
        assert g.order() == math.prod(len(t) for _, t, _ in chain)
        assert g._arr is None   # the order did not need the elements


def test_materializing_sym_and_alt_runs_no_schreier_sims(monkeypatch):
    def refuse(*args):
        raise AssertionError("Schreier-Sims ran")
    monkeypatch.setattr(permgrp, "_schreier_sims", refuse)
    assert len(PermGroup.symmetric(6).image_array()) == 720
    assert len(PermGroup.alternating(6).image_array()) == 360


def test_wrong_generators_fail_the_element_count_under_O(
        failure_kinds_under_O):
    assert failure_kinds_under_O("""
        from blockperm.permgrp import Perm, PermGroup
        print(kind(PermGroup.symmetric(5).image_array))
        g = PermGroup.symmetric(5)
        g.generators = [Perm([1, 2, 3, 4, 0])]      # C_5, not S_5
        print(kind(g.image_array))
        a = PermGroup.alternating(5)
        a.generators = a.generators + [Perm([1, 0, 2, 3, 4])]   # odd
        print(kind(a.image_array))
        """) == ["none", "cert", "cert"]


def test_block_path_runs_no_class_search(monkeypatch):
    def refuse(self, p):
        raise AssertionError("p-subgroup class search ran")
    monkeypatch.setattr(PermGroup, "p_subgroups_up_to_conjugacy", refuse)
    g = PermGroup.symmetric(5)
    F = gfq.GF.get(5)
    bl = blocks.GroupAlgebra(g, F).blocks(seed=0)
    assert [b.defect_group().order() for b in bl] == [5, 1, 1]
    assert [b.dim for b in bl] == [70, 25, 25]
    bsm = bl[0].block_sylow_module(g.sylow_subgroup(5))
    assert bsm.dim == 14
    assert [modules.is_projective(s.module)
            for s in modules.decompose(bsm, 0)] == [False] * 4


@pytest.mark.parametrize("spec", ["sym:7", "alt:5"])
def test_words_from_the_materializing_walk(spec):
    """Words read off the walk that materialized the group equal the words
    of an unmaterialized group and of the dictionary over the walk."""
    done, fresh = parse_group(spec), parse_group(spec)
    done.image_array()
    want = reference_words(parse_group(spec))
    elems = done.elements()
    for x in elems[::7]:
        assert done.generator_word(x) == fresh.generator_word(x) == \
            want[x.img]
    assert fresh._arr is None
    if spec.startswith("alt"):
        with pytest.raises(KeyError):
            done.generator_word(Perm([1, 0, 2, 3, 4]))


def test_rep_of_under_a_small_cap(monkeypatch):
    """rep_of on sym:7's natural module needs no materialized group and
    gives the same matrices with and without the cap."""
    F = gfq.GF.get(7)

    def natural(g):
        mats = []
        for s in g.generators:
            M = np.zeros((7, 7), dtype=np.int16)
            M[list(s.img), range(7)] = 1
            mats.append(M)
        return modules.GModule(g, F, mats)

    g = PermGroup.symmetric(7)
    m = natural(g)
    sample = g.elements()[::97]
    want = [m.rep_of(x) for x in sample]
    monkeypatch.setenv("BLOCKPERM_CAP", "10")
    n = natural(PermGroup.symmetric(7))
    for x, M in zip(sample, want):
        assert np.array_equal(n.rep_of(x), M)
        P = np.zeros((7, 7), dtype=np.int16)
        P[list(x.img), range(7)] = 1
        assert np.array_equal(M, P)
    assert n.group._arr is None
