import json

import numpy as np
import pytest

from blockperm import algebra, brauertree, gfq
from blockperm.brauertree import BrauerTree, NakayamaDescriptor


def test_line_tree_shape():
    t = brauertree.line_tree(6)
    assert t.edges == list(range(6))
    # ends maps each edge to its two endpoints
    assert all(len(vs) == 2 for vs in t.ends.values())
    leaves = [v for v, cyc in t.cycles.items() if len(cyc) == 1]
    assert len(leaves) == 2
    assert t.exceptional is None
    assert t.multiplicity_at(0) == 1


def test_star_tree_exceptional():
    t = brauertree.star_tree(3, m=2)
    assert len(t.edges) == 3
    centre, m = t.exceptional
    assert m == 2
    assert t.multiplicity_at(centre) == 2


def test_tree_validation_rejects_cycles():
    with pytest.raises((ValueError, AssertionError)):
        BrauerTree(vertices=[(0, [0, 2]), (1, [0, 1]), (2, [1, 2])],
                   exceptional=None)


def test_json_round_trip():
    t = brauertree.star_tree(4, m=3)
    t2 = BrauerTree.from_json(json.loads(json.dumps(t.to_json())))
    assert t2.edges == t.edges
    assert t2.exceptional == t.exceptional


def random_tree(rng, num_edges, allow_exceptional=True):
    """A random Brauer tree with the given number of edges."""
    parents = [int(rng.integers(0, v)) for v in range(1, num_edges + 1)]
    cycles = {v: [] for v in range(num_edges + 2 - 1)}
    for e, par in enumerate(parents):
        cycles[par].append(e)
        cycles[e + 1].append(e)
    for cyc in cycles.values():
        rng.shuffle(cyc)
    exc = None
    if allow_exceptional and rng.integers(0, 2):
        exc = (int(rng.integers(0, num_edges + 1)), int(rng.integers(2, 5)))
    return BrauerTree(sorted(cycles.items()), exceptional=exc)


def test_rho_sigma_composite_is_transitive():
    """rho∘sigma acts as a single cycle on the edges, for random trees."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        t = random_tree(rng, n)
        rho, sigma = brauertree.rho_sigma(t)
        cur = 0
        seen = set()
        for _step in range(n):
            seen.add(cur)
            cur = rho[sigma[cur]]
        assert seen == set(range(n))


def test_projective_loewy_line_tree():
    line6 = brauertree.line_tree(6)
    assert brauertree.projective_loewy(line6, 0) == [[0], [1], [0]]
    assert brauertree.projective_loewy(line6, 2) == [[2], [1, 3], [2]]


def test_projective_loewy_star_with_multiplicity():
    star = brauertree.star_tree(3, m=2)
    layers = brauertree.projective_loewy(star, 0)
    # uniserial of length 3*2 + 1 = 7
    assert len(layers) == 7
    assert all(len(l) == 1 for l in layers)


def test_end_of_u_sum_line6():
    t = brauertree.line_tree(6)
    shapes = sorted(d.shape() for d in brauertree.end_of_U_sum(t))
    assert shapes == [(1, 1), (1, 1), (2, 2), (2, 2)]
    swapped = sorted(d.shape() for d in brauertree.end_of_U_sum(t, swap=True))
    assert swapped == [(2, 2), (2, 2), (2, 2)]


def test_nakayama_recognizer_round_trip():
    F = gfq.GF.get(7)
    for s, ell in [(1, 1), (2, 2), (1, 3), (3, 2)]:
        a = algebra.nakayama_algebra(F, s, ell)
        d = brauertree.nakayama_descriptor(a, seed=0)
        assert d is not None
        assert d.shape() == (s, ell)


def test_recognizer_accepts_serial_group_algebra():
    # kS3 at p=3 is serial: both projectives are uniserial of length 3
    F = gfq.GF.get(3)
    from blockperm.permgrp import PermGroup
    a = algebra.group_algebra(F, PermGroup.symmetric(3))
    d = brauertree.nakayama_descriptor(a, seed=0)
    assert d is not None and d.shape() == (2, 3)


def test_recognizer_rejects_non_nakayama():
    # k[x,y]/(x,y)^2 has a 2-dim radical over a simple top: not uniserial
    F = gfq.GF.get(5)
    mult = np.zeros((3, 3, 3), dtype=np.int16)
    for i in range(3):
        mult[0, i, i] = 1
        mult[i, 0, i] = 1
    one = np.array([1, 0, 0], dtype=np.int16)
    a = algebra.FinDimAlgebra(F, mult, one)
    assert brauertree.nakayama_descriptor(a, seed=0) is None


def test_matches_tree_for_end_algebra():
    F = gfq.GF.get(7)
    descs = brauertree.end_of_U_sum(brauertree.line_tree(4))
    parts = [brauertree.algebra_of_descriptor(d, F) for d in descs]
    assert brauertree.matches_tree(_direct_sum_algebras(F, parts),
                                   brauertree.line_tree(4), seed=0)


def _direct_sum_algebras(field, algs):
    dim = sum(a.dim for a in algs)
    mult = np.zeros((dim, dim, dim), dtype=np.int16)
    one = np.zeros(dim, dtype=np.int16)
    off = 0
    for a in algs:
        d = a.dim
        mult[off:off + d, off:off + d, off:off + d] = a.mult
        one[off:off + d] = a.one
        off += d
    return algebra.FinDimAlgebra(field, mult, one)


def test_tree_checks_run_under_python_O(failure_kinds_under_O):
    """Malformed trees are bad input (ValueError); a tree whose vertex
    orders are broken after validation fails the rho/sigma certificate."""
    assert failure_kinds_under_O("""
        from blockperm import brauertree
        from blockperm.brauertree import BrauerTree
        broken = brauertree.star_tree(3)
        broken.cycles[0] = [0, 1]
        for f in [lambda: BrauerTree([(0, [0]), (0, [0])]),
                  lambda: BrauerTree([(0, [0, 0]), (1, [0])]),
                  lambda: BrauerTree([(0, [0]), (1, [1])]),
                  lambda: BrauerTree([(0, [0, 1]), (1, [0, 1])]),
                  lambda: BrauerTree([(0, [0]), (1, [0]), (2, [1, 2]),
                                      (3, [1, 2])]),
                  lambda: brauertree.star_tree(2, m=1),
                  lambda: brauertree.line_tree(0),
                  lambda: brauertree.rho_sigma(broken)]:
            print(kind(f))
        """) == ["value"] * 7 + ["cert"]
