import json
import math
import re

import pytest

from blockperm.permgrp import Perm, PermGroup, parse_group


def from_cycles(text, degree):
    """Parse 1-based disjoint cycle notation like '(1 2 3)(4 5)'."""
    img = list(range(degree))
    for cycle in re.findall(r"\(([^)]*)\)", text):
        pts = [int(x) - 1 for x in cycle.replace(",", " ").split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return Perm(img)


def cycle_type(g):
    """Partition of the degree given by cycle lengths, descending."""
    lens = sorted((len(c) for c in g.cycles()), reverse=True)
    return tuple(lens) + (1,) * (g.degree - sum(lens))


def element_set(h):
    return frozenset(g.img for g in h.elements())


def is_subgroup_of(h, other):
    return all(g in other for g in h.generators)


def conjugate_subgroup(h, g):
    gi = g.inv()
    return PermGroup(h.degree, [g * x * gi for x in h.generators])


def test_perm_basics():
    a = from_cycles("(1 2 3)", 5)
    b = from_cycles("(2 3)(4 5)", 5)
    # (a*b)(x) = a(b(x))
    ab = a * b
    assert ab.img[1] == a.img[b.img[1]]
    assert (a * a.inv()).is_identity()
    assert a.order() == 3
    assert b.order() == 2
    assert sorted(cycle_type(b)) == [1, 2, 2]


@pytest.mark.parametrize("n", range(2, 8))
def test_symmetric_and_alternating_orders(n):
    assert PermGroup.symmetric(n).order() == math.factorial(n)
    assert PermGroup.alternating(n).order() == math.factorial(n) // 2


def test_cyclic_and_elements():
    c = PermGroup.cyclic(6)
    els = c.elements()
    assert len(els) == 6
    assert els[0].is_identity()


def test_sylow_of_symmetric():
    s = PermGroup.sylow_of_symmetric(7, 2)
    assert s.order() == 16
    assert PermGroup.sylow_of_symmetric(7, 7).order() == 7
    assert PermGroup.sylow_of_symmetric(9, 3).order() == 81


def test_coset_action_transitive():
    g = PermGroup.symmetric(4)
    h = g.sylow_subgroup(3)
    reps, images = g.coset_action(h)
    assert len(reps) == 8
    for row in images:
        assert sorted(row) == list(range(8))


def test_double_cosets_sizes_partition_group():
    g = PermGroup.symmetric(5)
    p = g.sylow_subgroup(5)
    q = g.sylow_subgroup(2)
    dcs = g.double_cosets(p, q)
    assert sum(size for _rep, size in dcs) == g.order()
    for rep, size in dcs:
        # |PgQ| divides |P||Q| and is a multiple of max(|P|,|Q|)
        assert (p.order() * q.order()) % size == 0


def test_normalizer_and_centralizer():
    g = PermGroup.symmetric(5)
    p = g.sylow_subgroup(5)
    n = g.normalizer(p)
    c = g.centralizer(p)
    assert n.order() == 20
    assert c.order() == 5
    assert is_subgroup_of(p, n)


def test_p_subgroups_up_to_conjugacy():
    g = PermGroup.symmetric(4)
    classes = g.p_subgroups_up_to_conjugacy(2)
    orders = [h.order() for h in classes]
    assert orders == sorted(orders)
    assert orders[0] == 1
    assert orders[-1] == 8
    # S4 at p=2: 1, two classes of C2, V4 (two classes), C4, D8
    assert orders.count(2) == 2
    assert orders.count(4) == 3


def test_conjugacy_of_subgroups():
    g = PermGroup.symmetric(5)
    a = g.subgroup([from_cycles("(1 2 3 4 5)", 5)])
    b = g.subgroup([from_cycles("(1 3 5 2 4)", 5)])
    assert g.are_conjugate_subgroups(a, b)
    x = g.conjugating_element(a, b)
    assert element_set(conjugate_subgroup(a, x)) == element_set(b)


def test_parse_group_specs():
    assert parse_group("sym:5").order() == 120
    assert parse_group("alt:4").order() == 12
    assert parse_group("cyclic:7").order() == 7
    assert parse_group("sylow:sym:6:2").order() == 16
    v4 = parse_group(json.dumps(
        {"degree": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}))
    assert v4.order() == 4
    with pytest.raises(ValueError):
        parse_group("frobnicate:9")


def test_json_round_trip():
    g = PermGroup.alternating(5)
    g2 = PermGroup.from_json(g.to_json())
    assert g2.order() == 60
    assert g2.degree == 5


def test_element_cap(monkeypatch):
    monkeypatch.setenv("BLOCKPERM_CAP", "100")
    big = PermGroup.symmetric(6)
    assert big.order() == 720     # order is fine, enumeration is not
    with pytest.raises(ValueError):
        big.elements()
