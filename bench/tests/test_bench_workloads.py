import workloads
from blockperm.permgrp import Perm, parse_group


def _shapes(inputs):
    out = []
    groups = {}
    for h in inputs["homs"]:
        g = groups.setdefault(h["group"], parse_group(h["group"]))
        p_sub = g.subgroup([Perm(x) for x in h["P"]])
        q_sub = g.subgroup([Perm(x) for x in h["Q"]])
        out.append((h["group"], p_sub.order(), q_sub.order(),
                    g.order() // p_sub.order(), g.order() // q_sub.order(),
                    len(g.double_cosets(p_sub, q_sub))))
    for d in inputs["decompositions"]:
        g = groups.setdefault(d["group"], parse_group(d["group"]))
        h_sub = g.subgroup([Perm(x) for x in d["H"]])
        out.append((d["group"], h_sub.order(), g.order() // h_sub.order(),
                    len(g.double_cosets(h_sub, h_sub))))
    return out


def test_perm_modules_seeds_share_dims_and_double_cosets():
    wl = workloads.PermModules()
    a, b = wl.make_inputs(0), wl.make_inputs(7)
    assert a == wl.make_inputs(0)
    assert a != b  # the seed does move the subgroups
    shapes = _shapes(a)
    assert shapes == _shapes(b)
    homs = [s for s in shapes if len(s) == 6]
    assert [s[-1] for s in homs] == [h["hom_dim"] for h in wl.data["homs"]]
    decs = [s for s in shapes if len(s) == 4]
    assert [s[2] for s in decs] == [80, 45]


def test_random_conjugators_lie_in_the_group():
    import numpy as np
    rng = np.random.default_rng(3)
    a6 = parse_group("alt:6")
    for _ in range(20):
        x = workloads._random_element(6, True, rng)
        assert x in a6


def test_tally_counts_unanswered_questions_as_failed():
    tally = workloads.Tally(["a", "b", "c"])
    tally.expect("a", 1, 1)
    tally.expect("b", 1, 2)
    tally.abort("boom")
    assert tally.attempted == 3
    assert [q for q, _d in tally.failures] == ["b", "c"]
