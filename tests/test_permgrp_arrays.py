"""The array-backed permutation group scans against the code they replaced.

DIGESTS holds, for each (group, prime), a sha1 of every result that
summarize() lists, as computed by the element-at-a-time implementation
(one Perm product per step, a Schreier-Sims run per with_small_generators
candidate) that preceded the array form.  The array form must reproduce
each of them exactly: element order, indices, centralizer and normalizer
element lists and generators, conjugating elements, coset actions, double
cosets, greedy small generating sets and p-subgroup class generators.

The groups include two of degree at least 17 and small order, where a key
packing one image per digit in a 64-bit integer would overflow.  The Sylow
2-subgroup of S_12 (order 1024) is taken at p = 3, so that only its trivial
class is scanned: at p = 2 it has thousands of subgroup classes.  Run this
file as a script to print the digests of the code in the current tree.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockperm.permgrp import Perm, PermGroup, parse_group

# C_5 x S_3 x C_4 x C_2 on 19 points, 12..16 fixed: order 240
DIRECT_PRODUCT = json.dumps({"degree": 19, "generators": [
    [1, 2, 3, 4, 0] + list(range(5, 19)),
    list(range(5)) + [6, 5, 7] + list(range(8, 19)),
    list(range(5)) + [6, 7, 5] + list(range(8, 19)),
    list(range(8)) + [9, 10, 11, 8] + list(range(12, 19)),
    list(range(17)) + [18, 17]]})

CASES = [("sym:3", 2), ("sym:3", 3), ("sym:4", 2), ("sym:4", 3),
         ("sym:5", 2), ("sym:5", 3), ("sym:5", 5), ("sym:6", 2),
         ("sym:6", 3), ("sym:6", 5), ("sym:7", 5), ("sym:7", 7),
         ("alt:4", 2), ("alt:4", 3), ("alt:5", 2), ("alt:5", 3),
         ("alt:5", 5), ("alt:6", 2), ("alt:6", 3), ("alt:6", 5),
         ("sylow:sym:12:2", 3), ("cyclic:20", 2), ("cyclic:20", 5),
         (DIRECT_PRODUCT, 2), (DIRECT_PRODUCT, 3)]


COMPONENTS = ("elements", "index_of", "classes", "centralizers",
              "normalizers", "small_generators", "conjugating",
              "coset_action", "double_cosets")


def _label(spec, p):
    return "%s@%d" % ("C5xS3xC4xC2" if spec == DIRECT_PRODUCT else spec, p)


def _imgs(perms):
    return [list(x.img) for x in perms]


def summarize(spec, p):
    """Every permgrp scan on parse_group(spec) and its p-subgroup classes,
    as JSON-ready values keyed by what they test."""
    g = parse_group(spec)
    elems = g.elements()
    n = len(elems)
    pairs = [(elems[i], elems[(7 * i + 3) % n])
             for i in range(0, n, max(1, n // 200))]
    classes = g.p_subgroups_up_to_conjugacy(p)
    shift = elems[n // 3]
    out = {"elements": _imgs(elems),
           "index_of": [g.index_of(x * y) for x, y in pairs],
           "classes": [_imgs(q.generators) for q in classes],
           "centralizers": [], "normalizers": [], "small_generators": [],
           "conjugating": [], "coset_action": [], "double_cosets": []}
    for i, q in enumerate(classes):
        c = g.centralizer(q)
        nq = g.normalizer(q)
        out["centralizers"].append([_imgs(c.elements()),
                                    _imgs(c.generators)])
        out["normalizers"].append([_imgs(nq.elements()),
                                   _imgs(nq.generators)])
        out["small_generators"].append(
            [_imgs(c.with_small_generators().generators),
             _imgs(nq.with_small_generators().generators)])
        moved = g.conjugate_subgroup(q, shift)
        x = g.conjugating_element(q, moved)
        others = [r for r in classes if r is not q and r.order() == q.order()]
        y = g.conjugating_element(q, others[0]) if others else None
        out["conjugating"].append([list(x.img), y if y is None
                                   else list(y.img)])
        reps, images = g.coset_action(q)
        out["coset_action"].append([_imgs(reps), images])
        last = classes[-1]
        out["double_cosets"].append(
            [[[list(r.img), size] for r, size in g.double_cosets(a, b)]
             for a, b in ((q, q), (q, last), (last, q))])
    return out


def digests(spec, p):
    out = summarize(spec, p)
    return [hashlib.sha1(json.dumps(out[key]).encode()).hexdigest()[:8]
            for key in COMPONENTS]


# one 32-bit sha1 prefix per entry of COMPONENTS, recorded with the
# element-at-a-time code
DIGESTS = {
    "sym:3@2": "43bd0717 176e7391 13dc3098 6b1fd388 6b1fd388 "
        "0d9d80ba 38271fdf 10b568cd fc70b85e",
    "sym:3@3": "43bd0717 176e7391 20cf295f 96046c32 f1887148 "
        "20715649 a2634a23 a77e473d 6950dd59",
    "sym:4@2": "c1b824cb f945f57b 51468037 6f16383f 43ee4bf0 "
        "59d3864f 435271ce 2ff96b5f 09e3a68a",
    "sym:4@3": "c1b824cb f945f57b 9b01d366 980a222c 22ae05bc "
        "acd6dac1 361a9ba3 17c0a042 067a8b58",
    "sym:5@2": "dbd347b6 9dd341f0 2f3e6cd7 547a8179 cfd41fa5 "
        "bfa877ed 96acb310 cc98415a 38fac44f",
    "sym:5@3": "dbd347b6 9dd341f0 96ac5b38 7df67820 f0f6030c "
        "435f462c ae282b65 6aae517c c0804bd1",
    "sym:5@5": "dbd347b6 9dd341f0 52978fd9 6a75b7cc 9c5981cd "
        "4129ad22 9b871713 7ec8499f adee5350",
    "sym:6@2": "1d2a29ff 33e7d7fd 7c3b0579 7a108870 47428120 "
        "412ba37a 6f7d365b de4496d9 4ac5046b",
    "sym:6@3": "1d2a29ff 33e7d7fd 0e4e7620 13ed924b 638f96b0 "
        "e3dee04c 31d4b0d6 49447fe5 a96e9a45",
    "sym:6@5": "1d2a29ff 33e7d7fd fc8a10e3 8b1acadd 0bc191a7 "
        "9dd9fcdc f746a02c 014b7796 929535ce",
    "sym:7@5": "c40db1dc a7d2e01c fd0182f9 14e5cc4c 17900b79 "
        "43f4565b c363cacf 37ee8aaf 289715e9",
    "sym:7@7": "c40db1dc a7d2e01c ace727a7 53e333cc 920f118f "
        "64092f25 7927fadf 20d04a2a 0881945a",
    "alt:4@2": "2f14b303 51dc19c9 025180d5 ba153790 1ade606e "
        "a39c31cc 7ca8af09 dcd23436 f2593a27",
    "alt:4@3": "2f14b303 51dc19c9 9b01d366 b46eb456 b46eb456 "
        "ac06b917 3dd3f0c5 4b2e418a df9457dd",
    "alt:5@2": "f5ee6674 560b6908 117ec497 fba93861 a3bf2957 "
        "2241ab54 066b3831 a6f2a143 472df975",
    "alt:5@3": "f5ee6674 560b6908 96ac5b38 ae112ab5 ea3337d0 "
        "e519091d 334dff0c 040461a0 b9c4b585",
    "alt:5@5": "f5ee6674 560b6908 52978fd9 fa96d6fb 3f018749 "
        "658985e7 41258bb5 eed1ceda 1f7ce691",
    "alt:6@2": "7e67cdef 3f3e2854 e2f4b06f 4b7f2e90 eda64f50 "
        "5852c18e a2a6e619 43e5f28c 88a6707c",
    "alt:6@3": "7e67cdef 3f3e2854 0e4e7620 671c2c2e 79a098e4 "
        "80b27611 31d4b0d6 d4ba8e1f eab758c6",
    "alt:6@5": "7e67cdef 3f3e2854 fc8a10e3 d5217339 9667c7f5 "
        "576a3633 f746a02c 0396cfb7 9ea34526",
    "sylow:sym:12:2@3": "6bd86cb3 a7662f43 1376774b 31db57dc 31db57dc "
        "acea6c58 707d5a89 bd122920 caee401b",
    "cyclic:20@2": "ccc3fb58 b8bdd06d 8b2af303 367d8c0d 367d8c0d "
        "c84eeb92 63fbfaa0 6842fa94 5dc3b173",
    "cyclic:20@5": "ccc3fb58 b8bdd06d 2a39452a de74611d de74611d "
        "a08aa20c c812548c 618a773c 796c74b7",
    "C5xS3xC4xC2@2": "bee69521 c81db63e a4d7d3e5 3c343f41 3c343f41 "
        "f1e0a1d8 33f7d86e 4821db2d f73916ae",
    "C5xS3xC4xC2@3": "bee69521 c81db63e 8002a2dd 11a4f1f4 aaee4f3d "
        "c3bc18a3 d4d07790 960e9f20 ab0eeb04",
}


@pytest.mark.parametrize("spec,p", CASES, ids=[_label(*c) for c in CASES])
def test_scans_match_element_at_a_time_code(spec, p):
    expected = DIGESTS[_label(spec, p)].split()
    got = digests(spec, p)
    assert [key for key, a, b in zip(COMPONENTS, got, expected) if a != b] \
        == []


# ---------------------------------------------------------------------------
# centralizers and normalizers against a brute-force loop over Perm products


def _perm6():
    return st.permutations(range(6)).map(Perm)


@settings(max_examples=40, deadline=None)
@given(st.lists(_perm6(), min_size=1, max_size=3),
       st.lists(_perm6(), min_size=0, max_size=3))
def test_centralizer_and_normalizer_match_brute_force(ggens, hgens):
    g = PermGroup(6, ggens)
    h = PermGroup(6, hgens)
    hset = {x.img for x in h.elements()}
    elems = g.elements()
    cent = [x for x in elems
            if all(x * y == y * x for y in h.generators)]
    norm = [x for x in elems
            if all((x * y * x.inv()).img in hset for y in h.generators)]
    assert g.centralizer(h).elements() == cent
    assert g.normalizer(h).elements() == norm
    assert g.centralizer(h).order() == len(cent)
    assert g.normalizer(h).order() == len(norm)


def test_keys_order_like_image_tuples_past_one_byte_per_point():
    """On 300 points the keys take two bytes per point; elements() must
    still be the sorted list and index_of its inverse."""
    g = PermGroup.cyclic(300)
    x = g.generators[0]
    powers = [Perm.identity(300)]
    for _ in range(299):
        powers.append(x * powers[-1])
    elems = g.elements()
    assert elems == sorted(powers)
    assert [g.index_of(y) for y in powers[::7]] == \
        [elems.index(y) for y in powers[::7]]


if __name__ == "__main__":
    for spec, p in CASES:
        print(_label(spec, p), " ".join(digests(spec, p)))


def _pairwise_p_subgroup_classes(g, p):
    """The level-by-level class search with each candidate tested for
    conjugacy against every representative of its level."""
    arr, elems = g.image_array(), g.elements()
    power = arr
    for _ in range(p - 1):
        power = np.take_along_axis(arr, power, axis=1)
    pth = g.indices(power)
    trivial = g.trivial_subgroup()
    trivial._adopt(g, [0])
    classes = level = [trivial]
    while level:
        nxt, seen = [], set()
        for qrep in level:
            qarr = qrep.image_array()
            in_q = np.zeros(len(arr), dtype=bool)
            in_q[g.indices(qarr)] = True
            qconj = [g._conjugates(x) for x in qrep.generators]
            covered = in_q.copy()
            normal = g._conjugates_in(qrep, qconj)
            for x in np.flatnonzero(normal & ~in_q & in_q[pth]):
                if covered[x]:
                    continue
                cosets = [qarr]
                for _ in range(p - 1):
                    cosets.append(arr[x][cosets[-1]])
                cand = np.sort(g.indices(np.concatenate(cosets)))
                covered[cand] = True
                if cand.tobytes() in seen:
                    continue
                seen.add(cand.tobytes())
                conj = qconj + [g._conjugates(elems[x])]
                if any(g._conjugates_in(r, conj).any() for r in nxt):
                    continue
                sub = g.subgroup(qrep.generators + [elems[x]])
                sub._adopt(g, cand)
                nxt.append(sub)
        classes = classes + nxt
        level = nxt
    return classes


def test_p_subgroup_classes_match_the_pairwise_search():
    """Bucketing candidates by their histogram of cycle types keeps every
    representative, its generators and its place in the order."""
    fast = parse_group("sylow:sym:8:2").p_subgroups_up_to_conjugacy(2)
    slow = _pairwise_p_subgroup_classes(parse_group("sylow:sym:8:2"), 2)
    assert len(fast) == len(slow) == 177
    assert [_imgs(h.generators) for h in fast] == \
        [_imgs(h.generators) for h in slow]


def test_p_subgroup_classes_of_the_sylow_2_subgroup_of_s10():
    classes = parse_group("sylow:sym:10:2").p_subgroups_up_to_conjugacy(2)
    assert len(classes) == 978
    assert classes[-1].order() == 256
