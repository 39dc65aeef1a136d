"""Permutation groups on few points: orders, subgroups, cosets, Sylow theory.

Permutations are stored as tuples of images on 0..degree-1 and compose as
functions: (a * b)(x) = a(b(x)).  Cycle notation in text is 1-based.

Groups of order up to a cap (default 10080, override with BLOCKPERM_CAP) can
be materialized.  The materialized group is an array form: an (order, degree)
integer array whose row i is the image array of the i-th element in sorted
(lexicographic image) order, the array of the inverses, and one lookup key
per row.  The key is the row as big-endian unsigned integers just wide
enough for the largest point, read as one fixed-width byte string; byte
strings compare like the image tuples at every degree, so np.searchsorted
on the sorted keys turns image rows into element indices.  Composition and
conjugation of whole arrays of elements are gathers: row g of arr[:, x] is
g * x, of x[arr] is x * g, and of take_along_axis(arr, x[inv]) is
g * x * g^-1.  Every scan over the group (centralizers, normalizers,
conjugacy, double cosets, closures, p-subgroup classes) runs on this form.

Membership in groups that are not materialized, and orders other than
those symmetric() and alternating() record, come from a Schreier-Sims
stabilizer chain; materializing a group checks its element count against
the order.  Sylow subgroups are grown through normalizers rather than
picked from the p-subgroup classes.  Coset actions label a coset gH by its
least key and never materialize the big group.
"""

import json
import math
import os

import numpy as np

from .gfq import CertificateError

DEFAULT_CAP = 10080


def element_cap():
    return int(os.environ.get("BLOCKPERM_CAP", DEFAULT_CAP))


class ResourceCap(ValueError):
    """The input is valid but would exceed one of the package's size caps."""


class Perm:
    __slots__ = ("img",)

    def __init__(self, img):
        self.img = tuple(img)

    @property
    def degree(self):
        return len(self.img)

    def __mul__(self, other):
        b = other.img
        return Perm(tuple(self.img[b[i]] for i in range(len(b))))

    def __call__(self, x):
        return self.img[x]

    def inv(self):
        out = [0] * len(self.img)
        for i, v in enumerate(self.img):
            out[v] = i
        return Perm(out)

    def __eq__(self, other):
        return self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __lt__(self, other):
        return self.img < other.img

    def is_identity(self):
        return all(i == v for i, v in enumerate(self.img))

    def order(self):
        o = 1
        for c in self.cycles():
            o = o * len(c) // _gcd(o, len(c))
        return o

    def cycles(self):
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self.img)
        out = []
        for s in range(len(self.img)):
            if seen[s]:
                continue
            c = [s]
            seen[s] = True
            x = self.img[s]
            while x != s:
                c.append(x)
                seen[x] = True
                x = self.img[x]
            if len(c) > 1:
                out.append(tuple(c))
        return out

    @staticmethod
    def identity(degree):
        return Perm(range(degree))

    def to_cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cyc)

    def __repr__(self):
        return "Perm(%s)" % (self.to_cycle_string(),)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class PermGroup:
    def __init__(self, degree, generators, name=None):
        if degree < 1:
            raise ValueError("a permutation group needs at least one point")
        self.degree = degree
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        gens = [g for g in gens if not g.is_identity()]
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree differs from %d" % degree)
        self.generators = gens
        self.name = name
        self._chain = None
        self._order = None   # |G| when known from the constructor
        self._elements = None
        self._arr = None     # (order, degree) images of the sorted elements
        self._inv = None     # row i is the image array of elements()[i]^-1
        self._keys = None    # sorted lookup keys of the rows of _arr
        self._words = None   # the walk behind generator_word
        self._psub_cache = {}   # p-subgroup classes per prime
        self._sylow = {}        # Sylow subgroup per prime
        self._key_type = np.min_scalar_type(max(degree - 1, 0)) \
            .newbyteorder(">")  # see the module docstring
        # answers about modules over this group, kept by modules._recall
        self._records = {}

    # -- construction helpers --

    @staticmethod
    def symmetric(n):
        gens = []
        if n >= 2:
            gens.append(Perm([1, 0] + list(range(2, n))))
        if n >= 3:
            gens.append(Perm(list(range(1, n)) + [0]))
        g = PermGroup(n, gens, name="sym:%d" % n)
        g._order = math.factorial(n)
        return g

    @staticmethod
    def alternating(n):
        gens = []
        if n >= 3:
            gens.append(Perm([1, 2, 0] + list(range(3, n))))
        if n >= 4:
            if n % 2:
                gens.append(Perm(list(range(1, n)) + [0]))
            else:
                gens.append(Perm([0] + list(range(2, n)) + [1]))
        g = PermGroup(n, gens, name="alt:%d" % n)
        g._order = max(1, math.factorial(n) // 2)
        return g

    @staticmethod
    def cyclic(n):
        return PermGroup(n, [Perm(list(range(1, n)) + [0])], name="cyclic:%d" % n)

    @staticmethod
    def sylow_of_symmetric(n, p):
        """A Sylow p-subgroup of S_n via iterated wreath products."""
        gens = []
        offset = 0
        m = n
        sizes = []
        k = 1
        while p ** k <= n:
            k += 1
        for j in range(k - 1, 0, -1):
            cnt = m // p ** j
            m -= cnt * p ** j
            sizes.extend([p ** j] * cnt)
        for size in sizes:
            gens.extend(_wreath_tower_gens(offset, size, p, n))
            offset += size
        g = PermGroup(n, gens, name="sylow:sym:%d:%d" % (n, p))
        nu = 0
        q = p
        while q <= n:
            nu += n // q
            q *= p
        if g.order() != p ** nu:
            raise CertificateError("wreath tower is not a Sylow subgroup")
        return g

    # -- orders and membership --

    def stabilizer_chain(self):
        if self._chain is None:
            self._chain = _schreier_sims(self.generators, self.degree)
        return self._chain

    def order(self):
        """|G|: the number of elements once materialized.  Before that, the
        order symmetric() and alternating() record (n! and max(1, n!/2),
        which image_array's element count then proves), else the product
        of the stabilizer chain's transversal lengths."""
        if self._arr is not None:
            return len(self._arr)
        if self._order is not None:
            return self._order
        o = 1
        for _, transversal, _ in self.stabilizer_chain():
            o *= len(transversal)
        return o

    def __contains__(self, g):
        if self._arr is not None:
            return bool(self._find(np.array([g.img]))[1][0])
        return _sift(self.stabilizer_chain(), g).is_identity()

    def image_array(self, cap=None):
        """The elements as an (order, degree) array of images, sorted like
        elements(); requires order <= cap.  The element count is checked
        against order().  For sym:n and alt:n that check is a proof on its
        own: n! distinct permutations of n points are all of S_n, and a
        subgroup of S_n of order n!/2 has index 2, so it is A_n.  The walk
        is kept for generator_word."""
        if self._arr is None:
            cap = cap or element_cap()
            n = self.order()
            if n > cap:
                raise ResourceCap(
                    "group of order %d exceeds element cap %d" % (n, cap))
            arr, keys, gen, parent = self._span(self._generator_array())
            if len(arr) != n:
                raise CertificateError("%d elements found for a group of "
                                       "order %d" % (len(arr), n))
            walk_row = np.argsort(self._keys_of(arr))
            self._words = (keys, walk_row, gen, parent)
            arr = arr[walk_row]
            inv = np.empty_like(arr)
            inv[np.arange(n)[:, None], arr] = np.arange(self.degree)
            arr.flags.writeable = False
            self._arr, self._inv, self._keys = arr, inv, keys
        return self._arr

    def inverse_array(self):
        """Row i is the image array of elements()[i]^-1."""
        self.image_array()
        return self._inv

    def elements(self, cap=None):
        """All elements as a sorted list of Perms; requires order <= cap."""
        if self._elements is None:
            self._elements = [Perm(r) for r in self.image_array(cap).tolist()]
        return self._elements

    def indices(self, rows):
        """Positions in elements() of the permutations with the given image
        arrays (one per row); KeyError if one is not in the group."""
        pos, found = self._find(rows)
        if not found.all():
            raise KeyError("permutation not in the group")
        return pos

    def index_of(self, g):
        return int(self.indices(np.array([g.img]))[0])

    def subgroup(self, gens, name=None):
        return PermGroup(self.degree, gens, name=name)

    def trivial_subgroup(self):
        return PermGroup(self.degree, [], name="1")

    def with_small_generators(self):
        """The same group on a greedy short generating set: each element,
        in sorted order, that lies outside the span of the ones before.

        Useful after normalizer/centralizer, which return every element as a
        generator.  The element cache is carried over."""
        arr = self.image_array()
        gens = []
        inside = np.zeros(len(arr), dtype=bool)
        inside[0] = True  # the identity sorts first
        while not inside.all():
            gens.append(int(np.argmin(inside)))
            inside[self.indices(self._span(arr[gens])[0])] = True
        elems = self.elements()
        grp = PermGroup(self.degree, [elems[i] for i in gens], name=self.name)
        grp._adopt(self, np.arange(len(arr)))
        return grp

    # -- the array form --

    def _generator_array(self):
        return np.array([g.img for g in self.generators],
                        dtype=np.intp).reshape(-1, self.degree)

    def _keys_of(self, rows):
        rows = np.ascontiguousarray(rows, dtype=self._key_type)
        width = rows.shape[1] * rows.itemsize
        return rows.view("S%d" % width).reshape(len(rows))

    def _span(self, gens):
        """(rows, sorted keys, gen, parent) of the group generated by the
        image rows gens, found breadth first, a whole frontier times each
        generator per step: row i > 0 is gens[gen[i]] * row parent[i],
        reached by a shortest word."""
        frontier = np.arange(self.degree)[None, :]
        rows, keys = [frontier], self._keys_of(frontier)
        gen, parent = [np.zeros(1, np.intp)], [np.zeros(1, np.intp)]
        start = 0   # the row of frontier[0]
        while len(frontier):
            # row (s, j) is gens[s] * frontier[j]
            cand = gens[:, frontier].reshape(-1, self.degree)
            ck, first = np.unique(self._keys_of(cand), return_index=True)
            new = ~_locate(keys, ck)[1]
            pick = first[new]
            gen.append(pick // len(frontier))
            parent.append(start + pick % len(frontier))
            start += len(frontier)
            frontier = cand[pick]
            rows.append(frontier)
            keys = np.sort(np.concatenate([keys, ck[new]]))
        return (np.concatenate(rows), keys, np.concatenate(gen),
                np.concatenate(parent))

    def generator_word(self, g):
        """g as a shortest product of generators, as the tuple of their
        indices, leftmost applied last.  Words are read off the walk that
        materialized the group; before that, the first call walks the group
        once (with no element cap) and keeps the walk."""
        if self._words is None:
            rows, keys, gen, parent = self._span(self._generator_array())
            self._words = (keys, np.argsort(self._keys_of(rows)), gen, parent)
        keys, walk_row, gen, parent = self._words
        pos, found = _locate(keys, self._keys_of(np.array([g.img])))
        if not found[0]:
            raise KeyError("permutation not in the group")
        i, word = int(walk_row[pos[0]]), []
        while i:
            word.append(int(gen[i]))
            i = int(parent[i])
        return tuple(word)

    def _adopt(self, big, which):
        """Take big.elements()[i] for the ascending indices i in which
        (a subgroup) as this group's elements."""
        self._arr = big._arr[which]
        self._arr.flags.writeable = False
        self._inv = big._inv[which]
        self._keys = big._keys[which]
        elems = big.elements()
        self._elements = [elems[i] for i in which]

    def _find(self, rows):
        """(positions, found) of image rows among the sorted elements."""
        self.image_array()
        return _locate(self._keys, self._keys_of(rows))

    def _conjugates(self, x):
        """Row g is the image array of elements()[g] * x * elements()[g]^-1."""
        arr = self.image_array()
        return np.take_along_axis(arr, np.asarray(x.img)[self._inv], axis=1)

    def _from_mask(self, mask):
        """The subgroup of the elements under mask, each but the identity
        (index 0) a generator.  Elements of a materialized group need no
        identity or degree test, so the generators are set directly."""
        which = np.flatnonzero(mask)
        elems = self.elements()
        grp = PermGroup(self.degree, [])
        grp.generators = [elems[i] for i in which.tolist() if i]
        grp._adopt(self, which)
        return grp

    def _conjugates_in(self, h, conj):
        """Mask of the g for which row g of every array in conj (each a
        _conjugates result) is an element of h."""
        mask = np.ones(len(self.image_array()), dtype=bool)
        for rows in conj:
            mask &= h._find(rows)[1]
        return mask

    # -- orbits and cosets --

    def coset_action(self, h):
        """Left multiplication action on left cosets gH.

        Returns (reps, images) with reps[0] the identity, reps a list of coset
        representatives in BFS order, and images[s][i] the index of
        generators[s] * reps[i]'s coset.  Deterministic.  A coset is labelled
        by the least key over g*H, computed for a whole frontier of
        candidates g at once; self is never materialized.
        """
        hel = h.image_array()
        gens = self._generator_array()
        chunk = max(1, 2 ** 16 // (len(hel) * self.degree))

        def labels(rows):
            out = []
            for i in range(0, len(rows), chunk):
                keys = self._keys_of(rows[i:i + chunk][:, hel]
                                     .reshape(-1, self.degree))
                keys = keys.reshape(-1, len(hel))
                out.extend(keys[np.arange(len(keys)), keys.argmin(1)].tolist())
            return out

        ident = np.arange(self.degree)[None, :]
        idx = {labels(ident)[0]: 0}
        reps = [ident[0]]
        images = [[] for _ in self.generators]
        done = 0
        while done < len(reps):
            front = np.array(reps[done:])
            # candidate (j, s) is generators[s] * reps[done + j]
            cand = gens[:, front].transpose(1, 0, 2).reshape(-1, self.degree)
            for c, key in enumerate(labels(cand)):
                if key not in idx:
                    idx[key] = len(reps)
                    reps.append(cand[c])
                images[c % len(gens)].append(idx[key])
            done += len(front)
        if len(reps) * h.order() != self.order():
            raise CertificateError("coset count times |H| is not |G|")
        return [Perm(r) for r in np.array(reps).tolist()], images

    def double_cosets(self, p, q):
        """The double cosets P\\G/Q as (representative, size) pairs; each
        representative is the least element of its coset."""
        arr = self.image_array()
        moves = [self.indices(np.asarray(x.img)[arr]) for x in p.generators]
        moves += [self.indices(arr[:, np.asarray(y.img)])
                  for y in q.generators]
        _labels, first, sizes = np.unique(orbit_labels(moves, len(arr)),
                                          return_index=True,
                                          return_counts=True)
        elems = self.elements()
        return [(elems[i], int(s)) for i, s in zip(first, sizes)]

    # -- normalizers, centralizers, conjugacy --

    def normalizer(self, h):
        return self._from_mask(self._conjugates_in(
            h, [self._conjugates(x) for x in h.generators]))

    def centralizer(self, h):
        return self._from_mask(self.centralizer_mask(h))

    def centralizer_mask(self, h):
        """Mask of the elements commuting with every generator of h."""
        arr = self.image_array()
        mask = np.ones(len(arr), dtype=bool)
        for x in h.generators:
            xa = np.asarray(x.img)
            mask &= (arr[:, xa] == xa[arr]).all(axis=1)
        return mask

    def conjugating_element(self, h1, h2):
        """The least g in self with g h1 g^-1 == h2, or None."""
        if h1.order() != h2.order():
            return None
        mask = self._conjugates_in(
            h2, [self._conjugates(x) for x in h1.generators])
        return self.elements()[int(np.argmax(mask))] if mask.any() else None

    def are_conjugate_subgroups(self, h1, h2):
        return self.conjugating_element(h1, h2) is not None

    def p_subgroups_up_to_conjugacy(self, p):
        """One representative per conjugacy class, ascending by order.

        Classes are built level by level: each subgroup of order p^(k+1)
        normalizes one of order p^k, so extending each class rep Q by
        p-elements x of N(Q) with x^p in Q reaches every class.  Such an x
        outside Q gives <Q, x> = Q u xQ u ... u x^(p-1)Q of order p|Q|, so
        an x inside a subgroup already built from Q gives that subgroup
        again and is skipped.  A candidate is tested for conjugacy only
        against the reps of its level with the same histogram of element
        cycle types, which conjugation in Sym(n) keeps.  The result is
        cached per prime.
        """
        if p in self._psub_cache:
            return self._psub_cache[p]
        arr = self.image_array()
        elems = self.elements()
        pth = self._power_index(p)
        # cycle type ids: the sorted cycle lengths of each element's points
        length, power = np.zeros(arr.shape, dtype=np.intp), arr
        for k in range(1, self.degree + 1):
            length[(power == np.arange(self.degree)) & (length == 0)] = k
            power = np.take_along_axis(arr, power, axis=1)
        ctype = np.unique(np.sort(length, axis=1), axis=0,
                          return_inverse=True)[1].reshape(-1)
        classes = [self._trivial_in()]
        level = classes[:]
        while level:
            nxt = []
            by_hist = {}
            seen_sets = set()
            for qrep in level:
                covered, qconj, xs = self._p_extensions(qrep, pth)
                for x in xs:
                    if covered[x]:
                        continue
                    cand = self._extend(qrep, x, p)
                    covered[cand] = True
                    key = cand.tobytes()
                    if key in seen_sets:
                        continue
                    seen_sets.add(key)
                    conj = qconj + [self._conjugates(elems[x])]
                    same = by_hist.setdefault(np.bincount(
                        ctype[cand], minlength=ctype.max() + 1).tobytes(), [])
                    if any(self._conjugates_in(r, conj).any() for r in same):
                        continue
                    sub = self._adjoin(qrep, x, cand)
                    nxt.append(sub)
                    same.append(sub)
            classes.extend(nxt)
            level = nxt
        self._psub_cache[p] = classes
        return classes

    def sylow_subgroup(self, p):
        """A Sylow p-subgroup, cached per prime: the class search's
        representative of the top class, grown without the class search.

        Start from the trivial subgroup Q.  While |Q| < |G|_p, adjoin the
        least x in N(Q) \\ Q with x^p in Q; it exists because p divides
        |N(Q)/Q| for a p-subgroup that is not Sylow.  This is exactly
        p_subgroups_up_to_conjugacy(p)'s Sylow representative, generators
        and elements included: the class search takes the first
        representative of a level first, and its least such x is neither
        covered nor conjugate to an earlier representative of the next
        level (there is none), so the first representative of each level
        is the first of the level below extended by that x.  The Sylow
        subgroups form one class, the only one of top order."""
        if p not in self._sylow:
            pth = self._power_index(p)
            n, pk = self.order(), 1
            while n % p == 0:
                n, pk = n // p, pk * p
            q = self._trivial_in()
            while q.order() < pk:
                xs = self._p_extensions(q, pth)[2]
                if not len(xs):
                    raise CertificateError("no p-element of N(Q) over a "
                                           "p-subgroup Q below Sylow order")
                q = self._adjoin(q, xs[0], self._extend(q, xs[0], p))
            self._sylow[p] = q
        return self._sylow[p]

    # -- steps of the p-subgroup searches, on a materialized group --

    def _power_index(self, p):
        """Index of x^p for each element x."""
        arr = self.image_array()
        power = arr
        for _ in range(p - 1):
            power = np.take_along_axis(arr, power, axis=1)
        return self.indices(power)

    def _trivial_in(self):
        trivial = self.trivial_subgroup()
        trivial._adopt(self, [0])
        return trivial

    def _p_extensions(self, q, pth):
        """(mask of Q, conjugates of Q's generators, the ascending indices
        x in N(Q) \\ Q with x^p in Q) for a subgroup q of self."""
        in_q = np.zeros(len(pth), dtype=bool)
        in_q[self.indices(q.image_array())] = True
        qconj = [self._conjugates(x) for x in q.generators]
        normal = self._conjugates_in(q, qconj)
        return in_q, qconj, np.flatnonzero(normal & ~in_q & in_q[pth])

    def _extend(self, q, x, p):
        """Sorted indices of <Q, x> = Q u xQ u ... u x^(p-1)Q, for x from
        _p_extensions: it normalizes Q and x^p is in Q, so the p cosets
        are distinct and |<Q, x>| = p|Q|."""
        cosets = [q.image_array()]
        for _ in range(p - 1):
            cosets.append(self.image_array()[x][cosets[-1]])
        cand = np.sort(self.indices(np.concatenate(cosets)))
        if not np.diff(cand).all():
            raise CertificateError("<Q, x> has the wrong order")
        return cand

    def _adjoin(self, q, x, cand):
        """<Q, x> on Q's generators and x, with the elements cand."""
        sub = self.subgroup(q.generators + [self.elements()[x]])
        sub._adopt(self, cand)
        return sub

    # -- serialization --

    def to_json(self):
        return {"degree": self.degree,
                "generators": [list(g.img) for g in self.generators]}

    @staticmethod
    def from_json(data):
        return PermGroup(data["degree"], [Perm(g) for g in data["generators"]])

    def __repr__(self):
        return "PermGroup(degree=%d, %d gens%s)" % (
            self.degree, len(self.generators),
            ", name=%s" % self.name if self.name else "")


def _locate(sorted_keys, keys):
    """(positions, found) of keys in a sorted key array."""
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == len(sorted_keys)] = 0
    return pos, sorted_keys[pos] == keys


def orbit_labels(maps, n):
    """Orbit number of each of 0..n-1 under index maps (permutations of
    range(n)); orbits are numbered in the order of their least members."""
    label = np.arange(n)
    while True:
        nxt = np.minimum.reduce([label] + [label[m] for m in maps])
        if np.array_equal(nxt, label):
            return np.unique(label, return_inverse=True)[1]
        label = nxt


def _wreath_tower_gens(offset, size, p, degree):
    """Generators of a Sylow p-subgroup of Sym{offset..offset+size-1}.

    size is a power of p; the subgroup is the iterated wreath power of C_p.
    """
    gens = []
    block = p
    while block <= size:
        # one block-shift generator per aligned block of this size
        for start in range(0, size, block):
            img = list(range(degree))
            w = block // p
            for i in range(block):
                src = offset + start + i
                img[src] = offset + start + (i + w) % block
            gens.append(Perm(img))
        block *= p
    return gens


# ---------------------------------------------------------------------------
# Schreier-Sims


def _schreier_sims(generators, degree):
    """Deterministic stabilizer chain: list of (base_pt, transversal, gens)."""
    chain = []

    def extend(level, newgens):
        while True:
            if level == len(chain):
                live = [g for g in newgens if not g.is_identity()]
                if not live:
                    return
                pt = min(i for g in live for i in range(degree) if g(i) != i)
                chain.append([pt, {pt: Perm.identity(degree)}, []])
            base, transversal, gens = chain[level]
            added = [g for g in newgens if g not in gens and not g.is_identity()]
            if not added:
                return
            gens.extend(added)
            # rebuild orbit of base under gens, collect Schreier generators
            frontier = list(transversal.keys())
            while frontier:
                nxt = []
                for x in frontier:
                    for s in gens:
                        y = s(x)
                        if y not in transversal:
                            transversal[y] = s * transversal[x]
                            nxt.append(y)
                frontier = nxt
            schreier = []
            for x in list(transversal.keys()):
                for s in gens:
                    u = transversal[x]
                    su = s * u
                    rep = transversal[su(base)]
                    sg = rep.inv() * su
                    if not sg.is_identity():
                        schreier.append(sg)
            newgens = []
            for sg in schreier:
                res = _sift(chain[level + 1:], sg)
                if not res.is_identity():
                    newgens.append(res)
            if not newgens:
                return
            level += 1

    extend(0, list(generators))
    # a single bottom-up verification pass
    for lvl in range(len(chain) - 1, -1, -1):
        base, transversal, gens = chain[lvl]
        for x in list(transversal.keys()):
            for s in gens:
                sg = transversal[s(x)].inv() * s * transversal[x]
                res = _sift(chain[lvl + 1:], sg)
                if not res.is_identity():
                    raise CertificateError("stabilizer chain incomplete")
    return chain


def _sift(chain, g):
    for base, transversal, _ in chain:
        x = g(base)
        if x not in transversal:
            return g
        g = transversal[x].inv() * g
    return g


# ---------------------------------------------------------------------------
# the group mini-language used across the command line tools


def parse_group(spec):
    """Parse 'sym:n', 'alt:n', 'cyclic:n', 'sylow:sym:n:p', 'json:FILE', or
    an inline JSON object {"degree": n, "generators": [[...], ...]}."""
    spec = spec.strip()
    if spec.startswith("{"):
        return PermGroup.from_json(json.loads(spec))
    parts = spec.split(":")
    if parts[0] == "sym":
        return PermGroup.symmetric(int(parts[1]))
    if parts[0] == "alt":
        return PermGroup.alternating(int(parts[1]))
    if parts[0] == "cyclic":
        return PermGroup.cyclic(int(parts[1]))
    if parts[0] == "sylow":
        if len(parts) != 4 or parts[1] != "sym":
            raise ValueError("expected sylow:sym:n:p, got %r" % spec)
        return PermGroup.sylow_of_symmetric(int(parts[2]), int(parts[3]))
    if parts[0] == "json":
        with open(":".join(parts[1:])) as fh:
            return PermGroup.from_json(json.load(fh))
    raise ValueError("unknown group spec %r" % spec)
