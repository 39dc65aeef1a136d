"""Permutation groups on few points: orders, subgroups, cosets, Sylow theory.

Permutations are stored as tuples of images on 0..degree-1 and compose as
functions: (a * b)(x) = a(b(x)).  Cycle notation in text is 1-based.  Groups
of order up to a cap (default 10080, override with BLOCKPERM_CAP) can be
materialized element by element; orders are always available through a
Schreier-Sims stabilizer chain, which doubles as an independent cross-check.
"""

import json
import os
from functools import reduce

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

    def cycle_type(self, degree=None):
        """Partition of the degree given by cycle lengths, descending."""
        n = degree or len(self.img)
        lens = sorted((len(c) for c in self.cycles()), reverse=True)
        fixed = n - sum(lens)
        return tuple(lens) + (1,) * fixed

    @staticmethod
    def identity(degree):
        return Perm(range(degree))

    @staticmethod
    def from_cycles(text, degree):
        """Parse 1-based disjoint cycle notation like '(1 2 3)(4 5)'."""
        img = list(range(degree))
        text = text.strip()
        if text in ("", "()", "e", "id"):
            return Perm(img)
        depth = 0
        cur = []
        cycles = []
        tok = ""
        for ch in text:
            if ch == "(":
                if depth:
                    raise ValueError("nested parenthesis in %r" % text)
                depth = 1
                cur = []
                tok = ""
            elif ch == ")":
                if tok:
                    cur.append(int(tok))
                    tok = ""
                cycles.append(cur)
                depth = 0
            elif ch in " ,":
                if tok:
                    cur.append(int(tok))
                    tok = ""
            elif ch.isdigit():
                tok += ch
            else:
                raise ValueError("bad character %r in cycle notation" % ch)
        if depth:
            raise ValueError("unclosed parenthesis in %r" % text)
        for c in cycles:
            pts = [x - 1 for x in c]
            if any(x < 0 or x >= degree for x in pts):
                raise ValueError("point out of range in %r" % text)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if img[a] != a:
                    raise ValueError("cycles not disjoint in %r" % text)
                img[a] = b
        return Perm(img)

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
        self.degree = degree
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        gens = [g for g in gens if not g.is_identity()]
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree differs from %d" % degree)
        self.generators = gens
        self.name = name
        self._chain = None
        self._elements = None
        self._index = None

    # -- construction helpers --

    @staticmethod
    def symmetric(n):
        gens = []
        if n >= 2:
            gens.append(Perm([1, 0] + list(range(2, n))))
        if n >= 3:
            gens.append(Perm(list(range(1, n)) + [0]))
        return PermGroup(n, gens, name="sym:%d" % n)

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
        return PermGroup(n, gens, name="alt:%d" % n)

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
        assert g.order() == p ** nu
        return g

    # -- orders and membership --

    def stabilizer_chain(self):
        if self._chain is None:
            self._chain = _schreier_sims(self.generators, self.degree)
        return self._chain

    def order(self):
        o = 1
        for _, transversal, _ in self.stabilizer_chain():
            o *= len(transversal)
        return o

    def __contains__(self, g):
        if self._index is not None:
            return g.img in self._index
        return _sift(self.stabilizer_chain(), g).is_identity()

    def elements(self, cap=None):
        """All elements as a sorted list of Perms; requires order <= cap."""
        if self._elements is None:
            cap = cap or element_cap()
            n = self.order()
            if n > cap:
                raise ResourceCap(
                    "group of order %d exceeds element cap %d" % (n, cap))
            seen = {Perm.identity(self.degree).img}
            frontier = [Perm.identity(self.degree)]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in self.generators:
                        y = s * x
                        if y.img not in seen:
                            seen.add(y.img)
                            nxt.append(y)
                frontier = nxt
            elems = sorted(Perm(t) for t in seen)
            assert len(elems) == n
            self._elements = elems
            self._index = {g.img: i for i, g in enumerate(elems)}
        return self._elements

    def index_of(self, g):
        self.elements()
        return self._index[g.img]

    def element_set(self):
        return frozenset(g.img for g in self.elements())

    def is_subgroup_of(self, other):
        return all(g in other for g in self.generators)

    def subgroup(self, gens, name=None):
        return PermGroup(self.degree, gens, name=name)

    def trivial_subgroup(self):
        return PermGroup(self.degree, [], name="1")

    def with_small_generators(self):
        """The same group on a greedy short generating set.

        Useful after normalizer/centralizer, which return every element as a
        generator.  The element cache is carried over."""
        target = self.order()
        gens = []
        cur = 1
        for g in self.elements():
            if g.order() == 1:
                continue
            cand = PermGroup(self.degree, gens + [g])
            if cand.order() > cur:
                gens.append(g)
                cur = cand.order()
                if cur == target:
                    break
        grp = PermGroup(self.degree, gens, name=self.name)
        grp._elements = self._elements
        grp._index = self._index
        return grp

    # -- orbits and cosets --

    def orbit(self, point):
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for x in frontier:
                for s in self.generators:
                    y = s(x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(seen)

    def coset_action(self, h):
        """Left multiplication action on left cosets gH.

        Returns (reps, images) with reps[0] the identity, reps a list of coset
        representatives in BFS order, and images[s][i] the index of
        generators[s] * reps[i]'s coset.  Deterministic.
        """
        helems = h.elements()
        idx = {}
        reps = []

        def canon(g):
            return min((g * x).img for x in helems)

        def locate(g):
            key = canon(g)
            if key not in idx:
                idx[key] = len(reps)
                reps.append(g)
            return idx[key]

        locate(Perm.identity(self.degree))
        imgmaps = [{} for _ in self.generators]
        i = 0
        while i < len(reps):
            for s, gen in enumerate(self.generators):
                imgmaps[s][i] = locate(gen * reps[i])
            i += 1
        images = [[m[i] for i in range(len(reps))] for m in imgmaps]
        assert len(reps) * h.order() == self.order()
        return reps, images

    def double_cosets(self, p, q):
        """The double cosets P\\G/Q as (representative, size) pairs; each
        representative is the least element of its coset."""
        elems = self.elements()
        pel = p.elements()
        qel = q.elements()
        marked = [False] * len(elems)
        out = []
        for i, g in enumerate(elems):
            if marked[i]:
                continue
            size = 0
            for x in pel:
                xg = x * g
                for y in qel:
                    j = self.index_of(xg * y)
                    if not marked[j]:
                        marked[j] = True
                        size += 1
            out.append((g, size))
        return out

    # -- normalizers, centralizers, conjugacy --

    def normalizer(self, h):
        hset = h.element_set()
        gens = list(h.generators)
        found = []
        for g in self.elements():
            gi = g.inv()
            if all((g * x * gi).img in hset for x in h.generators):
                found.append(g)
        grp = PermGroup(self.degree, found, name=None)
        grp._elements = sorted(found)
        grp._index = {x.img: i for i, x in enumerate(grp._elements)}
        del gens
        return grp

    def centralizer(self, h):
        found = [g for g in self.elements()
                 if all(g * x == x * g for x in h.generators)]
        grp = PermGroup(self.degree, found)
        grp._elements = sorted(found)
        grp._index = {x.img: i for i, x in enumerate(grp._elements)}
        return grp

    def conjugating_element(self, h1, h2):
        """Some g in self with g h1 g^-1 == h2, or None."""
        if h1.order() != h2.order():
            return None
        h2set = h2.element_set()
        for g in self.elements():
            gi = g.inv()
            if all((g * x * gi).img in h2set for x in h1.generators):
                return g
        return None

    def are_conjugate_subgroups(self, h1, h2):
        return self.conjugating_element(h1, h2) is not None

    def conjugate_subgroup(self, h, g):
        gi = g.inv()
        return PermGroup(self.degree, [g * x * gi for x in h.generators])

    def p_subgroups_up_to_conjugacy(self, p):
        """One representative per conjugacy class, ascending by order.

        Classes are built level by level: each subgroup of order p^(k+1)
        normalizes one of order p^k, so extending each class rep Q by
        p-elements x of N(Q) with x^p in Q reaches every class.  The result
        is cached per prime.
        """
        if not hasattr(self, "_psub_cache"):
            self._psub_cache = {}
        if p in self._psub_cache:
            return self._psub_cache[p]
        trivial = self.trivial_subgroup()
        trivial._elements = [Perm.identity(self.degree)]
        trivial._index = {Perm.identity(self.degree).img: 0}
        classes = [trivial]
        level = [trivial]
        while level:
            nxt = []
            seen_sets = set()
            for qrep in level:
                n = self.normalizer(qrep)
                qset = qrep.element_set()
                for x in n.elements():
                    if x.img in qset:
                        continue
                    xp = reduce(lambda a, b: a * b, [x] * p)
                    if xp.img not in qset:
                        continue
                    cand = self.subgroup(qrep.generators + [x])
                    if cand.order() != p * qrep.order():
                        continue
                    key = frozenset(g.img for g in cand.elements())
                    if key in seen_sets:
                        continue
                    seen_sets.add(key)
                    if any(self.are_conjugate_subgroups(cand, r) for r in nxt):
                        continue
                    nxt.append(cand)
            classes.extend(nxt)
            level = nxt
        self._psub_cache[p] = classes
        return classes

    def sylow_subgroup(self, p):
        classes = self.p_subgroups_up_to_conjugacy(p)
        best = max(classes, key=lambda h: h.order())
        n = self.order()
        pk = 1
        while n % p == 0:
            n //= p
            pk *= p
        assert best.order() == pk
        return best

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
                assert res.is_identity(), "stabilizer chain incomplete"
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
