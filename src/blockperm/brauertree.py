"""Brauer trees and the serial algebras they encode.

A Brauer tree is a finite tree whose edges are labelled by simple modules
and whose vertices carry a cyclic ordering of the edges incident to them,
with at most one vertex marked as exceptional with a multiplicity m >= 2.
The tree determines the basic algebra of a block with cyclic defect group
up to Morita equivalence, and in particular determines the Loewy series of
every projective indecomposable.

Walking the cyclic orderings around the two colour classes of the tree
(trees are bipartite) gives two permutations rho and sigma of the edge set;
their orbits describe the serial (Nakayama) pieces that show up at the far
end of tensoring experiments with the source idempotent.
"""

import json

import numpy as np

from . import algebra
from . import gfq


class NakayamaDescriptor:
    """Shape of a serial self-injective algebra: num_simples simple modules
    arranged in a cycle, every projective uniserial of length proj_length."""

    def __init__(self, num_simples, proj_length, orbit=None):
        self.num_simples = num_simples
        self.proj_length = proj_length
        self.orbit = tuple(orbit) if orbit is not None else None

    @property
    def dim(self):
        return self.num_simples * self.proj_length

    def shape(self):
        return (self.num_simples, self.proj_length)

    def __eq__(self, other):
        return self.shape() == other.shape()

    def __repr__(self):
        return "NakayamaDescriptor(s=%d, L=%d, orbit=%r)" % (
            self.num_simples, self.proj_length, self.orbit)


class BrauerTree:
    """vertices: list of (vertex_id, edge_cycle) pairs where edge_cycle is
    the cyclic ordering (a list of edge labels) at that vertex.
    exceptional: None or (vertex_id, m) with m >= 2."""

    def __init__(self, vertices, exceptional=None):
        self.cycles = {}
        for vid, cyc in vertices:
            if vid in self.cycles:
                raise ValueError("duplicate vertex id %r" % (vid,))
            self.cycles[vid] = list(cyc)
        self.exceptional = tuple(exceptional) if exceptional else None
        self._validate()

    def _validate(self):
        ends = {}
        for vid, cyc in self.cycles.items():
            if len(set(cyc)) != len(cyc):
                raise ValueError("repeated edge at vertex %r" % (vid,))
            for e in cyc:
                ends.setdefault(e, []).append(vid)
        for e, vs in ends.items():
            if len(vs) != 2:
                raise ValueError("edge %r must have two endpoints" % (e,))
        self.ends = {e: tuple(vs) for e, vs in ends.items()}
        nv, ne = len(self.cycles), len(ends)
        if ne != nv - 1:
            raise ValueError("a tree has one fewer edge than vertices")
        # connectivity via the edge incidences
        seen = set()
        start = next(iter(self.cycles))
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in self.cycles[v]:
                a, b = self.ends[e]
                stack.append(b if a == v else a)
        if len(seen) != nv:
            raise ValueError("tree is not connected")
        if self.exceptional is not None:
            vid, m = self.exceptional
            if vid not in self.cycles or m < 2:
                raise ValueError("exceptional vertex needs an existing "
                                 "vertex and m >= 2")
        self._color()

    def _color(self):
        """Two-colour the vertices; colour 0 contains the smallest vertex."""
        start = min(self.cycles)
        color = {start: 0}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in self.cycles[v]:
                a, b = self.ends[e]
                w = b if a == v else a
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
        self.color = color

    @property
    def edges(self):
        return sorted(self.ends)

    def multiplicity_at(self, vid):
        if self.exceptional and self.exceptional[0] == vid:
            return self.exceptional[1]
        return 1

    def to_json(self):
        return {
            "vertices": [{"id": vid, "edge_cycle": list(self.cycles[vid])}
                         for vid in sorted(self.cycles)],
            "exceptional": ({"vertex": self.exceptional[0],
                             "m": self.exceptional[1]}
                            if self.exceptional else None),
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        exc = data.get("exceptional")
        return cls([(v["id"], v["edge_cycle"]) for v in data["vertices"]],
                   exceptional=(exc["vertex"], exc["m"]) if exc else None)

    def __repr__(self):
        return "BrauerTree(%d edges%s)" % (
            len(self.ends),
            ", m=%d" % self.exceptional[1] if self.exceptional else "")


def line_tree(num_edges, exceptional=None):
    """A line with edges 0..num_edges-1 between vertices i and i+1."""
    _check_edge_count(num_edges)
    verts = []
    for v in range(num_edges + 1):
        cyc = [e for e in (v - 1, v) if 0 <= e < num_edges]
        verts.append((v, cyc))
    return BrauerTree(verts, exceptional=exceptional)


def star_tree(num_edges, m=None):
    """A star: centre vertex 0 carries all edges, optionally exceptional."""
    _check_edge_count(num_edges)
    verts = [(0, list(range(num_edges)))]
    for e in range(num_edges):
        verts.append((e + 1, [e]))
    exc = (0, m) if m is not None else None
    return BrauerTree(verts, exceptional=exc)


def _check_edge_count(num_edges):
    if num_edges < 1:
        raise ValueError("a Brauer tree needs at least one edge")


def _cycle_successor(cyc):
    return {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}


def rho_sigma(tree, swap=False):
    """The two edge permutations (as dicts) from the vertex cyclic orders.

    rho advances edges around colour-0 vertices, sigma around colour-1
    vertices (swap exchanges the roles).  For any Brauer tree the product
    rho o sigma acts as a single cycle on the edge set, and an edge is the
    only element common to its rho-orbit and its sigma-orbit; both facts
    are checked (CertificateError).
    """
    rho, sigma = {}, {}
    for vid, cyc in tree.cycles.items():
        target = rho if (tree.color[vid] == (1 if swap else 0)) else sigma
        target.update(_cycle_successor(cyc))
    edges = tree.edges
    # rho o sigma must be transitive on the edges
    e0 = edges[0]
    seen = set()
    e = e0
    while e not in seen:
        seen.add(e)
        e = rho[sigma[e]]
    if len(seen) != len(edges):
        raise gfq.CertificateError("rho o sigma is not a full cycle")
    for e in edges:
        common = _orbit_of(rho, e) & _orbit_of(sigma, e)
        if common != {e}:
            raise gfq.CertificateError("rho/sigma orbits of %r share %r"
                                       % (e, common))
    return rho, sigma


def _orbit_of(perm, e):
    orb = {e}
    x = perm[e]
    while x != e:
        orb.add(x)
        x = perm[x]
    return orb


def projective_loewy(tree, edge):
    """Loewy layers of the projective indecomposable attached to an edge.

    Each layer is a sorted list of edge labels.  The top and socle are the
    edge's own simple; between them run two uniserial strands obtained by
    walking the cyclic order around each endpoint (an exceptional vertex is
    walked through m times).
    """
    strands = []
    for vid in tree.ends[edge]:
        cyc = tree.cycles[vid]
        succ = _cycle_successor(cyc)
        length = len(cyc) * tree.multiplicity_at(vid)
        strand = []
        x = succ[edge]
        for _ in range(length - 1):
            strand.append(x)
            x = succ[x]
        strands.append(strand)
    depth = max(len(s) for s in strands)
    layers = [[edge]]
    for j in range(depth):
        layer = sorted(s[j] for s in strands if j < len(s))
        layers.append(layer)
    layers.append([edge])
    return layers


def end_of_U_sum(tree, swap=False):
    """Serial shape of the stable endomorphism target attached to the tree.

    Each rho-orbit R of edges contributes one serial self-injective factor
    with |R| simples, of uniserial length |R| (or m|R| when the orbit's
    vertex is the exceptional one).  Returns the descriptors sorted by
    (num_simples, proj_length).
    """
    out = []
    want = 1 if swap else 0
    for vid, cyc in tree.cycles.items():
        if tree.color[vid] != want:
            continue
        m = tree.multiplicity_at(vid)
        out.append(NakayamaDescriptor(len(cyc), m * len(cyc), orbit=cyc))
    out.sort(key=lambda d: d.shape())
    return out


def algebra_of_descriptor(desc, field):
    """The serial algebra a descriptor names, as a concrete FinDimAlgebra."""
    return algebra.nakayama_algebra(field, desc.num_simples,
                                    desc.proj_length)


def nakayama_descriptor(alg, seed=0):
    """Recognize a basic serial algebra with all projectives of one length.

    Returns a NakayamaDescriptor (s simples, projectives uniserial of
    length L) or None when the algebra is not of that shape.  The test
    checks the radical filtration dimensions s*(L-i) and that the quiver
    rad/rad^2 is a single oriented s-cycle with one-dimensional arrow
    spaces.
    """
    F = alg.field
    prims = alg.primitive_idempotents(seed=seed)
    s = len(prims)
    if s == 0 or alg.dim % s:
        return None
    L = alg.dim // s
    # radical powers must drop by exactly s each step
    powers = alg.radical_powers()
    if len(powers) - 1 != L:
        return None
    for i in range(1, L + 1):
        if powers[i].shape[0] != s * (L - i):
            return None
    if L == 1:
        return NakayamaDescriptor(s, 1)
    rad = powers[1]
    rad2 = powers[2]

    def corner_dim(ej, rows_, ei):
        if rows_.shape[0] == 0:
            return 0
        imgs = [alg.multiply(ej, alg.multiply(rows_[i], ei))
                for i in range(rows_.shape[0])]
        return gfq.rank(F, np.array(imgs, dtype=np.int16))

    nxt_of = {}
    for i, ei in enumerate(prims):
        hits = []
        for j, ej in enumerate(prims):
            d = corner_dim(ej, rad, ei) - corner_dim(ej, rad2, ei)
            if d == 1:
                hits.append(j)
            elif d != 0:
                return None
        if len(hits) != 1:
            return None
        nxt_of[i] = hits[0]
    # the arrows must form a single s-cycle
    seen = {0}
    x = nxt_of[0]
    while x not in seen:
        seen.add(x)
        x = nxt_of[x]
    if len(seen) != s:
        return None
    return NakayamaDescriptor(s, L)


def descriptors_of_algebra(alg, seed=0):
    """Serial descriptors of the block factors of a (self-injective)
    algebra, sorted by shape; None entries for unrecognized factors."""
    out = []
    for piece, _z in alg.block_factors(seed=seed):
        out.append(nakayama_descriptor(piece, seed=seed))
    if any(d is None for d in out):
        return None
    out.sort(key=lambda d: d.shape())
    return out


def matches_tree(alg, tree, seed=0):
    """Whether the block factors of alg realize the tree's serial shape,
    allowing the rho/sigma relabelling of the two vertex colour classes."""
    got = descriptors_of_algebra(alg, seed=seed)
    if got is None:
        return False
    shapes = [d.shape() for d in got]
    for swap in (False, True):
        want = [d.shape() for d in end_of_U_sum(tree, swap=swap)]
        if shapes == want:
            return True
    return False

