"""Named structural checks and the suites the command line runner executes.

Each check is registered with an id, a documentation anchor, and a list of
suites it belongs to.  A check receives a CheckReport to fill, a Context
holding shared heavy objects (group algebras are expensive to rebuild),
and a seed controlling every random choice.  Reports serialize to JSON;
the canonical form excludes wall time so rerunning a suite with the same
seed must produce byte-identical output.
"""

import json
import time

import numpy as np

from . import blocks
from . import brauertree
from . import gfq
from . import modules
from . import symchars
from . import vertexweight
from .permgrp import Perm, PermGroup, ResourceCap, parse_group


class Context:
    """Per-run cache of groups, group algebras and block data."""

    def __init__(self):
        self._groups = {}
        self._algebras = {}

    def group(self, spec):
        if spec not in self._groups:
            self._groups[spec] = parse_group(spec)
        return self._groups[spec]

    def group_algebra(self, gspec, fspec):
        key = (gspec, fspec)
        if key not in self._algebras:
            self._algebras[key] = blocks.GroupAlgebra(self.group(gspec),
                                                      gfq.GF.parse(fspec))
        return self._algebras[key]

    def principal_block(self, gspec, fspec, seed=0):
        ga = self.group_algebra(gspec, fspec)
        for b in ga.blocks(seed=seed):
            if b.is_principal:
                return ga, b
        raise gfq.CertificateError("no principal block")


class CheckReport:
    def __init__(self, check_id, seed):
        self.id = check_id
        self.seed = seed
        self.assertions = []
        self.wall_time = None

    def add(self, name, passed, computed, expected=None):
        self.assertions.append({
            "name": name,
            "passed": bool(passed),
            "computed": computed,
            "expected": expected,
        })

    def expect(self, name, computed, expected):
        self.add(name, computed == expected, computed, expected)

    def note(self, name, computed):
        self.add(name, True, computed)

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def to_json(self, include_time=True):
        out = {
            "id": self.id,
            "seed": self.seed,
            "passed": self.passed,
            "assertions": self.assertions,
        }
        if include_time and self.wall_time is not None:
            out["wall_time"] = round(self.wall_time, 3)
        return out


class CheckSpec:
    def __init__(self, check_id, anchor, suites, fn, inputs=None):
        self.id = check_id
        self.anchor = anchor
        self.suites = tuple(suites)
        self.fn = fn
        self.inputs = inputs or {}


CHECKS = {}


def _register(check_id, anchor, suites, inputs=None):
    def deco(fn):
        if check_id in CHECKS:
            raise ValueError("duplicate check id %r" % check_id)
        CHECKS[check_id] = CheckSpec(check_id, anchor, suites, fn, inputs)
        return fn
    return deco


def run_check(spec, seed=0, ctx=None):
    """Evaluate one check (by CheckSpec or id) into a CheckReport."""
    if isinstance(spec, str):
        spec = CHECKS[spec]
    ctx = ctx or Context()
    rep = CheckReport(spec.id, seed)
    t0 = time.time()
    try:
        spec.fn(rep, ctx, seed)
    except ResourceCap as exc:
        rep.add("resource-cap", False, str(exc))
    rep.wall_time = time.time() - t0
    return rep


def suite_ids(name):
    ids = [cid for cid, spec in CHECKS.items()
           if name == "all" or name in spec.suites]
    return sorted(ids)


def run_suite(name, seed=0, ctx=None):
    ctx = ctx or Context()
    return [run_check(CHECKS[cid], seed=seed, ctx=ctx)
            for cid in suite_ids(name)]


def suite_json(reports, include_time=False):
    """Canonical JSON for golden comparison (wall time excluded)."""
    payload = [r.to_json(include_time=include_time) for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SUITES = ("all", "cyclic", "klein4", "nilpotent", "s7")


# ---------------------------------------------------------------------------
# shared helpers


def _summand_dims(summands):
    out = []
    for s in summands:
        out.extend([s.module.dim] * s.multiplicity)
    return sorted(out)


def _factor_shapes(alg, seed):
    descs = brauertree.descriptors_of_algebra(alg, seed=seed)
    return None if descs is None else [list(d.shape()) for d in descs]


def _source_module_and_end(ctx, gspec, fspec, seed, principal=True):
    ga = ctx.group_algebra(gspec, fspec)
    p = ga.field.p
    blist = ga.blocks(seed=seed)
    if principal:
        b = [x for x in blist if x.is_principal][0]
    else:
        b = [x for x in blist if not x.is_principal
             and x.defect_group().order() > 1][0]
    spm = b.source_permutation_module(b.defect_group(), seed=seed)
    end, _basis = modules.endomorphism_algebra(spm)
    return ga, b, spm, end


def _match_into(small, big, seed):
    """Greedy pairing of summand classes of small into big by isomorphism.

    Returns (all matched with enough multiplicity, matched big indices)."""
    used = [0] * len(big)
    for s in small:
        hit = None
        for t, cand in enumerate(big):
            if cand.module.dim != s.module.dim:
                continue
            if modules.is_isomorphic(s.module, cand.module, seed=seed):
                hit = t
                break
        if hit is None or used[hit] + s.multiplicity > big[hit].multiplicity:
            return False, used
        used[hit] += s.multiplicity
    return True, used


# ---------------------------------------------------------------------------
# Example 9.1: the principal block of kS_7 at p = 7


@_register("ex-9.1-dims", "Example 9.1", ("cyclic", "s7"),
           {"group": "sym:7", "field": "7"})
def _check_ex91_dims(rep, ctx, seed):
    ga = ctx.group_algebra("sym:7", "7")
    blist = ga.blocks(seed=seed)
    rep.expect("sum of block dims", sum(b.dim for b in blist), 5040)
    positive = [b for b in blist if b.defect_group().order() > 1]
    rep.expect("positive-defect blocks", len(positive), 1)
    rep.expect("principal block dim", positive[0].dim, 924)
    rep.expect("principal flag", positive[0].is_principal, True)
    b = positive[0]
    s = ga.group.sylow_subgroup(7)
    bsm = b.block_sylow_module(s)
    rep.expect("block Sylow module dim", bsm.dim, 132)
    summands = modules.decompose(bsm, seed)
    rep.expect("summand count", sum(x.multiplicity for x in summands), 8)
    rep.expect("summand dims", _summand_dims(summands),
               [1, 1, 15, 15, 15, 15, 35, 35])
    proj = []
    for x in summands:
        if modules.is_projective(x.module):
            proj.extend([x.module.dim] * x.multiplicity)
    rep.expect("projective summand dims", sorted(proj), [35, 35])


@_register("ex-9.1-end", "Example 9.1; Remark 13.2", ("cyclic", "s7"),
           {"group": "sym:7", "field": "7"})
def _check_ex91_end(rep, ctx, seed):
    ga = ctx.group_algebra("sym:7", "7")
    b = [x for x in ga.blocks(seed=seed) if x.is_principal][0]
    s = ga.group.sylow_subgroup(7)
    bsm = b.block_sylow_module(s)
    end, _ = modules.endomorphism_algebra(bsm)
    rep.expect("dim End(B (x)_S k)", end.dim, 24)
    rep.expect("block double-coset count", b.two_sided_coinvariant_dim(s), 24)
    rep.expect("End self-injective", end.is_self_injective(seed), False)


@_register("ex-9.1-chars", "Example 9.1; Lemma 9.2", ("cyclic",),
           {"groups": ["sym:5", "sym:7"]})
def _check_block_char_dims(rep, ctx, seed):
    for p in (5, 7):
        ga = ctx.group_algebra("sym:%d" % p, str(p))
        b = [x for x in ga.blocks(seed=seed) if x.is_principal][0]
        s = ga.group.sylow_subgroup(p)
        bsm = b.block_sylow_module(s)
        mult = symchars.perm_character_multiplicities(p, ctx.group(
            "cyclic:%d" % p))
        hook_sum = sum(mult[lam] * symchars.dimension(lam)
                       for lam in symchars.partitions(p)
                       if symchars.p_core(lam, p) == ())
        rep.expect("p=%d: block character dim sum" % p, hook_sum, bsm.dim)


# ---------------------------------------------------------------------------
# Theorem 1.12(a): End of the source permutation module for S_p


def _check_1_12a(rep, ctx, seed, p):
    ga, b, spm, end = _source_module_and_end(ctx, "sym:%d" % p, str(p), seed)
    want = [[1, 1], [1, 1]] + [[2, 2]] * ((p - 3) // 2)
    rep.expect("factor shapes", _factor_shapes(end, seed), sorted(want))
    rep.expect("self-injective", end.is_self_injective(seed), True)
    rep.expect("symmetric", end.is_symmetric(seed)[0], p == 3)
    tree = brauertree.line_tree(p - 1)
    rep.expect("matches line tree", brauertree.matches_tree(end, tree, seed),
               True)


for _p in (3, 5, 7):
    _register("thm-1.12a-p%d" % _p, "Theorem 1.12(a); Theorem 7.2",
              ("cyclic",) + (("s7",) if _p == 7 else ()),
              {"group": "sym:%d" % _p, "field": str(_p)})(
        lambda rep, ctx, seed, p=_p: _check_1_12a(rep, ctx, seed, p))


# ---------------------------------------------------------------------------
# Theorem 1.12(b): End of the block Sylow module for S_p


def _check_1_12b(rep, ctx, seed, p):
    ga, b, spm, _end = _source_module_and_end(ctx, "sym:%d" % p, str(p), seed)
    s = ga.group.sylow_subgroup(p)
    bsm = b.block_sylow_module(s)
    big = modules.decompose(bsm, seed)
    nonproj = [x for x in big if not modules.is_projective(x.module)]
    proj = [x for x in big if modules.is_projective(x.module)]
    small = modules.decompose(spm, seed)
    ok_fwd, _ = _match_into(small, nonproj, seed)
    ok_bwd, _ = _match_into(nonproj, small, seed)
    rep.expect("source module = non-projective part", ok_fwd and ok_bwd, True)
    nproj = sum(x.multiplicity for x in proj)
    rep.expect("projective summand count", nproj, 0 if p == 5 else 2)
    end_big, _ = modules.endomorphism_algebra(bsm)
    rep.expect("End(B (x)_P k) self-injective",
               end_big.is_self_injective(seed), p == 5)


for _p in (5, 7):
    _register("thm-1.12b-p%d" % _p, "Theorem 1.12(b); Prop. 8.3; Lemma 9.1",
              ("cyclic",) + (("s7",) if _p == 7 else ()),
              {"group": "sym:%d" % _p, "field": str(_p)})(
        lambda rep, ctx, seed, p=_p: _check_1_12b(rep, ctx, seed, p))


# ---------------------------------------------------------------------------
# Theorem 1.10: Klein four defect over GF(4)


@_register("thm-1.10-v4", "Theorem 1.10", ("klein4",),
           {"group": "klein4", "field": "2^2"})
def _check_110_v4(rep, ctx, seed):
    v4 = PermGroup.from_json({"degree": 4,
                              "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]})
    ga = blocks.GroupAlgebra(v4, gfq.GF.parse("2^2"))
    b = [x for x in ga.blocks(seed=seed) if x.is_principal][0]
    rep.expect("single block of dim 4",
               [x.dim for x in ga.blocks(seed=seed)], [4])
    spm = b.source_permutation_module(b.defect_group(), seed=seed)
    end, _ = modules.endomorphism_algebra(spm)
    rep.expect("End factor shapes", _factor_shapes(end, seed), [[1, 1]])
    rep.expect("self-injective", end.is_self_injective(seed), True)


@_register("thm-1.10-a4", "Theorem 1.10", ("klein4",),
           {"group": "alt:4", "field": "2^2"})
def _check_110_a4(rep, ctx, seed):
    ga, b, spm, end = _source_module_and_end(ctx, "alt:4", "2^2", seed)
    rep.expect("block dim", b.dim, 12)
    rep.expect("End factor shapes", _factor_shapes(end, seed),
               [[1, 1], [1, 1], [1, 1]])
    rep.expect("self-injective", end.is_self_injective(seed), True)


@_register("thm-1.10-a5", "Theorem 1.10; Section 10", ("klein4",),
           {"group": "alt:5", "field": "2^2"})
def _check_110_a5(rep, ctx, seed):
    ga, b, spm, end = _source_module_and_end(ctx, "alt:5", "2^2", seed)
    rep.expect("block dims", sorted(x.dim for x in ga.blocks(seed=seed)),
               [16, 44])
    rep.expect("source module summand dims",
               _summand_dims(modules.decompose(spm, seed)), [1, 5, 5])
    rep.expect("End factor shapes", _factor_shapes(end, seed),
               [[1, 1], [2, 2]])
    rep.expect("self-injective", end.is_self_injective(seed), True)


# ---------------------------------------------------------------------------
# Theorem 1.11: a nilpotent block


@_register("thm-1.11-a4p3", "Theorem 1.11; Section 11", ("nilpotent",),
           {"group": "alt:4", "field": "3"})
def _check_111(rep, ctx, seed):
    ga, b, spm, end = _source_module_and_end(ctx, "alt:4", "3", seed)
    rep.expect("nilpotency hint N=PC", b.is_nilpotent_hint(), True)
    rep.expect("source module dim", spm.dim, 1)
    rep.expect("End dim", end.dim, 1)
    rep.expect("End split local", end.is_split_local(seed), True)


# ---------------------------------------------------------------------------
# Theorems 1.2 / 1.3 / 1.4 property suite per block


def _check_block_properties(rep, ctx, seed, gspec, fspec, principal):
    ga, b, spm, end = _source_module_and_end(ctx, gspec, fspec, seed,
                                             principal=principal)
    p = ga.field.p
    defect = b.defect_group()
    sylow = ga.group.sylow_subgroup(p)
    bsm = b.block_sylow_module(sylow)
    small = modules.decompose(spm, seed)
    big = modules.decompose(bsm, seed)
    ok, _ = _match_into(small, big, seed)
    rep.expect("source summands inside Sylow module", ok, True)

    def vertex_class_count(summands):
        count = 0
        for x in summands:
            v = vertexweight.vertex(x.module)
            if v.order() == defect.order() and \
                    ga.group.are_conjugate_subgroups(v, defect):
                count += 1
        return count

    nsmall, nbig = vertex_class_count(small), vertex_class_count(big)
    corr_ga, corr = b.brauer_correspondent(defect, seed=seed)
    ell_corr = corr.number_of_simples(
        corr_ga.group.sylow_subgroup(p), seed=seed)
    rep.expect("vertex-P classes in source module", nsmall, ell_corr)
    rep.expect("vertex-P classes in Sylow module", nbig, ell_corr)

    rep.expect("no projective source summand",
               [x.module.dim for x in small
                if modules.is_projective(x.module)], [])
    registry = modules.SimpleRegistry(ga.field)
    allsimple = set(modules.composition_factor_labels(bsm, registry, seed))
    ell = len(allsimple)
    series = modules.radical_socle_series(spm, registry, seed)
    top = set(series["radical_layers"][0])
    soc = set(series["socle_layers"][-1])
    rep.expect("all block simples in top", sorted(top), sorted(allsimple))
    rep.expect("all block simples in socle", sorted(soc), sorted(allsimple))

    wcount = 0
    for w in vertexweight.weights(ga.group, ga.field, seed=seed):
        if vertexweight.block_of_weight(ga, w, seed=seed) is not b:
            continue
        wcount += 1
        g_corr = vertexweight.green_correspondent(w.module, ga.group, w.q,
                                                  seed=seed)
        hit = any(modules.is_isomorphic(g_corr, x.module, seed=seed)
                  for x in small if x.module.dim == g_corr.dim)
        rep.expect("weight |Q|=%d dim %d correspondent is a summand"
                   % (w.q.order(), w.module.dim), hit, True)
    rep.expect("w(B) = l(B)", wcount, ell)


_PROPERTY_INSTANCES = [
    ("s5p5", "sym:5", "5", True),
    ("s7p7", "sym:7", "7", True),
    ("a4p2", "alt:4", "2^2", True),
    ("a5p2", "alt:5", "2^2", True),
    ("a4p3", "alt:4", "3", True),
    ("s5p2np", "sym:5", "2", False),
]

for _tag, _g, _f, _pr in _PROPERTY_INSTANCES:
    _register("thm-1.2-4-%s" % _tag,
              "Theorems 1.2, 1.3, 1.4; Corollary 4.3",
              ("properties",) + (("s7",) if _tag == "s7p7" else ()),
              {"group": _g, "field": _f, "principal": _pr})(
        lambda rep, ctx, seed, g=_g, f=_f, pr=_pr:
            _check_block_properties(rep, ctx, seed, g, f, pr))


# ---------------------------------------------------------------------------
# Lemma 9.2 and Remarks 13.2 / 13.3


@_register("lem-9.2-mults", "Lemma 9.2", ("cyclic",), {"primes": "p <= 13"})
def _check_92(rep, ctx, seed):
    agree = all(symchars.sylow_multiplicity(p, i)
                == symchars.sylow_multiplicity_oracle(p, i)
                for p in (2, 3, 5, 7, 11, 13) for i in range(p))
    rep.expect("formula = averaged character, p <= 13", agree, True)
    rep.expect("p=7 hook multiplicities",
               [symchars.sylow_multiplicity(7, i) for i in range(7)],
               [1, 0, 3, 2, 3, 0, 1])
    printed = symchars.sylow_multiplicity_printed(7, 2)
    rep.add("printed formula discrepancy at (7,2)",
            printed != symchars.sylow_multiplicity(7, 2),
            "printed value %s is not the multiplicity 3" % printed)


@_register("rem-13.2-homdims", "Remark 13.2", ("cyclic",),
           {"triples": 15, "max_group_order": 5040})
def _check_132(rep, ctx, seed):
    rng = np.random.default_rng(seed)
    pool = ["sym:4", "sym:5", "alt:5", "sym:6", "alt:6", "sym:7"]

    def random_p_subgroup(g, prime):
        # generated by one or two random p-elements (power of the p'-part)
        elems = g.elements()
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            x = elems[int(rng.integers(0, len(elems)))]
            o = x.order()
            while o % prime == 0:
                o //= prime
            gens.append(reduce_power(x, o))
        gens = [x for x in gens if x.order() > 1] or gens[:1]
        sub = g.subgroup(gens)
        o = sub.order()
        while o % prime == 0:
            o //= prime
        if o != 1:
            sub = g.subgroup(gens[:1])  # two p-elements need not generate
        return sub                      # a p-group; one always does

    def reduce_power(x, k):
        acc = Perm.identity(x.degree)
        for _ in range(k):
            acc = acc * x
        return acc

    done = 0
    while done < 15:
        gspec = pool[int(rng.integers(0, len(pool)))]
        g = ctx.group(gspec)
        prime = [2, 3, 5, 7][int(rng.integers(0, 4))]
        if g.order() % prime:
            continue
        p_sub = random_p_subgroup(g, prime)
        q_sub = random_p_subgroup(g, prime)
        if p_sub.order() == 1 or q_sub.order() == 1:
            continue  # keep the permutation modules a manageable size
        if g.order() // min(p_sub.order(), q_sub.order()) > 1008:
            continue
        m = modules.GModule.permutation(g, p_sub, gfq.GF.get(prime))
        n = modules.GModule.permutation(g, q_sub, gfq.GF.get(prime))
        hom = len(modules.hom_modules(m, n))
        dc = len(g.double_cosets(p_sub, q_sub))
        rep.expect("%s p=%d |P|=%d |Q|=%d" % (gspec, prime, p_sub.order(),
                                              q_sub.order()), hom, dc)
        done += 1


def _check_133(rep, ctx, seed, instances):
    for gspec, fspec in instances:
        ga, b, spm, end = _source_module_and_end(ctx, gspec, fspec, seed)
        cnt = b.source_orbit_count(b.defect_group(), seed=seed)
        rep.expect("%s/%s: dim End = P-P orbits of iBi" % (gspec, fspec),
                   end.dim, cnt)


_register("rem-13.3-orbits", "Remark 13.3", ("cyclic", "nilpotent"),
          {"instances": ["sym:5/5", "alt:4/3"]})(
    lambda rep, ctx, seed:
        _check_133(rep, ctx, seed, [("sym:5", "5"), ("alt:4", "3")]))

_register("rem-13.3-orbits-s7", "Remark 13.3", ("s7",),
          {"instances": ["sym:7/7"]})(
    lambda rep, ctx, seed: _check_133(rep, ctx, seed, [("sym:7", "7")]))
