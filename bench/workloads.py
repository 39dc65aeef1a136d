"""The benchmark's three workloads and the checking of their answers.

A workload is a fixed list of questions put to blockperm.  One pass asks
every question once, starting from fresh group and group-algebra objects,
and checks each answer against a reference value.  make_inputs(seed)
chooses the inputs (random conjugates of fixed subgroups); ask() receives
the seed for every randomized blockperm call.  Neither changes a correct
answer.

Why these three:

* s7-principal is the paper's headline example, the principal block of
  GF(7)S_7.  Its cost sits in dense prime-field echelon forms of the
  5040 x 5040 ideal and in the block layer, plus the MeatAxe on the
  132-dim block Sylow module.
* perm-modules asks for homomorphism spaces between permutation modules
  k[G/P] and k[G/Q] and for vertex-labelled decompositions of two
  Sylow permutation modules.  No group algebra is built; the cost is the
  prime-field matrix-vector path, the MeatAxe and permutation groups.
* small-groups runs the registry checks on groups of order <= 120 over
  small prime and extension fields, plus the Theorem 1.2-1.4 questions for
  A_4 over GF(2^8).  Many small calls: per-call overhead and
  extension-field arithmetic dominate, and large echelon forms are absent.
"""

import json
import os
import traceback

import numpy as np

from blockperm import blocks, checks, gfq, modules, symchars, vertexweight
from blockperm.permgrp import Perm, parse_group

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
GOLDEN = os.path.join(REPO_DIR, "tests", "golden", "all-seed0.json")


class Tally:
    """Answers of one pass: each question is answered once or fails."""

    def __init__(self, questions):
        self.questions = list(questions)
        self.results = {}          # question id -> (ok, detail)

    def expect(self, qid, computed, expected):
        assert qid in self.questions and qid not in self.results, qid
        ok = computed == expected
        self.results[qid] = (ok, None if ok else
                             "computed %r, expected %r" % (computed, expected))

    def abort(self, detail):
        """The pass raised: every question not yet answered fails."""
        for qid in self.questions:
            self.results.setdefault(qid, (False, detail))

    @property
    def attempted(self):
        return len(self.questions)

    @property
    def failures(self):
        return [(qid, self.results.get(qid, (False, "never answered"))[1])
                for qid in self.questions
                if not self.results.get(qid, (False,))[0]]


def run_pass(workload, inputs, seed, span):
    """Ask every question of workload once; returns the Tally.

    span(name) is a context manager put around each registry check."""
    tally = Tally(workload.questions(inputs))
    try:
        workload.ask(inputs, seed, tally, span)
    except Exception:  # a raising question fails, the benchmark carries on
        tally.abort(traceback.format_exc(limit=-3))
    return tally


# ---------------------------------------------------------------------------
# s7-principal


class S7Principal:
    """Block decomposition of GF(7)S_7, the principal block, its block Sylow
    module B (x)_S k and that module's indecomposable summands.

    Expected values are Example 9.1 as recorded in the golden report
    (ex-9.1-dims): the principal block has dim 924, B (x)_S k has dim 132
    and splits as 1+1+15+15+15+15+35+35 with the two 35s projective.  The
    other eight blocks have defect zero."""

    name = "s7-principal"
    fields = ("7",)
    groups = ("sym:7",)

    def make_inputs(self, seed):
        return None

    def questions(self, inputs):
        return ["block-count", "principal-first", "positive-defect-blocks",
                "principal-dim", "block-sylow-dim", "summand-dims",
                "projective-summand-dims"]

    def ask(self, inputs, seed, tally, span):
        group = parse_group("sym:7")
        ga = blocks.GroupAlgebra(group, gfq.GF.parse("7"))
        blist = ga.blocks(seed=seed)
        tally.expect("block-count", len(blist), 9)
        tally.expect("principal-first", blist[0].is_principal, True)
        positive = [b for b in blist if b.defect_group().order() > 1]
        tally.expect("positive-defect-blocks", positive, [blist[0]])
        b = blist[0]
        tally.expect("principal-dim", b.dim, 924)
        bsm = b.block_sylow_module(group.sylow_subgroup(7))
        tally.expect("block-sylow-dim", bsm.dim, 132)
        summands = modules.decompose(bsm, seed)
        dims = sorted(x.module.dim for x in summands
                      for _ in range(x.multiplicity))
        tally.expect("summand-dims", dims, [1, 1, 15, 15, 15, 15, 35, 35])
        proj = sorted(x.module.dim for x in summands
                      for _ in range(x.multiplicity)
                      if modules.is_projective(x.module))
        tally.expect("projective-summand-dims", proj, [35, 35])


# ---------------------------------------------------------------------------
# perm-modules


def _random_element(degree, even, rng):
    img = [int(x) for x in rng.permutation(degree)]
    g = Perm(img)
    if even and _is_odd(img):
        g = Perm([1, 0] + list(range(2, degree))) * g
    return g


def _is_odd(img):
    seen = [False] * len(img)
    swaps = 0
    for i in range(len(img)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = img[j]
            length += 1
        swaps += max(length - 1, 0)
    return swaps % 2 == 1


def _conjugate_gens(gens, x):
    xi = x.inv()
    return [tuple((x * Perm(g) * xi).img) for g in gens]


class PermModules:
    """Hom(k[G/P], k[G/Q]) for fixed (G, p, |P|, |Q|) shapes, and
    decompositions with vertices of k[S_6/Syl_3] and k[A_6/Syl_2].

    The shapes and the subgroups are the ones the rem-13.2-homdims check
    draws at seed 0 (data/perm_modules.json); the benchmark seed replaces
    each subgroup by a random conjugate, which changes no answer.  Each hom
    dimension must equal |P\\G/Q| and the recorded value; each
    decomposition must give the recorded summand dims, multiplicities and
    vertex orders, and dim End the recorded value and |H\\G/H|."""

    name = "perm-modules"
    fields = ("2", "3", "5")
    groups = ("sym:4", "sym:5", "alt:5", "sym:6", "alt:6")

    def __init__(self):
        with open(os.path.join(BENCH_DIR, "data", "perm_modules.json")) as fh:
            self.data = json.load(fh)

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        homs, decs = [], []
        for h in self.data["homs"]:
            degree = len(h["P"][0])
            even = h["group"].startswith("alt:")
            x = _random_element(degree, even, rng)
            y = _random_element(degree, even, rng)
            homs.append(dict(h, P=_conjugate_gens(h["P"], x),
                             Q=_conjugate_gens(h["Q"], y)))
        for d in self.data["decompositions"]:
            degree = len(d["H"][0])
            x = _random_element(degree, d["group"].startswith("alt:"), rng)
            decs.append(dict(d, H=_conjugate_gens(d["H"], x)))
        return {"homs": homs, "decompositions": decs}

    def questions(self, inputs):
        out = []
        for i, h in enumerate(inputs["homs"]):
            out += ["hom-%d-%s-p%d" % (i, h["group"], h["p"]),
                    "double-cosets-%d" % i]
        for d in inputs["decompositions"]:
            tag = "%s-p%d" % (d["group"], d["p"])
            out += ["summands-" + tag, "end-dim-" + tag]
        return out

    def ask(self, inputs, seed, tally, span):
        groups = {}

        def group(spec):
            if spec not in groups:
                groups[spec] = parse_group(spec)
            return groups[spec]

        for i, h in enumerate(inputs["homs"]):
            g = group(h["group"])
            field = gfq.GF.get(h["p"])
            p_sub = g.subgroup([Perm(x) for x in h["P"]])
            q_sub = g.subgroup([Perm(x) for x in h["Q"]])
            m = modules.GModule.permutation(g, p_sub, field)
            n = modules.GModule.permutation(g, q_sub, field)
            hom = len(modules.hom_modules(m, n))
            tally.expect("hom-%d-%s-p%d" % (i, h["group"], h["p"]), hom,
                         h["hom_dim"])
            tally.expect("double-cosets-%d" % i,
                         len(g.double_cosets(p_sub, q_sub)), hom)
        for d in inputs["decompositions"]:
            tag = "%s-p%d" % (d["group"], d["p"])
            g = group(d["group"])
            h_sub = g.subgroup([Perm(x) for x in d["H"]])
            m = modules.GModule.permutation(g, h_sub, gfq.GF.get(d["p"]))
            summands = sorted(
                [x.module.dim, x.multiplicity,
                 vertexweight.vertex(x.module).order()]
                for x in modules.decompose(m, seed))
            tally.expect("summands-" + tag, summands, d["summands"])
            end = len(modules.hom_modules(m, m))
            tally.expect("end-dim-" + tag,
                         [end, len(g.double_cosets(h_sub, h_sub))],
                         [d["end_dim"], d["end_dim"]])


# ---------------------------------------------------------------------------
# small-groups


SMALL_CHECKS = ("lem-9.2-mults", "rem-13.3-orbits", "thm-1.10-a4",
                "thm-1.10-a5", "thm-1.10-v4", "thm-1.11-a4p3",
                "thm-1.12a-p3", "thm-1.12a-p5", "thm-1.12b-p5",
                "thm-1.2-4-a4p2", "thm-1.2-4-a4p3", "thm-1.2-4-a5p2",
                "thm-1.2-4-s5p2np", "thm-1.2-4-s5p5")

# Theorems 1.2-1.4 for the principal block of A_4 over GF(2^8), checked by
# the identities the registry's thm-1.2-4-* checks assert.  A_5 over GF(2^8)
# passes too but takes 4-8 s, which would leave room for only two passes.
GF256_CHECK = "thm-1.2-4-a4gf256"

# the p = 5 half of ex-9.1-chars (the p = 7 half needs GF(7)S_7)
CHARS_P5 = "ex-9.1-chars-p5"


def load_golden():
    with open(GOLDEN) as fh:
        return {entry["id"]: entry for entry in json.load(fh)}


class SmallGroups:
    """The registry checks on groups of order <= 120 and the GF(2^8)
    block-property questions.  A registry check run at seed 0 must give
    its golden entry's canonical JSON; at any seed every assertion must
    pass."""

    name = "small-groups"
    fields = ("2", "2^2", "3", "5", "2^8")
    groups = ("sym:3", "alt:4", "alt:5", "sym:5")

    def __init__(self):
        self.golden = load_golden()

    def make_inputs(self, seed):
        return None

    def questions(self, inputs):
        return list(SMALL_CHECKS) + [GF256_CHECK, CHARS_P5]

    def ask(self, inputs, seed, tally, span):
        ctx = checks.Context()
        for cid in SMALL_CHECKS:
            with span("checks." + cid):
                rep = checks.run_check(cid, seed=seed, ctx=ctx)
            if seed == 0:
                canonical = json.loads(json.dumps(rep.to_json(False)))
                tally.expect(cid, canonical, self.golden[cid])
            else:
                tally.expect(cid, failed_assertions(rep), [])
        rep = checks.CheckReport(GF256_CHECK, seed)
        with span("checks." + GF256_CHECK):
            checks._check_block_properties(rep, ctx, seed, "alt:4", "2^8",
                                           True)
        tally.expect(GF256_CHECK, failed_assertions(rep), [])
        with span("checks." + CHARS_P5):
            tally.expect(CHARS_P5, block_character_dims(ctx, 5, seed),
                         (14, 14))


def block_character_dims(ctx, p, seed):
    """(sum of chi(1) * multiplicity over the principal-block characters in
    the permutation character on the cosets of C_p, dim B (x)_S k) for
    GF(p)S_p; Lemma 9.2 says the two agree."""
    ga, b = ctx.principal_block("sym:%d" % p, str(p), seed=seed)
    bsm = b.block_sylow_module(ga.group.sylow_subgroup(p))
    mult = symchars.perm_character_multiplicities(
        p, ctx.group("cyclic:%d" % p))
    hook_sum = sum(mult[lam] * symchars.dimension(lam)
                   for lam in symchars.partitions(p)
                   if symchars.p_core(lam, p) == ())
    return hook_sum, bsm.dim


def failed_assertions(rep):
    return [a["name"] for a in rep.assertions if not a["passed"]]


WORKLOADS = {w.name: w for w in (S7Principal, PermModules, SmallGroups)}

# every check span any workload can open, for a fixed per-layer metric set
CHECK_SPANS = SMALL_CHECKS + (GF256_CHECK, CHARS_P5)
