"""Acceptance gate: every structural claim the package is built to verify,
one test (and one pass/fail line under pytest -v) per criterion.

The whole check suite is run twice up front with the same seed and fresh
caches; criteria 1-8 read the reports of the first run, criterion 9
compares the two runs byte for byte against the versioned golden file.
All numeric assertions are exact.
"""

import os

import pytest

from blockperm import checks

SEED = 0
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "all-seed%d.json" % SEED)


@pytest.fixture(scope="module")
def runs():
    first = checks.run_suite("all", seed=SEED, ctx=checks.Context())
    second = checks.run_suite("all", seed=SEED, ctx=checks.Context())
    return first, second


def report(runs, check_id):
    hits = [r for r in runs[0] if r.id == check_id]
    assert len(hits) == 1
    return hits[0]


def value(rep, name):
    """Computed value of a named assertion, requiring that it passed."""
    hits = [a for a in rep.assertions if a["name"] == name]
    assert len(hits) == 1, "no assertion %r in %s" % (name, rep.id)
    assert hits[0]["passed"], "%s: %r failed (%r != %r)" % (
        rep.id, name, hits[0]["computed"], hits[0]["expected"])
    return hits[0]["computed"]


def budget(seconds, *reports):
    spent = sum(r.wall_time for r in reports)
    assert spent <= seconds, "time budget exceeded: %.1fs > %ds" % (
        spent, seconds)


def test_criterion_1_s7_principal_block(runs):
    dims = report(runs, "ex-9.1-dims")
    end = report(runs, "ex-9.1-end")
    chars = report(runs, "ex-9.1-chars")
    mults = report(runs, "lem-9.2-mults")
    assert value(dims, "positive-defect blocks") == 1
    assert value(dims, "principal block dim") == 924
    assert value(dims, "summand count") == 8
    assert value(dims, "summand dims") == [1, 1, 15, 15, 15, 15, 35, 35]
    assert value(dims, "projective summand dims") == [35, 35]
    assert value(mults, "p=7 hook multiplicities") == [1, 0, 3, 2, 3, 0, 1]
    assert value(chars, "p=7: block character dim sum") == 132
    assert value(end, "dim End(B (x)_S k)") == 24
    assert value(end, "block double-coset count") == 24
    assert value(end, "End self-injective") is False
    budget(120, dims, end, chars)


def test_criterion_2_source_end_structure(runs):
    reps = [report(runs, "thm-1.12a-p%d" % p) for p in (3, 5, 7)]
    for p, rep in zip((3, 5, 7), reps):
        want = sorted([[1, 1], [1, 1]] + [[2, 2]] * ((p - 3) // 2))
        # group-theoretic computation of the factors...
        assert value(rep, "factor shapes") == want
        assert value(rep, "self-injective") is True
        assert value(rep, "symmetric") is (p == 3)
        # ...and the combinatorial Brauer-tree prediction agree
        assert value(rep, "matches line tree") is True
    budget(120, *reps)


def test_criterion_3_source_vs_sylow_module(runs):
    reps = {p: report(runs, "thm-1.12b-p%d" % p) for p in (5, 7)}
    for p, rep in reps.items():
        assert value(rep, "source module = non-projective part") is True
        assert value(rep, "projective summand count") == (0 if p == 5 else 2)
        assert value(rep, "End(B (x)_P k) self-injective") is (p == 5)
    budget(120, *reps.values())


def test_criterion_4_klein_four_blocks(runs):
    v4 = report(runs, "thm-1.10-v4")
    a4 = report(runs, "thm-1.10-a4")
    a5 = report(runs, "thm-1.10-a5")
    assert value(v4, "End factor shapes") == [[1, 1]]
    assert value(a4, "End factor shapes") == [[1, 1], [1, 1], [1, 1]]
    assert value(a5, "End factor shapes") == [[1, 1], [2, 2]]
    assert value(a5, "source module summand dims") == [1, 5, 5]
    for rep in (v4, a4, a5):
        assert value(rep, "self-injective") is True
    budget(180, v4, a4, a5)


def test_criterion_5_nilpotent_block(runs):
    rep = report(runs, "thm-1.11-a4p3")
    assert value(rep, "nilpotency hint N=PC") is True
    assert value(rep, "End dim") == 1
    assert value(rep, "End split local") is True
    budget(30, rep)


def test_criterion_6_block_property_suite(runs):
    tags = ("s5p5", "s7p7", "a4p2", "a5p2", "a4p3", "s5p2np")
    reps = [report(runs, "thm-1.2-4-%s" % t) for t in tags]
    for rep in reps:
        assert value(rep, "source summands inside Sylow module") is True
        assert value(rep, "no projective source summand") == []
        # vertex-P class counts against the Brauer correspondent
        ell = value(rep, "vertex-P classes in source module")
        assert value(rep, "vertex-P classes in Sylow module") == ell
        assert value(rep, "all block simples in top") == \
            value(rep, "all block simples in socle")
        # every weight was matched to a summand and the counts agree
        wnames = [a["name"] for a in rep.assertions
                  if a["name"].startswith("weight ")]
        assert len(wnames) == value(rep, "w(B) = l(B)")
        assert rep.passed
    budget(600, *reps)


def test_criterion_7_double_coset_identity(runs):
    rep = report(runs, "rem-13.2-homdims")
    triples = [a for a in rep.assertions if a["name"] != "resource-cap"]
    assert len(triples) == 15
    for a in triples:
        assert a["passed"], a
        assert a["computed"] == a["expected"]
    budget(10, rep)


def test_criterion_8_multiplicity_formula(runs):
    rep = report(runs, "lem-9.2-mults")
    assert value(rep, "formula = averaged character, p <= 13") is True
    flagged = [a for a in rep.assertions
               if a["name"] == "printed formula discrepancy at (7,2)"]
    assert len(flagged) == 1 and flagged[0]["passed"]
    budget(5, rep)


def test_criterion_9_determinism(runs):
    first, second = runs
    ja = checks.suite_json(first)
    jb = checks.suite_json(second)
    assert ja == jb, "same seed, different output"
    with open(GOLDEN) as fh:
        assert ja == fh.read(), "suite output drifted from the golden file"


def test_all_checks_pass(runs):
    failures = []
    for rep in runs[0]:
        for a in rep.assertions:
            if not a["passed"]:
                failures.append((rep.id, a["name"], a["computed"],
                                 a["expected"]))
    assert not failures, failures
