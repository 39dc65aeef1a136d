import json
import os

import pytest

from blockperm import checks
from blockperm.permgrp import ResourceCap


def test_registry_and_suites():
    assert set(checks.SUITES) == {"all", "cyclic", "klein4", "nilpotent",
                                  "s7"}
    assert checks.suite_ids("all") == sorted(checks.CHECKS)
    for name in checks.SUITES[1:]:
        ids = checks.suite_ids(name)
        assert ids and ids == sorted(ids)
        assert set(ids) <= set(checks.CHECKS)
    # every check carries a documentation anchor
    for spec in checks.CHECKS.values():
        assert spec.anchor


def test_run_check_produces_report():
    rep = checks.run_check("thm-1.11-a4p3", seed=0)
    assert rep.passed
    assert rep.id == "thm-1.11-a4p3"
    assert rep.wall_time is not None
    names = [a["name"] for a in rep.assertions]
    assert "End split local" in names


def test_suite_json_is_canonical_and_time_free():
    reps = checks.run_suite("nilpotent", seed=0)
    text = checks.suite_json(reps)
    assert "wall_time" not in text
    assert text.endswith("\n")
    data = json.loads(text)
    assert [r["id"] for r in data] == checks.suite_ids("nilpotent")
    assert all(r["seed"] == 0 for r in data)


def test_nilpotent_suite_reruns_identically():
    a = checks.suite_json(checks.run_suite("nilpotent", seed=0,
                                           ctx=checks.Context()))
    b = checks.suite_json(checks.run_suite("nilpotent", seed=0,
                                           ctx=checks.Context()))
    assert a == b


def test_golden_files_exist_for_every_suite():
    here = os.path.dirname(__file__)
    for name in checks.SUITES:
        path = os.path.join(here, "golden", "%s-seed0.json" % name)
        assert os.path.exists(path), path
        data = json.loads(open(path).read())
        assert all(r["seed"] == 0 for r in data)
        assert all(r["passed"] for r in data)


def test_klein4_matches_golden():
    here = os.path.dirname(__file__)
    stored = open(os.path.join(here, "golden", "klein4-seed0.json")).read()
    fresh = checks.suite_json(checks.run_suite("klein4", seed=0,
                                               ctx=checks.Context()))
    assert fresh == stored


def test_run_check_reports_only_resource_caps():
    def capped(rep, ctx, seed):
        raise ResourceCap("group of order 5040 exceeds element cap 100")

    def broken(rep, ctx, seed):
        raise ValueError("singular matrix")

    rep = checks.run_check(checks.CheckSpec("capped", "none", (), capped))
    assert not rep.passed
    assert [(a["name"], a["computed"]) for a in rep.assertions] == [
        ("resource-cap", "group of order 5040 exceeds element cap 100")]
    with pytest.raises(ValueError, match="singular matrix"):
        checks.run_check(checks.CheckSpec("broken", "none", (), broken))


FAST_CHECKS = ["lem-9.2-mults", "rem-13.3-orbits", "thm-1.10-a4",
               "thm-1.10-a5", "thm-1.10-v4", "thm-1.11-a4p3", "thm-1.12a-p3",
               "thm-1.12a-p5", "thm-1.12b-p5", "thm-1.2-4-a4p2",
               "thm-1.2-4-a4p3", "thm-1.2-4-a5p2", "thm-1.2-4-s5p2np"]


def test_fast_checks_do_not_depend_on_the_seed():
    """The random paths left (MeatAxe splitting, semisimple splitting,
    symmetric-form search) change no computed value: seeds 0, 1 and 2 give
    the same canonical reports apart from the seed field."""
    texts = []
    for seed in (0, 1, 2):
        ctx = checks.Context()
        reps = [checks.run_check(cid, seed=seed, ctx=ctx)
                for cid in FAST_CHECKS]
        data = json.loads(checks.suite_json(reps))
        assert all(r.pop("seed") == seed and r["passed"] for r in data)
        texts.append(json.dumps(data, sort_keys=True))
    assert texts[0] == texts[1] == texts[2]


def test_a4_over_gf256_block_properties_do_not_depend_on_the_seed():
    """The A_4 block-property questions over GF(2^8) pass at seeds 0-4 with
    identical canonical assertions."""
    texts = []
    for seed in range(5):
        rep = checks.CheckReport("thm-1.2-4-a4gf256", seed)
        checks._check_block_properties(rep, checks.Context(), seed, "alt:4",
                                       "2^8", True)
        assert rep.assertions and rep.passed, rep.assertions
        texts.append(json.dumps(rep.assertions, sort_keys=True))
    assert len(set(texts)) == 1


def test_registry_checks_run_under_python_O(failure_kinds_under_O):
    """A second check under a used id is refused; a group algebra without a
    principal block fails a certificate."""
    assert failure_kinds_under_O("""
        import types
        from blockperm import checks
        print(kind(lambda: checks._register("thm-1.10-v4", "x", ("all",))(
            print)))
        ctx = checks.Context()
        ctx._algebras[("g", "f")] = types.SimpleNamespace(
            blocks=lambda seed=0: [])
        print(kind(lambda: ctx.principal_block("g", "f")))
        """) == ["value", "cert"]


def test_shared_context_reports_match_fresh_runs():
    """Module records live on the context's groups, so a check run after
    another seed's run on one Context reads them; its canonical report
    still equals a fresh single-check run's."""
    shared = checks.Context()
    for seed in (0, 1):
        for cid in ("thm-1.2-4-a4p3", "thm-1.10-a5"):
            got = checks.run_check(cid, seed=seed, ctx=shared)
            fresh = checks.run_check(cid, seed=seed, ctx=checks.Context())
            assert checks.suite_json([got]) == checks.suite_json([fresh])
