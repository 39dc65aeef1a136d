import json
import os
import pathlib
import subprocess
import sys

import pytest

from blockperm import blocks, cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_blocks_json(capsys):
    code, out = run(capsys, "blocks", "--group", "sym:4", "--field", "3",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(b["dim"] for b in data) == 24
    assert sum(b["is_principal"] for b in data) == 1


def test_decompose_regular_module(capsys):
    code, out = run(capsys, "decompose", "--group", "cyclic:4", "--field",
                    "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert sum(e["dim"] * e["multiplicity"] for e in data["summands"]) == 4


def test_decompose_with_subgroup_and_vertices(capsys):
    code, out = run(capsys, "vertex", "--group", "sym:4", "--field", "2",
                    "--subgroup", "sylow:sym:4:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert all("vertex_order" in e for e in data["summands"])


@pytest.mark.parametrize("argv,want", [
    (("vertex", "--group", "sym:4", "--field", "2", "--subgroup",
      "sylow:sym:4:3"), [[8, 1, 1]]),
    (("decompose", "--group", "sym:5", "--field", "2", "--subgroup",
      "sylow:sym:5:2", "--vertices"), [[1, 1, 8], [4, 1, 2], [10, 1, 4]])])
def test_vertex_orders_pinned(capsys, argv, want):
    """(dim, multiplicity, vertex order) of each summand, as printed
    before vertices of permutation-module summands came from Brauer
    quotients."""
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    got = [[e["dim"], e["multiplicity"], e["vertex_order"]]
           for e in json.loads(out)["summands"]]
    assert got == want


def test_source_perm(capsys):
    code, out = run(capsys, "source-perm", "--group", "sym:5", "--field",
                    "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["block_dim"] == 70
    assert data["defect_order"] == 5
    dims = sorted(e["dim"] for e in data["summands"])
    assert dims == [1, 1, 6, 6]


def test_weights(capsys):
    code, out = run(capsys, "weights", "--group", "sym:5", "--field", "5",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(e["num_weights"] for e in data) == 4


def test_brauer_tree_end_of_u(capsys):
    code, out = run(capsys, "brauer-tree", "--line", "6", "--end-of-u",
                    "--json")
    assert code == 0
    shapes = sorted((d["num_simples"], d["proj_length"])
                    for d in json.loads(out))
    assert shapes == [(1, 1), (1, 1), (2, 2), (2, 2)]


def test_brauer_tree_json_output(capsys):
    code, out = run(capsys, "brauer-tree", "--star", "3:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["exceptional"]["m"] == 2
    assert len(data["vertices"]) == 4


def test_selfinj_true(capsys):
    code, out = run(capsys, "selfinj", "--algebra", "nakayama:2:2",
                    "--field", "7")
    assert code == 0
    assert out.strip() == "true"


def test_chars_sylow_shorthand(capsys):
    code, out = run(capsys, "chars", "--n", "7", "--subgroup", "sylow:7",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["7"] == 1
    assert data["5,1,1"] == 3
    # dim 35 character vanishing on 7-cycles: multiplicity 35/7
    assert data["4,2,1"] == 5


def test_paper_check_nilpotent_suite(capsys):
    code, out = run(capsys, "paper-check", "--suite", "nilpotent")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert all(" PASS " in l for l in lines)


def test_paper_check_golden_comparison(capsys, tmp_path):
    golden = tmp_path / "nilpotent.json"
    code, _ = run(capsys, "paper-check", "--suite", "nilpotent",
                  "--write-golden", str(golden))
    assert code == 0
    code, _ = run(capsys, "paper-check", "--suite", "nilpotent",
                  "--golden", str(golden))
    assert code == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--group", "sym:4"])   # missing --field
    assert exc.value.code == 2


def test_bad_group_spec_exit_code(capsys):
    code = cli.main(["blocks", "--group", "nonsense:4", "--field", "3"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["decompose", "--group", "sym:4", "--field", "2", "--subgroup", "sym:3"],
    ["source-perm", "--group", "sym:4", "--field", "3", "--block", "9"],
    ["source-perm", "--group", "sym:4", "--field", "3", "--block", "-1"]])
def test_bad_input_exit_code(capsys, argv):
    assert cli.main(argv) == 2


@pytest.mark.parametrize("exc", [AssertionError, RuntimeError])
def test_internal_failure_exit_code(capsys, monkeypatch, exc):
    def fail(self, seed=0):
        raise exc("certificate failed")
    monkeypatch.setattr(blocks.GroupAlgebra, "blocks", fail)
    code = cli.main(["blocks", "--group", "sym:3", "--field", "3"])
    assert code == 3
    assert "certificate failed" in capsys.readouterr().err


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("BLOCKPERM_CAP", "100")
    code = cli.main(["blocks", "--group", "sym:5", "--field", "3"])
    assert code == 4
    assert "exceeds element cap 100" in capsys.readouterr().err


def _python_O(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O"] + list(args), env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_certificates_run_under_python_O():
    assert _python_O("-c", "assert False").returncode == 0
    proc = _python_O("-c", "import numpy as np; from blockperm import gfq; "
                     "gfq._reduce(np.zeros(4), 7, gfq.EXACT_BOUND)")
    assert proc.returncode == 1 and "CertificateError" in proc.stderr


def test_algebra_certificates_run_under_python_O():
    """The span of the arrow x of k[x]/(x^3) is not closed under products
    (x * x = x^2), and subalgebra_on_rows says so with asserts stripped."""
    proc = _python_O("-c", "import numpy as np; from blockperm import "
                     "algebra, gfq; a = algebra.nakayama_algebra("
                     "gfq.GF.get(3), 1, 3); "
                     "a.subalgebra_on_rows(np.array([[0, 1, 0]]))")
    assert proc.returncode == 1 and "CertificateError" in proc.stderr
    assert "subspace not closed" in proc.stderr


def test_radical_certificates_run_under_python_O():
    """In k x k over GF(2) (basis e_0, e_1), e_0 lies outside the level-0
    ideal, so 2 does not divide Tr(L^2) = 1; span(e_0 + e_1) is not an
    ideal; span(e_0) is an ideal but not nilpotent.  Each radical
    certificate says so with asserts stripped."""
    proc = _python_O("-c", "\n".join([
        "import numpy as np",
        "from blockperm import algebra, gfq",
        "F = gfq.GF.get(2)",
        "c = algebra.nakayama_algebra(F, 2, 1).mult",
        "for f in (lambda: algebra._trace_power_functional(",
        "              2, 2, c, np.array([[1, 0]], np.int16)),",
        "          lambda: algebra._certify_radical(",
        "              F, c, np.array([[1, 1]], np.int16), [0]),",
        "          lambda: algebra._certify_radical(",
        "              F, c, np.array([[1, 0]], np.int16), [0])):",
        "    try:",
        "        f()",
        "    except gfq.CertificateError as exc:",
        "        print(exc)"]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Tr(L^2) of an element of the ideal is not divisible by 2",
        "the radical is not a two-sided ideal",
        "the radical is not nilpotent"]


def test_permgrp_certificates_run_under_python_O():
    """Enumerating S_4 against a wrong chain order fails its element-count
    check with asserts stripped."""
    proc = _python_O("-c", "from blockperm.permgrp import PermGroup; "
                     "g = PermGroup.symmetric(4); g.order = lambda: 25; "
                     "g.elements()")
    assert proc.returncode == 1 and "CertificateError" in proc.stderr
    assert "24 elements found for a group of order 25" in proc.stderr


@pytest.mark.parametrize("suite", ["klein4", "nilpotent"])
def test_paper_check_golden_under_python_O(suite):
    """The fast suites still match their golden reports with asserts
    stripped."""
    golden = ROOT / "tests" / "golden" / ("%s-seed0.json" % suite)
    proc = _python_O("-m", "blockperm.cli", "paper-check", "--suite", suite,
                     "--golden", str(golden))
    assert proc.returncode == 0, proc.stdout + proc.stderr
