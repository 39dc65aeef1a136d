import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# prints the kind of failure f() raises: "cert", "value", or "none"
_KIND = textwrap.dedent("""\
    from blockperm import gfq

    def kind(f):
        try:
            f()
        except gfq.CertificateError:
            return "cert"
        except ValueError:
            return "value"
        return "none"
    """)


@pytest.fixture
def failure_kinds_under_O():
    """Run a script under python -O, with kind(f) defined, and return the
    words it prints: checks that are not asserts still fire there."""
    def run(script):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _KIND + textwrap.dedent(script)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()
    return run
