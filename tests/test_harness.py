"""The test harness itself: a failing property test is reported as a failure
and the tests after it still run, under this repository's pytest settings
(`pyproject.toml`, whose `filterwarnings = ["error"]` stays) and its root
`conftest.py`."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "-p", "conftest", "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
