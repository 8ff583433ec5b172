"""Puts this checkout's `src/` on the import path for pytest, behind any
explicit PYTHONPATH.

pytest's own `pythonpath` setting inserts its entries ahead of PYTHONPATH, so
`PYTHONPATH=<other checkout>/src pytest` would quietly test this checkout.
Here `src/` goes right after the PYTHONPATH entries: an explicit PYTHONPATH
wins, and with none, plain `pytest` from a checkout needs no install.  The
tests that start `python -m leonard_lab` hand the child the `src/` that was
imported here.

It also imports hypothesis's failure-report module ahead of the tests, so
that a failing property test is reported as a failure (see below).
"""

import os
import sys
import warnings

SRC = os.path.join(os.path.dirname(os.path.realpath(__file__)), "src")

_explicit = {
    os.path.realpath(entry)
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if entry
}
sys.path.insert(
    max(
        (index + 1 for index, entry in enumerate(sys.path)
         if entry and os.path.realpath(entry) in _explicit),
        default=0,
    ),
    SRC,
)

# hypothesis imports `hypothesis.extra._patching` (and through it libcst and
# mypy_extensions) only when a test fails, inside pytest's report hook, where
# `filterwarnings = ["error"]` turns mypy_extensions' DeprecationWarning into
# an INTERNALERROR that ends the run.  Imported here once, with that warning
# ignored, the failure is reported as a failure and the run goes on.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
