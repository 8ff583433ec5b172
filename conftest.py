"""Puts this checkout's `src/` on the import path for pytest, behind any
explicit PYTHONPATH.

pytest's own `pythonpath` setting inserts its entries ahead of PYTHONPATH, so
`PYTHONPATH=<other checkout>/src pytest` would quietly test this checkout.
Here `src/` goes right after the PYTHONPATH entries: an explicit PYTHONPATH
wins, and with none, plain `pytest` from a checkout needs no install.  The
tests that start `python -m leonard_lab` hand the child the `src/` that was
imported here.
"""

import os
import sys

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
