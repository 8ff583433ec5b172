#!/usr/bin/env python3
"""Write expected_digests.json: the output digests of the leading operations
of every workload at the default seed, which run.py compares against.

    python3 perfbench/record_digests.py

Rerun it only when the library's exact outputs are meant to change, and say
why in the change that commits the new file.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    _, workloads = run.load_program()
    expected = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name, run.DEFAULT_SEED)
        phase = run.run_phase(wl, ops=wl.digest_prefix)
        if phase.failed:
            print("\n".join(phase.problems), file=sys.stderr)
            return 1
        expected[name] = phase.digests
    run.EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
