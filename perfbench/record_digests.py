#!/usr/bin/env python3
"""Re-record perfbench/digests.json, the stdout digests of the default seed.

    python3 perfbench/record_digests.py

Run it only when a change to the program's output is intended: the stored
digests are what makes a default-seed run fail when any report changes by a
byte.  Covers passes up to ``--seconds 60`` at the standard size and the
tiny size of the self-test.  The runs ignore the digests stored so far, so
a changed op list can be recorded.  Refuses to record if any op fails a check.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run, spec, workloads  # noqa: E402

MAX_SECONDS = 60


def main() -> int:
    os.chdir(ROOT)
    run.stored_digests = lambda *args: None
    store = {"seed": spec.DEFAULT_SEED}
    for scale, seconds in (("standard", MAX_SECONDS), ("tiny", spec.DEFAULT_SECONDS)):
        store[scale] = {}
        for workload in workloads.WORKLOADS:
            result = run.run_workload(workload, spec.DEFAULT_SEED, seconds, False, scale)
            passes = [[] for _ in range(result["passes"])]
            for op in result["ops"]:
                if op["failures"]:
                    print(f"refusing to record: {op['label']}: {op['failures']}",
                          file=sys.stderr)
                    return 1
                passes[op["pass"]].append(op["digest"])
            store[scale][workload] = [" ".join(p) for p in passes]
            print(f"{scale} {workload}: {len(result['ops'])} ops in {len(passes)} passes")
    run.DIGESTS.write_text(json.dumps(store, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
