"""Check that the traced run's exact work counts repeat exactly.

    python3 bench/check_counts.py

Runs the traced pass of each workload twice, with seed 1.  It exits non-zero
unless every work count is identical in both runs and both runs passed their
own exactness gate, which includes comparing the seed-independent counts with
bench/expected.json (the values measured at the seed commit: 45,478,888 rows
scanned and 2,298,457 kept on the acceptance grid, 27,857,348 and 1,219,292
at q = 13, 495,874 isospectral pairs, and a catalog repeat ratio of 2.0).

The scanned and kept totals are properties of the grid: every cell and every
subspace is counted whether or not the library scans it.  They check that the
work done is exact, not how much of it a faster scan avoids.
"""

from __future__ import annotations

import sys
import time

from passes import COUNT_METRICS
from run import PassError, run_pass

WORKLOADS = ("acceptance-2w", "scan-q13", "roots-iso")
SEED = 1


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            try:
                runs.append(run_pass(workload, SEED, "traced",
                                     time.monotonic() + 600))
            except PassError as exc:
                print(f"{workload}: {exc}")
                return 1
        for i, r in enumerate(runs):
            for err in r["errors"]:
                print(f"{workload} run {i + 1}: check failed: {err}")
            bad += r["failed"] > 0
        for name in COUNT_METRICS:
            a, b = (r["layers"][name] for r in runs)
            same = a == b
            bad += not same
            print(f"{workload:14s} {name:28s} {a!r:>14} {b!r:>14} "
                  f"{'same' if same else 'DIFFERENT'}")
    print("counts repeat exactly and match the seed values" if not bad
          else f"{bad} count or gate failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
