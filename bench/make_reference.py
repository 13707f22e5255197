"""Write bench/reference.json: R and err_R of the ratio-panel at the default seed.

    python3 bench/make_reference.py

The ratio-panel check at the default seed accepts a result when
|R - R_ref| <= err_R + err_ref. Regenerate only from a commit whose values
are trusted, and record why in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import sys

import numpy as np

import run  # sets up the import path to src/
import workloads
from qionize import observables


def main() -> int:
    cases = workloads.ratio_panel(workloads.DEFAULT_SEED)
    panel = {}
    for case in cases:
        result = observables.enhancement_ratio(case.config, case.channel)
        panel[case.label] = {"R": result.R, "err_R": result.err_R}
    reference = {
        "generated_by": "bench/make_reference.py",
        "commit": run.git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": workloads.DEFAULT_SEED,
        "panel": panel,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH.name} for {len(panel)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
