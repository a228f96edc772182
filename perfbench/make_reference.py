"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  It executes every workload once with
seed 0, in this process, through the same workload code the benchmark runs,
and overwrites perfbench/reference/.  The references in the repository were
generated at the commit that introduced the benchmark; regenerate them only
when a change is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF = os.path.join(HERE, "reference")

#: Headroom on fine_mesh's L2 error to the exact solution before the check fails.
L2_SLACK = 1.05


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import fkramers
    import fkramers.cli  # noqa: F401
    from workloads import PAPER_COMMANDS, WORKLOADS, Boundary

    os.makedirs(os.path.join(REF, "paper_tables"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        outputs = WORKLOADS["paper_tables"][0](fkramers, 0, tmp, Boundary(time.perf_counter, False))
        for name, _ in PAPER_COMMANDS:
            with open(outputs[name]) as src, \
                    open(os.path.join(REF, "paper_tables", name + ".csv"), "w") as dst:
                dst.write(src.read())
    for name in ("long_run", "fine_mesh"):
        result = WORKLOADS[name][0](fkramers, 0, None, Boundary(time.perf_counter, False))
        np.save(os.path.join(REF, name + ".npy"), result["final"].coeffs)
        if name == "fine_mesh":
            problem = result["problem"]
            l2 = fkramers.l2_error(result["final"], problem.exact, t=problem.t_final)
            with open(os.path.join(REF, "fine_mesh.json"), "w") as fh:
                json.dump({"l2_error": l2, "l2_error_bound": L2_SLACK * l2}, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
