"""One execution of one workload, in a fresh process.

Usage: child.py --root DIR --workload NAME --seed N --mode full|setup
                --trace 0|1 --workdir DIR --result FILE [--spans FILE]

The clock starts before ``import fkramers``, so wall and set-up times include
the package import.  In a traced execution the layer wrappers are installed
right after the import, and the spans are written to --spans when the
execution ends.  Outputs are checked after the clock stops.  The result is
one JSON object written to --result:

    {"ok": bool, "error": str or null, "setup_s": float or null,
     "wall_s": float or null, "trace": {...} or null}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from spans import Tracer
from workloads import WORKLOADS, Boundary, SetupDone


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    execute, check = WORKLOADS[args.workload]
    clock = time.perf_counter
    tracer = Tracer(clock) if args.trace else None
    boundary = Boundary(clock, stop=args.mode == "setup")
    out = {"ok": False, "error": None, "setup_s": None, "wall_s": None, "trace": None}
    try:
        t0 = clock()
        if tracer is not None:
            tracer.start(t0)
        import fkramers
        import fkramers.cli  # noqa: F401  (not imported by the package; tracer targets live there)

        if tracer is not None:
            tracer.install()
        try:
            result = execute(fkramers, args.seed, args.workdir, boundary)
        except SetupDone:
            result = None
        t_end = clock()
        if tracer is not None:
            tracer.stop()
        if boundary.time is None:
            raise RuntimeError("the workload never reached its set-up boundary")
        out["setup_s"] = boundary.time - t0
        if args.mode == "full":
            out["wall_s"] = t_end - t0
        here = os.path.realpath(os.path.dirname(fkramers.__file__))
        if not here.startswith(os.path.realpath(src) + os.sep):
            raise RuntimeError("imported fkramers from %s, not from %s" % (here, src))
        if args.mode == "full":
            ref_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
            out["error"] = check(result, ref_dir, args.seed)
        if tracer is not None:
            out["trace"] = tracer.summary()
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
        out["ok"] = out["error"] is None
    except Exception:  # reported to the parent, which counts the execution as failed
        out["error"] = traceback.format_exc(limit=8)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
