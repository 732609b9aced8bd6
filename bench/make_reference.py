"""Regenerate the reference outputs the CLI workloads are checked against.

    python3 bench/make_reference.py [--size full|smoke] [--workload NAME]

Runs every operation of every input variant once with the program in
``src/`` and stores its output files under
``bench/reference/<size>/<workload>/v<variant>/<operation>/``.  Run it only
when a change to the program's outputs is intended, and say why in the
change that commits the new files.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import OUT, REFERENCE, Workload
from workloads import SIZES, VARIANTS, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--workload", choices=[n for n, w in WORKLOADS.items() if w.kind == "cli"])
    args = parser.parse_args()
    names = [args.workload] if args.workload else [n for n, w in WORKLOADS.items() if w.kind == "cli"]
    for name in names:
        for variant in range(VARIANTS):
            wl = Workload(name, variant, args.size, OUT / "no-reference")
            run = wl.run_children()
            failures = [p for p in run.problems if "no reference" not in p]
            if failures:
                print(f"{name} v{variant}: {failures}", file=sys.stderr)
                return 1
            target = REFERENCE / args.size / name / f"v{variant}"
            shutil.rmtree(target, ignore_errors=True)
            for op, _ in wl.inputs.ops:
                shutil.copytree(wl.work / "out" / op, target / op)
            print(f"{name} v{variant}: {run.wall:.2f} s -> {target.relative_to(REFERENCE.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
