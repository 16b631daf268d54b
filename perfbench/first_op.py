"""One cold start for ``setup_s``: import ardlkit, run a workload's first
operation, print ``done``.

Usage: python3 perfbench/first_op.py WORKLOAD SEED WORKDIR
The parent times from spawning this interpreter to reading ``done``; the
workload's inputs must already be in WORKDIR.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    w = workloads.WORKLOADS[name](HERE.parent, seed, workdir)
    w.stage(0)
    w.op(0)
    sys.stdout.write("done\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
