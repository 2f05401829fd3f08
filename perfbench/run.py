"""Host-speed benchmark of the Jrpm reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile-heavy --seed 1 \
        --seconds 40 --trace 0

Workloads: ``profile-heavy`` and ``tls-heavy`` run cold ``Jrpm.run``
in-process; ``service-warm`` drives a ``jrpm serve`` daemon.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (git-ignored)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("profile-heavy", "tls-heavy", "service-warm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import emit
    if args.workload == "service-warm":
        import service_load
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            gate, metrics, units = service_load.run(args, SRC, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        import pipeline_load
        gate, metrics, units = pipeline_load.run(args, SRC)
    emit(gate, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
