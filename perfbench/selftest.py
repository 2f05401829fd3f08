"""Quick self-test of the benchmark (a few minutes).

Runs every workload at minimal length, untraced and traced, and checks
that the metric names emitted are exactly those in BENCHMARK.json and
that the gate passes.  Then feeds one deliberately wrong expected
output and checks that the gate counts it, and checks that the
benchmark refuses to run without the repository's sources.

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, SRC, WORK, WORKLOADS


def bench(args, cwd=ROOT):
    """Run perfbench/run.py under *cwd*; returns (exit code, result or
    None, stderr)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result, done.stderr


def wrong_reference_gate():
    """One untraced ``profile-heavy`` pass, in-process, with one
    program's expected output corrupted; returns the gate."""
    sys.path.insert(0, SRC)
    from pipeline_load import PipelineLoad
    load = PipelineLoad("profile-heavy", 7, SRC)
    name = load.names[0]
    load.gate.reference[name] = load.gate.reference[name] + [0]
    load.run(1, 0)
    return load.gate


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.py")
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, stderr = bench(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)])
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d\n%s" % (label, code, stderr))
                continue
            if set(result["metrics"]) != expected[trace]:
                problems.append("%s: metric names differ: %s" % (
                    label, sorted(set(result["metrics"])
                                  ^ expected[trace])))
            if not result["correct"] or result["failed"]:
                problems.append("%s: gate failed\n%s" % (label, stderr))
            print("ok   %s (%d operations)" % (label, result["attempted"]))

    gate = wrong_reference_gate()
    if gate.failed == 0 or gate.success_rate >= 1.0:
        problems.append("a wrong expected output was not counted")
    else:
        print("ok   wrong expected output counted (%d of %d failed)"
              % (gate.failed, gate.attempted))

    os.makedirs(WORK, exist_ok=True)
    bare = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench(["--workload", "tls-heavy", "--seed", "7",
                                 "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append("ran without the repository's sources")
    else:
        print("ok   refuses to run without the sources (exit %d)" % code)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
