"""Helpers shared by the perfbench workloads: metric names and units,
percentiles, the host-speed probe, the correctness gate and the result
line."""

import json
import math
import resource
import statistics
import sys
import time

#: end-to-end metrics (untraced runs) -> unit; every workload reports all
E2E_UNITS = {
    "setup_s": "s",
    "success_rate": "ratio",
    "sim_insn_per_s": "insn/s",
    "tls_speedup_geomean": "x",
    "total_speedup_geomean": "x",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "req_per_s": "1/s",
}

#: per-layer metrics (traced runs) -> unit; a layer a workload does not
#: exercise reports 0
LAYER_UNITS = {
    "core.run_s": "s",
    "core.other_s": "s",
    "minijava.compile_s": "s",
    "jit.baseline_compile_s": "s",
    "jit.annotate_compile_s": "s",
    "jit.recompile_s": "s",
    "jit.annotations": "count",
    "jit.stls": "count",
    "hydra.baseline_s": "s",
    "hydra.baseline_insn": "insn",
    "hydra.baseline_insn_per_s": "insn/s",
    "tracer.profile_s": "s",
    "tracer.profile_insn": "insn",
    "tracer.profile_insn_per_s": "insn/s",
    "tracer.host_slowdown": "x",
    "tracer.select_s": "s",
    "tls.run_s": "s",
    "tls.insn": "insn",
    "tls.insn_per_s": "insn/s",
    "tls.commits": "count",
    "tls.violations": "count",
    "tls.squashes": "count",
    "tls.overflow_stalls": "count",
    "tls.stl_entries": "count",
    "tls.useful_cycle_frac": "ratio",
    "service.daemon_elapsed_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.batches": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    "runner.task_s_p50": "s",
    "runner.retries": "count",
    "runner.workers_spawned": "count",
    "profdb.warm_runs": "count",
    "profdb.records": "count",
    "profdb.warm_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "host.calib_s": "s",
}


def percentile(samples, pct):
    """The *pct*-th percentile of two or more samples (inclusive
    method)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def geomean(values):
    return math.exp(statistics.fmean(math.log(value) for value in values))


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


#: the host-speed probe's memory: 64 Ki list slots it reads and writes
_PROBE_MEMORY = list(range(1 << 16))
PROBE_ROUNDS = 60_000
#: probe seconds on the reference host (a quiet 2-vCPU x86-64 VM under
#: CPython 3); see :class:`HostSpeed`
REFERENCE_PROBE_S = 0.039


def probe(clock):
    """Seconds on *clock* for a fixed interpreter-style loop: dispatch
    through small functions, with dict, slot and list traffic."""
    memory = _PROBE_MEMORY
    registers = {"a": 1, "b": 2, "c": 3}

    class Cpu:
        __slots__ = ("acc",)

    cpu = Cpu()
    cpu.acc = 0

    def load(cpu, reg, imm):
        registers[reg] = memory[(cpu.acc + imm) & 0xFFFF]

    def add(cpu, reg, imm):
        cpu.acc = (cpu.acc + registers[reg] + imm) & 0xFFFFFFF

    def store(cpu, reg, imm):
        memory[(cpu.acc ^ imm) & 0xFFFF] = registers[reg] & 0xFFFF

    program = [(load, "a", 7), (add, "a", 3), (load, "b", 11),
               (add, "b", 5), (store, "a", 13), (add, "c", 1)]
    start = clock()
    for _ in range(PROBE_ROUNDS):
        for op, reg, imm in program:
            op(cpu, reg, imm)
    return clock() - start


class HostSpeed:
    """Host-speed probes taken between the timed operations of a run.

    The machine's speed drifts by up to 2x between runs minutes apart
    as other tenants load it.  Every host time the benchmark reports is
    therefore converted to *reference seconds*: host seconds x
    :data:`REFERENCE_PROBE_S` / the mean probe time of the run.  One
    factor per run, from the mean, because single probes are noisy and
    the mean of ratios would overstate speed on a noisy host.  The probe
    is fixed code of the benchmark, so a slower program still reads
    slower; a slower host does not.  *clock* is the clock both the
    probes and the operations are timed on.
    """

    def __init__(self, clock):
        self.clock = clock
        self.probes = []

    def probe(self):
        self.probes.append(probe(self.clock))

    def mean(self):
        return statistics.fmean(self.probes)

    def factor(self):
        """Host seconds per reference second."""
        return self.mean() / REFERENCE_PROBE_S

    def reference(self, seconds):
        return seconds / self.factor()


def self_peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb():
    """Largest peak resident set among waited-for descendants."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def simulated_insn(report):
    """Simulated instructions the pipeline executed for *report*: the
    baseline, the profiled run and (when anything was selected) the TLS
    run; with no plans the TLS measurement is the baseline itself."""
    total = report.sequential.instructions + report.profiling.instructions
    if report.tls is not report.sequential:
        total += report.tls.instructions
    return total


def signature(report):
    """The simulated statistics a warm and a cold run must share:
    cycles, instructions, output, selected plans, violations and
    restarts."""
    return {
        "runs": [(run.cycles, run.instructions, list(run.output))
                 for run in (report.sequential, report.profiling,
                             report.tls)],
        "plans": sorted(report.plans),
        "breakdown": report.breakdown.to_dict(),
        "restarts": sorted((loop_id, stats.restarts, stats.violations)
                           for loop_id, stats
                           in report.stl_run_stats.items()),
    }


class Gate:
    """The correctness gate: every report is checked against the
    reference interpreter's output, its own TLS output, and the first
    report seen for the same program.  A mismatch is a failed operation,
    never dropped."""

    def __init__(self, reference, key=None):
        #: {program: expected output list}
        self.reference = reference
        #: how a report is compared across runs (default: the whole
        #: lossless report dict)
        self.key = key or (lambda report: report.to_dict())
        self.expected = {}
        self.attempted = 0
        self.failed = 0

    def expect(self, name, report):
        """Pin the comparison key for *name* from a trusted report."""
        self.expected[name] = self.key(report)

    def check(self, name, report):
        """Count one operation and check its report."""
        self.attempted += 1
        problems = []
        if report.sequential.output != self.reference[name]:
            problems.append("sequential output differs from the "
                            "reference interpreter")
        if not report.outputs_match():
            problems.append("TLS output differs from sequential output")
        key = self.key(report)
        if name not in self.expected:
            self.expected[name] = key
        elif key != self.expected[name]:
            problems.append("simulated statistics differ from the "
                            "first run")
        if problems:
            self._fail(name, "; ".join(problems))

    def reject(self, name, why):
        """Count one operation that failed without a checkable report."""
        self.attempted += 1
        self._fail(name, why)

    def _fail(self, name, why):
        self.failed += 1
        print("perfbench: %s: %s" % (name, why), file=sys.stderr)

    @property
    def success_rate(self):
        return 1.0 - ratio(self.failed, self.attempted)


def emit(gate, metrics, units):
    """Print the result line: ``metrics`` must name exactly the metrics
    in ``units``."""
    if set(metrics) != set(units):
        raise RuntimeError("metric set mismatch: missing %s, extra %s"
                           % (sorted(set(units) - set(metrics)),
                              sorted(set(metrics) - set(units))))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
