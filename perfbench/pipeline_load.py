"""The pipeline workloads: cold ``Jrpm.run`` over registry programs.

A pass runs every program of the workload once, in an order drawn from
the seed.  Passes repeat until the measuring time is spent.  The
untraced run reports the end-to-end metrics; the traced run alternates
untraced passes with traced passes that call the five stage methods
directly under span wrappers (see :mod:`spans`).

Every operation is timed in process CPU seconds, so time the machine
gives to other processes is not counted, and converted to reference
seconds by the host-speed probes taken between operations (see
:class:`common.HostSpeed`).
"""

import random
import statistics
import subprocess
import sys
import time

from common import (E2E_UNITS, LAYER_UNITS, Gate, HostSpeed, geomean,
                    percentile, self_peak_rss_mb, simulated_insn)
from spans import (Spans, format_table, layer_metrics, layer_targets,
                   stage_targets)

#: program lists; why each was chosen is in README.md
PROGRAMS = {
    "profile-heavy": ("decJpeg", "encJpeg", "db"),
    "tls-heavy": ("Huffman", "NeuralNet", "h263dec", "LuFactor", "jLex"),
}
SIZE = "default"
SETUP_REPEATS = 5
#: layers only the daemon exercises; they report 0 here
SERVICE_LAYERS = ("service.", "runner.", "profdb.")

#: set-up as a user pays it: a fresh interpreter imports repro and
#: generates the sources; it prints the CPU seconds that took
_SETUP_CODE = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import repro
from repro.workloads import lookup
sources = [lookup(name).source(sys.argv[2]) for name in sys.argv[3:]]
print(time.process_time() - start)
"""


def measure_setup(src_dir, names, size):
    """Median reference seconds over fresh processes that import repro
    and generate the sources."""
    speed = HostSpeed(time.process_time)
    samples = []
    speed.probe()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, src_dir, size, *names],
            capture_output=True, text=True, timeout=120, check=True)
        speed.probe()
        samples.append(float(done.stdout.split()[-1]))
    return speed.reference(statistics.median(samples))


def reference_outputs(sources):
    """Each program's printed output under the reference bytecode
    interpreter (computed untimed, in set-up)."""
    from repro.bytecode.interpreter import Interpreter
    from repro.minijava import compile_source
    return {name: Interpreter(compile_source(source)).run().output
            for name, source in sources.items()}


class PipelineLoad:
    def __init__(self, workload, seed, src_dir):
        self.names = PROGRAMS[workload]
        self.rng = random.Random(seed)
        self.setup_s = measure_setup(src_dir, self.names, SIZE)
        self.speed = HostSpeed(time.process_time)
        from repro.workloads import lookup
        self.sources = {name: lookup(name).source(SIZE)
                        for name in self.names}
        self.gate = Gate(reference_outputs(self.sources))
        self.latencies = []
        self.reports = {}

    def order(self):
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def untraced_pass(self):
        """Cold ``Jrpm.run`` of every program; returns host CPU
        seconds."""
        from repro import Jrpm
        total = 0.0
        for name in self.order():
            self.speed.probe()
            start = time.process_time()
            report = Jrpm().run(self.sources[name], name=name)
            elapsed = time.process_time() - start
            total += elapsed
            self.latencies.append(elapsed)
            self.gate.check(name, report)
            self.reports.setdefault(name, report)
        return total

    def traced_pass(self):
        """The five stages called directly, under spans; returns the
        host CPU seconds and the span tree."""
        from repro import Jrpm
        from repro.core import pipeline
        spans = Spans(time.process_time)
        reports = []
        total = 0.0
        with spans.patched(layer_targets()):
            for name in self.order():
                self.speed.probe()
                jrpm = Jrpm()
                start = time.process_time()
                with spans.patched(stage_targets(jrpm)), \
                        spans.span("core.run"):
                    program = pipeline.compile_source(self.sources[name])
                    baseline = jrpm.compile_baseline(program)
                    profile = jrpm.profile(program)
                    plans = jrpm.select(profile)
                    recompiled = jrpm.recompile(program, plans)
                    tls = jrpm.execute_tls(recompiled, plans,
                                           fallback=baseline.measurement)
                    report = jrpm.assemble_report(name, baseline, profile,
                                                  plans, tls)
                total += time.process_time() - start
                self.gate.check(name, report)
                reports.append(report)
        return total, spans, reports

    def run(self, seconds, trace):
        untraced, traced = [], []
        start = time.perf_counter()
        # another pass starts while it is expected to end in time
        while True:
            untraced.append(self.untraced_pass())
            if trace:
                traced.append(self.traced_pass())
            now = time.perf_counter()
            if now + (now - start) / len(untraced) > start + seconds:
                break
        self.speed.probe()
        if trace:
            return self.layer_result(untraced, traced)
        return self.e2e_result()

    def e2e_result(self):
        reports = self.reports.values()
        passes = len(self.latencies) // len(self.names)
        insn = passes * sum(simulated_insn(report) for report in reports)
        latencies = [self.speed.reference(latency)
                     for latency in self.latencies]
        return {
            "setup_s": self.setup_s,
            "success_rate": self.gate.success_rate,
            "sim_insn_per_s": insn / sum(latencies),
            "tls_speedup_geomean": geomean(r.tls_speedup for r in reports),
            "total_speedup_geomean": geomean(r.total_speedup
                                             for r in reports),
            "peak_rss_mb": self_peak_rss_mb(),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "req_per_s": len(latencies) / sum(latencies),
        }

    def layer_result(self, untraced, traced):
        # the median traced pass by host time stands for the run
        index = sorted(range(len(traced)),
                       key=lambda i: traced[i][0])[(len(traced) - 1) // 2]
        _, spans, reports = traced[index]
        print(format_table(spans))
        metrics = layer_metrics(spans, reports, self.speed.factor())
        for name in LAYER_UNITS:
            if name.startswith(SERVICE_LAYERS):
                metrics[name] = 0
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(t[0] for t in traced)
            / statistics.median(untraced) - 1.0)
        metrics["host.calib_s"] = self.speed.mean()
        return metrics


def run(args, src_dir):
    load = PipelineLoad(args.workload, args.seed, src_dir)
    metrics = load.run(args.seconds, args.trace)
    return load.gate, metrics, LAYER_UNITS if args.trace else E2E_UNITS
