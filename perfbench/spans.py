"""Host-time spans recorded from the benchmark's own code.

The traced run wraps the public entry points of each layer — the five
``Jrpm`` stage methods, the MiniJava frontend, the three microJIT
compiles, ``Machine.run`` and ``Selector.select`` — for the duration of
one pass, and restores them afterwards.  Nothing under ``src/`` is
edited: the wrappers are installed on the imported modules and classes.

A span's self time is its duration minus the time its child spans
cover.  ``Machine.run`` is attributed by the stage that called it: the
baseline run belongs to ``hydra``, the annotated run to ``tracer`` (it
includes the TEST callbacks) and the speculative run to ``tls``.
"""

import contextlib
import functools
from collections import defaultdict

from common import ratio

STAGES = ("compile_baseline", "profile", "select", "recompile",
          "execute_tls")

#: which layer a Machine.run belongs to, by the stage that called it
_RUN_LAYER = {"stage.compile_baseline": "hydra.baseline",
              "stage.profile": "tracer.profile",
              "stage.execute_tls": "tls.run"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "insn", "children")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.insn = 0
        self.children = []

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - sum(child.seconds for child in self.children)

    def layer(self):
        """The layer this span is booked to."""
        if self.name != "hydra.run":
            return self.name
        node = self.parent
        while not node.name.startswith("stage."):
            node = node.parent
        return _RUN_LAYER[node.name]


class Spans:
    """An in-memory span tree for one traced pass, timed on *clock*."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent)
        if parent is not None:
            parent.children.append(record)
        self.spans.append(record)
        self._stack.append(record)
        record.start = self.clock()
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name == "hydra.run":
                    record.insn = result.instructions
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install span wrappers on ``(owner, attribute, span name)``
        targets; the originals come back on exit."""
        with contextlib.ExitStack() as stack:
            for owner, attribute, name in targets:
                original = owner.__dict__[attribute] \
                    if isinstance(owner, type) else getattr(owner, attribute)
                setattr(owner, attribute, self.wrap(name, original))
                stack.callback(setattr, owner, attribute, original)
            yield

    def totals(self):
        """``{layer: [seconds, self seconds, simulated insn]}``."""
        table = defaultdict(lambda: [0.0, 0.0, 0])
        for record in self.spans:
            row = table[record.layer()]
            row[0] += record.seconds
            row[1] += record.self_seconds
            row[2] += record.insn
        return table


def stage_targets(jrpm):
    """Span targets for the five stage methods of one ``Jrpm``."""
    return [(jrpm, stage, "stage." + stage) for stage in STAGES]


def layer_targets():
    """Span targets for the layer entry points every traced pass wraps
    (module attributes are patched where the pipeline looks them up)."""
    from repro.core import pipeline
    from repro.hydra.machine import Machine
    from repro.profdb import warmstart
    from repro.tracer.selector import Selector
    return [
        (pipeline, "compile_source", "minijava.compile"),
        (pipeline, "compile_program", "jit.baseline_compile"),
        (pipeline, "compile_annotated", "jit.annotate_compile"),
        (warmstart, "compile_annotated", "jit.annotate_compile"),
        (pipeline, "recompile_with_stls", "jit.recompile"),
        (Machine, "run", "hydra.run"),
        (Selector, "select", "tracer.select"),
    ]


def layer_metrics(spans, reports, factor):
    """The pipeline-layer metrics of one traced pass over *reports*;
    *factor* is host seconds per reference second (see
    :class:`common.HostSpeed`)."""
    table = spans.totals()

    def seconds(layer):
        return table[layer][0] / factor

    def insn(layer):
        return table[layer][2]

    breakdown = [report.breakdown for report in reports
                 if report.tls is not report.sequential]
    used = sum(b.run_used + b.wait_used for b in breakdown)
    violated = sum(b.run_violated + b.wait_violated for b in breakdown)
    metrics = {
        "core.run_s": seconds("core.run"),
        "core.other_s": table["core.run"][1] / factor,
        "minijava.compile_s": seconds("minijava.compile"),
        "jit.baseline_compile_s": seconds("jit.baseline_compile"),
        "jit.annotate_compile_s": seconds("jit.annotate_compile"),
        "jit.recompile_s": seconds("jit.recompile"),
        "jit.annotations": sum(report.annotations for report in reports),
        "jit.stls": sum(len(report.plans) for report in reports),
        "hydra.baseline_s": seconds("hydra.baseline"),
        "hydra.baseline_insn": insn("hydra.baseline"),
        "hydra.baseline_insn_per_s": ratio(insn("hydra.baseline"),
                                           seconds("hydra.baseline")),
        "tracer.profile_s": seconds("tracer.profile"),
        "tracer.profile_insn": insn("tracer.profile"),
        "tracer.profile_insn_per_s": ratio(insn("tracer.profile"),
                                           seconds("tracer.profile")),
        "tracer.host_slowdown": ratio(seconds("tracer.profile"),
                                      seconds("hydra.baseline")),
        "tracer.select_s": seconds("tracer.select"),
        "tls.run_s": seconds("tls.run"),
        "tls.insn": insn("tls.run"),
        "tls.insn_per_s": ratio(insn("tls.run"), seconds("tls.run")),
        "tls.useful_cycle_frac": ratio(used, used + violated),
    }
    for counter in ("commits", "violations", "squashes", "overflow_stalls",
                    "stl_entries"):
        metrics["tls." + counter] = sum(getattr(b, counter)
                                        for b in breakdown)
    return metrics


def format_table(spans):
    """Per-layer host-time table of one traced pass (for the log)."""
    table = spans.totals()
    lines = ["%-24s %10s %10s %12s" % ("layer", "total_s", "self_s",
                                       "sim_insn")]
    for layer in sorted(table, key=lambda name: -table[name][1]):
        total, own, insn = table[layer]
        lines.append("%-24s %10.4f %10.4f %12d" % (layer, total, own, insn))
    return "\n".join(lines)
