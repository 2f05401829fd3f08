"""Focused TLS runtime behaviours not covered by the end-to-end tests:
commit ordering, violation cascades, exit protocol, accounting."""

from collections import Counter

import pytest

from repro.core.pipeline import Jrpm
from repro.engine import ir_engine
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.tls import runtime as tls_runtime

from conftest import wrap_main


def run(src, config=None, **kw):
    return Jrpm(config=config, **kw).run(compile_source(src))


def test_zero_trip_loop():
    report = run(wrap_main("""
        int n = 0;
        int s = 0;
        int[] a = new int[8];
        for (int i = 0; i < 600; i++) { a[i % 8] = i; s += i; }
        for (int i = 0; i < n; i++) { s = -999; }
        Sys.printInt(s);
        return s;
    """))
    assert report.outputs_match()


def test_single_iteration_loop_in_nest():
    report = run(wrap_main("""
        int total = 0;
        for (int outer = 0; outer < 200; outer++) {
            for (int inner = 0; inner < 1; inner++) {
                total += outer & 7;
            }
        }
        Sys.printInt(total);
        return total;
    """))
    assert report.outputs_match()


def test_loop_with_variable_trip_count():
    report = run(wrap_main("""
        int s = 0;
        for (int i = 0; i < 60; i++) {
            for (int j = 0; j < i % 7; j++) { s += j; }
        }
        Sys.printInt(s);
        return s;
    """))
    assert report.outputs_match()


def test_commit_order_respects_sequence():
    """Iterations write a strictly ordered journal; TLS must preserve it."""
    report = run(wrap_main("""
        int[] journal = new int[400];
        int pos = 0;
        for (int i = 0; i < 400; i++) {
            journal[pos] = i;
            pos = pos + 1;
        }
        int ok = 1;
        for (int i = 0; i < 400; i++) {
            if (journal[i] != i) { ok = 0; }
        }
        Sys.printInt(ok);
        return ok;
    """))
    assert report.outputs_match()
    assert report.tls.output == [1]


def test_violation_cascade_restarts_all_later_threads():
    config = HydraConfig(min_predicted_speedup=0.0)
    report = run(wrap_main("""
        int[] chain = new int[300];
        chain[0] = 7;
        int t = 0;
        for (int i = 1; i < 300; i++) {
            chain[i] = (chain[i-1] * 5 + 3) & 0xFFF;
            t ^= chain[i];
        }
        Sys.printInt(t);
        return t;
    """), config=config)
    assert report.outputs_match()
    if report.plans and report.breakdown.violations:
        # Hydra restarts the violated thread AND everything above it.
        assert report.breakdown.squashes >= report.breakdown.violations / 4


def test_accounting_conservation():
    """Committed + violated + overhead CPU time must not be wildly out
    of line with wall time x CPUs."""
    report = run(wrap_main("""
        int[] a = new int[900];
        int s = 0;
        for (int i = 0; i < 900; i++) { a[i] = i * 3; s += a[i] & 15; }
        Sys.printInt(s);
        return s;
    """))
    breakdown = report.breakdown
    cpu_time = (breakdown.run_used + breakdown.wait_used
                + breakdown.run_violated + breakdown.wait_violated
                + breakdown.overhead)
    wall = report.tls.cycles
    assert cpu_time <= wall * report.config.num_cpus * 1.05
    assert cpu_time >= wall * 0.5


def test_exception_before_any_commit():
    report = run(wrap_main("""
        int[] a = new int[4];
        int n = 500;
        int s = 0;
        for (int i = 0; i < n; i++) { s += a[i]; }
        Sys.printInt(s);
        return s;
    """))
    assert report.sequential.guest_exception is not None
    assert report.tls.guest_exception is not None


def test_exception_output_prefix_preserved():
    """Output printed before the faulting loop must survive; speculative
    prints after the fault must not appear."""
    report = run(wrap_main("""
        Sys.printInt(111);
        int[] a = new int[10];
        int s = 0;
        for (int i = 0; i < 500; i++) { s += a[i]; }
        Sys.printInt(222);
        return s;
    """))
    assert report.sequential.output == report.tls.output == [111]


def test_nested_stls_in_called_method():
    """A selected loop in a callee invoked from a selected caller loop
    exercises the dynamic-nesting conflict or the switch protocol."""
    report = run("""
class Main {
    static int[] data;
    static int burst(int base) {
        int local = 0;
        for (int k = 0; k < 40; k++) {
            local += data[(base + k) % 512] & 31;
        }
        return local;
    }
    static int main() {
        data = new int[512];
        for (int i = 0; i < 512; i++) { data[i] = i * 7; }
        int total = 0;
        for (int b = 0; b < 80; b++) {
            total += burst(b * 13);
        }
        Sys.printInt(total);
        return total;
    }
}
""")
    assert report.outputs_match()
    assert report.tls_speedup > 1.2


def test_two_cpu_configuration():
    config = HydraConfig(num_cpus=2)
    report = run(wrap_main("""
        int s = 0;
        int[] a = new int[500];
        for (int i = 0; i < 500; i++) { a[i] = i; s += i & 3; }
        Sys.printInt(s);
        return s;
    """), config=config)
    assert report.outputs_match()
    assert 1.0 < report.tls_speedup <= 2.2


def test_stl_stats_recorded_per_loop():
    report = run(wrap_main("""
        int s = 0;
        int[] a = new int[600];
        for (int i = 0; i < 600; i++) { a[i] = i; }
        for (int i = 0; i < 600; i++) { s += a[i]; }
        Sys.printInt(s);
        return s;
    """))
    assert report.stl_run_stats
    for stats in report.stl_run_stats.values():
        assert stats.entries >= 1
        assert stats.threads_committed > 0
        assert stats.avg_thread_cycles > 0


@pytest.mark.parametrize("scheduler", ["event", "stepwise"])
def test_thread_code_tables_built_once_per_run(monkeypatch, scheduler):
    """An inner STL entered once per outer iteration reuses one
    thread-code unit: its handler, step, event and cost tables are
    built once per TLS run, not once per STL entry."""
    builds = Counter()
    real_build = ir_engine.build_table
    real_events = tls_runtime.tls_event_map
    real_costs = tls_runtime.tls_cost_map

    def build_table(code, unit_name, *args, **kwargs):
        builds["step" if kwargs.get("stepwise") else "handlers",
               unit_name] += 1
        return real_build(code, unit_name, *args, **kwargs)

    def tls_event_map(unit):
        if unit._tls_events is None:
            builds["events", unit.name] += 1
        return real_events(unit)

    def tls_cost_map(unit, call_overhead_cycles):
        if unit._tls_costs is None:
            builds["costs", unit.name] += 1
        return real_costs(unit, call_overhead_cycles)

    monkeypatch.setattr(ir_engine, "build_table", build_table)
    monkeypatch.setattr(tls_runtime, "tls_event_map", tls_event_map)
    monkeypatch.setattr(tls_runtime, "tls_cost_map", tls_cost_map)
    report = run(wrap_main("""
        int[] a = new int[64];
        int total = 1;
        for (int r = 0; r < 30; r++) {
            for (int i = 0; i < 64; i++) {
                a[i] = (a[i] * 3 + i + total) & 1023;
            }
            total = (total * 31 + a[r % 64]) & 65535;
        }
        Sys.printInt(total);
        return total;
    """), config=HydraConfig(scheduler=scheduler))
    assert report.outputs_match()
    assert [stats.entries for stats in report.stl_run_stats.values()] \
        == [30]
    thread_builds = {key: count for key, count in builds.items()
                     if "$stl" in key[1]}
    kinds = {kind for kind, __ in thread_builds}
    assert "handlers" in kinds or "step" in kinds
    if scheduler == "event":
        assert {"handlers", "events", "costs"} <= kinds
    assert set(thread_builds.values()) == {1}, thread_builds


@pytest.mark.parametrize("scheduler", ["event", "stepwise"])
def test_output_from_callee_survives_thread_resets(scheduler):
    """A selected loop may print through a called method.  Every thread
    after a CPU's first must still buffer its prints where the commit
    reads them (regression: the buffer was replaced when the thread
    state was reset, so only each CPU's first thread's prints reached
    the output)."""
    report = run("""
class Main {
    static void report(int i) { Sys.printInt(i); }
    static int main() {
        int[] a = new int[600];
        for (int i = 0; i < 600; i++) {
            int v = i;
            for (int k = 0; k < 10; k++) { v = (v * 7 + k) & 1023; }
            a[i] = v;
            if ((v & 63) == 3) { report(i); }
        }
        Sys.printInt(-1);
        return 0;
    }
}
""", config=HydraConfig(scheduler=scheduler))
    assert report.plans
    assert len(report.sequential.output) > 5
    assert report.tls.output == report.sequential.output
    assert sum(s.threads_committed
               for s in report.stl_run_stats.values()) > 100
