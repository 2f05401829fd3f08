"""Differential oracle for the TEST profile artifacts.

The fast engine runs the annotated program through superinstruction
blocks that inline the ``lwl``/``swl`` profiler work (see
``repro.engine.ir_engine``) and a profiler that resolves loops through
its ``innermost`` activation map.  The reference path,
``HydraConfig(fastpath=False)``, steps every instruction through
``CpuContext.step_legacy``, which calls ``TestProfiler.on_lwl`` /
``on_swl`` one event at a time.  Both must produce the same profile:
per-loop statistics (arcs included), dynamic nesting, event and bank
counters, and the run's cycles and instructions.

The default tier covers the randomized engine-differential programs
under the default and a comparator-bank-starved configuration (so the
bank-steal and missed-allocation paths run), recursion through a loop,
and guest exceptions raised mid-block.  The 26-workload registry sweep
is marked ``slow``.
"""

import pytest

from repro.hydra.config import HydraConfig
from repro.hydra.machine import Machine
from repro.jit.compiler import compile_annotated
from repro.minijava import compile_source
from repro.tracer.profiler import TestProfiler

from conftest import wrap_main
from test_engine_differential import random_workload

#: comparator-bank-starved profiles: a single bank forces missed
#: allocations; two banks with tiny load buffers make outer loops
#: overflow, so inner loops steal their banks
STARVED = {
    "one-bank": {"comparator_banks": 1},
    "two-banks-overflow": {"comparator_banks": 2, "load_buffer_lines": 2,
                           "store_buffer_lines": 2},
}


def profile_artifacts(program, fastpath, **config_fields):
    config = HydraConfig(fastpath=fastpath, **config_fields)
    annotated = compile_annotated(program, config)
    profiler = TestProfiler(config, annotated.loop_table)
    result = Machine(annotated, config, profiler=profiler).run()
    return {
        "stats": {loop_id: stats.to_dict()
                  for loop_id, stats in profiler.stats.items()},
        "stats_order": list(profiler.stats),
        "dynamic_nesting": sorted(profiler.dynamic_nesting),
        "max_dynamic_depth": profiler.max_dynamic_depth,
        "events": profiler.events,
        "bank_steals": profiler.bank_steals,
        "missed_allocations": profiler.missed_allocations,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "output": list(result.output),
        "exception": repr(result.guest_exception),
    }


def assert_same_profile(source, label, **config_fields):
    program = compile_source(source)
    fast = profile_artifacts(program, True, **config_fields)
    legacy = profile_artifacts(program, False, **config_fields)
    assert fast == legacy, "profile diverged: %s" % label
    return fast


# ---------------------------------------------------------------------------
# default tier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 100, 101])
def test_profile_differential(seed):
    profile = assert_same_profile(random_workload(seed), "seed %d" % seed)
    assert profile["events"] > 0


#: three-deep loop nest with a carried local at every level and array
#: traffic wide enough to overflow a tiny load buffer
NESTED = wrap_main("""int[] a = new int[64];
        int total = 0;
        for (int i = 0; i < 6; i++) {
            int row = i;
            for (int j = 0; j < 5; j++) {
                int col = row + j;
                for (int k = 0; k < 4; k++) {
                    col = col + a[(i * 8 + j * 4 + k) & 63];
                    a[(k * 16 + j) & 63] = col & 255;
                }
                row = row + col;
            }
            total = total + row;
        }
        return total;""")


@pytest.mark.parametrize("variant", sorted(STARVED))
def test_profile_differential_starved_banks(variant):
    profiles = [assert_same_profile(source, "%s, %s" % (label, variant),
                                    **STARVED[variant])
                for label, source in [("nested", NESTED)]
                + [("seed %d" % seed, random_workload(seed))
                   for seed in (0, 1, 2, 3)]]
    assert sum(p["missed_allocations"] for p in profiles) > 0
    if variant == "two-banks-overflow":
        assert sum(p["bank_steals"] for p in profiles) > 0


RECURSIVE = """
class Main {
    static int walk(int depth, int n) {
        int carried = depth;
        for (int i = 0; i < n; i++) {
            carried = carried * 3 + i;
            if (depth > 0 && i == 1) {
                carried = carried + walk(depth - 1, n);
            }
        }
        return carried & 0xFFFF;
    }
    static int main() {
        return walk(3, 4);
    }
}
"""


def test_profile_differential_recursive_loop():
    """Recursion re-enters one loop id while its outer activation is
    live; the outer activation's carried local must survive."""
    profile = assert_same_profile(RECURSIVE, "recursive")
    assert profile["max_dynamic_depth"] >= 4
    assert any(stats["arcs"] for stats in profile["stats"].values())


_RAISING = [
    ("div by zero", "int d = acc - acc; acc = 12 / d;"),
    ("array bounds", "int[] a = new int[4]; acc = a[acc + 7];"),
]


@pytest.mark.parametrize("label,tail", _RAISING,
                         ids=[r[0] for r in _RAISING])
def test_profile_differential_exception_mid_block(label, tail):
    """A guest exception inside a loop leaves it without ELOOP; the
    events counted before the raise and the stale activation must
    match the reference path."""
    source = wrap_main("""int acc = 0;
        for (int i = 0; i < 6; i++) {
            acc = acc + i * 3;
            if (i == 4) { %s }
        }
        return acc;""" % tail)
    profile = assert_same_profile(source, label)
    assert profile["exception"] != "None"


# ---------------------------------------------------------------------------
# slow tier: every registry workload at small size
# ---------------------------------------------------------------------------

def _workload_names():
    from repro.workloads.registry import all_workloads
    return [w.name for w in all_workloads()]


@pytest.mark.slow
@pytest.mark.parametrize("name", _workload_names())
def test_profile_differential_registry(name):
    from repro.workloads.registry import lookup
    assert_same_profile(lookup(name).source("small"), name)
