"""Hydra hardware models: memory, caches, cost accounting."""

import random

import pytest

from repro.errors import VMError
from repro.hydra.cache import MemoryHierarchy, SetAssociativeCache
from repro.hydra.config import CACHE_LINE_SHIFT, HydraConfig
from repro.hydra.machine import CpuContext, Machine
from repro.hydra.memory import Memory
from repro.jit.compiler import compile_program
from repro.minijava import compile_source
from repro.tls.buffers import SpecMemoryInterface, SpecThreadState

from conftest import machine_run, wrap_main
from test_tls_buffers import _StubExecution


class TestMemory:
    def test_load_default_zero(self):
        assert Memory().load(0x1000) == 0

    def test_store_load_roundtrip(self):
        memory = Memory()
        memory.store(0x2000, 42)
        memory.store(0x2004, -1.5)
        assert memory.load(0x2000) == 42
        assert memory.load(0x2004) == -1.5

    def test_rejects_null_address(self):
        with pytest.raises(VMError):
            Memory().load(0)

    def test_rejects_misaligned(self):
        with pytest.raises(VMError):
            Memory().store(0x1001, 1)

    def test_snapshot(self):
        memory = Memory()
        memory.store(0x100, 1)
        memory.store(0x108, 3)
        assert memory.snapshot(0x100, 3) == [1, 0, 3]


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(1024, 2)
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(64, 1, line_bytes=32)  # 2 sets, direct
        cache.fill(0)          # set 0
        cache.fill(2)          # set 0 again -> evicts 0
        assert not cache.lookup(0)
        assert cache.lookup(2)

    def test_lru_order_respected(self):
        cache = SetAssociativeCache(128, 2, line_bytes=32)  # 2 sets, 2-way
        cache.fill(0)
        cache.fill(2)
        cache.lookup(0)       # touch 0, making 2 the LRU
        cache.fill(4)         # set 0: evicts 2
        assert cache.lookup(0)
        assert not cache.lookup(2)

    def test_invalidate(self):
        cache = SetAssociativeCache(1024, 4)
        cache.fill(9)
        cache.invalidate(9)
        assert not cache.lookup(9)

    def test_hit_miss_counters(self):
        cache = SetAssociativeCache(1024, 4)
        cache.lookup(1)
        cache.fill(1)
        cache.lookup(1)
        assert cache.misses == 1 and cache.hits == 1


class TestHierarchy:
    def test_latencies_follow_paper_figure2(self):
        config = HydraConfig()
        hierarchy = MemoryHierarchy(config)
        addr = 0x40_0000
        assert hierarchy.load_latency(0, addr) == config.memory_cycles
        assert hierarchy.load_latency(0, addr) == config.l1_hit_cycles
        # A different CPU misses its L1 but hits the shared L2.
        assert hierarchy.load_latency(1, addr) == config.l2_hit_cycles

    def test_store_invalidates_peer_l1(self):
        config = HydraConfig()
        hierarchy = MemoryHierarchy(config)
        addr = 0x40_0000
        hierarchy.load_latency(0, addr)
        hierarchy.load_latency(0, addr)       # now an L1 hit on CPU0
        hierarchy.store_latency(1, addr)      # CPU1 writes through
        assert hierarchy.load_latency(0, addr) == config.l2_hit_cycles

    def test_store_costs_one_cycle(self):
        hierarchy = MemoryHierarchy(HydraConfig())
        assert hierarchy.store_latency(0, 0x40_0000) == 1


# ---------------------------------------------------------------------------
# hierarchy differential: inlined fast paths vs the plain cache model
# ---------------------------------------------------------------------------

#: small caches, so a trace over a few dozen lines forces set evictions
#: in both levels (L1: 4 sets x 2 ways, L2: 8 sets x 2 ways)
SMALL_CACHES = dict(l1_size_bytes=256, l1_assoc=2, l2_size_bytes=512,
                    l2_assoc=2)


def _random_trace(seed, length=6000, cpus=4):
    """(kind, cpu, addr) accesses over 40 lines; about a third repeat
    the previous access's CPU, line and kind so the memo paths run."""
    rng = random.Random(seed)
    trace = []
    for __ in range(length):
        if trace and rng.random() < 0.35:
            kind, cpu, addr = trace[-1]
            addr = (addr & ~31) | (rng.randrange(8) * 4)   # same line
        else:
            kind = "store" if rng.random() < 0.3 else "load"
            cpu = rng.randrange(cpus)
            addr = 0x40_0000 + rng.randrange(40) * 32 + rng.randrange(8) * 4
        trace.append((kind, cpu, addr))
    return trace


def _reference_load(hierarchy, cpu, addr):
    """MemoryHierarchy.load_latency, spelled with the cache methods."""
    config = hierarchy.config
    line = addr >> CACHE_LINE_SHIFT
    l1 = hierarchy.l1[cpu]
    if l1.lookup(line):
        return config.l1_hit_cycles
    if hierarchy.l2.lookup(line):
        l1.fill(line)
        return config.l2_hit_cycles
    hierarchy.l2.fill(line)
    l1.fill(line)
    return config.memory_cycles


def _reference_store(hierarchy, cpu, addr):
    """MemoryHierarchy.store_latency, spelled with the cache methods."""
    line = addr >> CACHE_LINE_SHIFT
    hierarchy.l1[cpu].fill(line)
    hierarchy.l2.fill(line)
    for other, l1 in enumerate(hierarchy.l1):
        if other != cpu:
            l1.invalidate(line)
    return 1


def _speculative_loads(config):
    """Loads through each CPU's SpecMemoryInterface (empty store
    buffers, so every load reaches the hierarchy), stores through the
    hierarchy."""
    program = compile_source(
        "class Main { static int main() { return 0; } }")
    machine = Machine(compile_program(program, config), config)
    ctxs = [CpuContext(machine, cpu) for cpu in range(config.num_cpus)]
    for ctx in ctxs:
        ctx.spec = SpecThreadState(ctx.cpu_id, ctx.cpu_id, 0x100000)
    execution = _StubExecution([ctx.spec for ctx in ctxs])
    ifaces = [SpecMemoryInterface(ctx, execution) for ctx in ctxs]
    hierarchy = machine.hierarchy

    def load(cpu, addr):
        return ifaces[cpu].load(addr)[1]
    return hierarchy, load, hierarchy.store_latency


def _hierarchy_state(hierarchy):
    caches = list(hierarchy.l1) + [hierarchy.l2]
    return [(cache.tick, cache.hits, cache.misses,
             [sorted(cache_set, key=cache_set.get)
              for cache_set in cache.sets])
            for cache in caches]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hierarchy_fast_paths_match_plain_cache_model(seed):
    """The memoized and inlined load/store paths — in MemoryHierarchy
    and in SpecMemoryInterface.load — give the same latencies, the
    same per-cache tick/hit/miss counters and the same set contents in
    the same LRU order as a memo-less hierarchy and as the plain
    SetAssociativeCache model."""
    config = HydraConfig(**SMALL_CACHES)
    memo = MemoryHierarchy(config)
    no_memo = MemoryHierarchy(config)
    no_memo._memo_enabled = False
    reference = MemoryHierarchy(config)
    variants = {
        "memo": (memo, memo.load_latency, memo.store_latency),
        "no-memo": (no_memo, no_memo.load_latency, no_memo.store_latency),
        "reference": (reference,
                      lambda cpu, addr: _reference_load(reference, cpu,
                                                        addr),
                      lambda cpu, addr: _reference_store(reference, cpu,
                                                         addr)),
        "speculative": _speculative_loads(config),
    }
    trace = _random_trace(seed)
    latencies = {}
    for name, (hierarchy, load, store) in variants.items():
        latencies[name] = [(load if kind == "load" else store)(cpu, addr)
                           for kind, cpu, addr in trace]
    states = {name: _hierarchy_state(variant[0])
              for name, variant in variants.items()}
    for name in ("memo", "no-memo", "speculative"):
        assert latencies[name] == latencies["reference"], name
        assert states[name] == states["reference"], name
    # the trace really exercises evictions, misses at both levels and
    # the memo's same-line repeats
    assert reference.l2.misses > len(reference.l2.sets) * 2
    assert set(latencies["reference"]) == {
        config.l1_hit_cycles, config.l2_hit_cycles, config.memory_cycles}
    assert sum(1 for a, b in zip(trace, trace[1:])
               if a[:2] == b[:2] and a[2] >> 5 == b[2] >> 5) > 1000


class TestCostModel:
    def test_cache_locality_matters(self):
        sequential = machine_run(wrap_main("""
            int[] a = new int[2048];
            int s = 0;
            for (int i = 0; i < 2048; i++) { s += a[i]; }
            return s;
        """))
        strided = machine_run(wrap_main("""
            int[] a = new int[2048];
            int s = 0;
            for (int k = 0; k < 8; k++) {
                for (int i = k; i < 2048; i += 8) { s += a[i]; }
            }
            return s;
        """))
        # Same loads; the strided version re-touches lines it already
        # cached, the sequential one misses once per line: both should
        # be within ~2x, but the sequential first pass pays cold misses.
        assert sequential.instructions < strided.instructions
        assert sequential.cycles > 2048  # cold misses are visible

    def test_division_costs_more_than_addition(self):
        adds = machine_run(wrap_main("""
            int s = 1;
            for (int i = 1; i < 500; i++) { s = s + i; }
            return s;
        """))
        divs = machine_run(wrap_main("""
            int s = 1000000;
            for (int i = 1; i < 500; i++) { s = s / 1 + i; }
            return s;
        """))
        assert divs.cycles > adds.cycles + 2000

    def test_gc_triggers_and_is_accounted(self):
        config = HydraConfig(gc_threshold_bytes=8 * 1024)
        result = machine_run("""
class Blob { int a; int b; int c; }
class Main {
    static int main() {
        int s = 0;
        for (int i = 0; i < 2000; i++) {
            Blob b = new Blob();
            b.a = i;
            s += b.a;
        }
        return s;
    }
}
""", config=config)
        assert result.gc_cycles > 0

    def test_gc_reclaims_garbage(self):
        from repro.hydra.machine import Machine
        from repro.jit.compiler import compile_program
        from repro.minijava import compile_source
        config = HydraConfig(gc_threshold_bytes=8 * 1024)
        src = """
class Blob { int a; int b; int c; int d; int e; int f; }
class Main {
    static int main() {
        int s = 0;
        for (int i = 0; i < 1000; i++) {
            Blob b = new Blob();
            s += 1;
        }
        return s;
    }
}
"""
        compiled = compile_program(compile_source(src), config)
        machine = Machine(compiled, config)
        result = machine.run()
        assert result.return_value == 1000
        assert machine.gc.collections > 0
        assert machine.gc.objects_freed > 500
        # live objects should be far fewer than allocated
        assert len(machine.allocator.objects) < 1000
