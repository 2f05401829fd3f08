"""Set-associative cache models for latency accounting.

The caches model *timing only* — data always comes from the flat
:class:`Memory` (or a speculative store buffer).  Each CPU has a private
L1 data cache; all CPUs share the on-chip L2 (paper Fig. 2).  Writes are
write-through with a write buffer, so stores cost one cycle and
allocate/update the line in both levels (the paper's write-through bus
keeps L1s coherent; we model coherence by invalidating peer L1 lines on
remote writes).
"""

from .config import CACHE_LINE_SHIFT


class SetAssociativeCache:
    """LRU set-associative cache tracking which line addresses are present."""

    def __init__(self, size_bytes, assoc, line_bytes=32):
        self.num_sets = max(1, size_bytes // (line_bytes * assoc))
        self.assoc = assoc
        # Each set is a dict line_addr -> last-use tick (LRU via counter).
        self.sets = [dict() for __ in range(self.num_sets)]
        self.tick = 0
        self.hits = 0
        self.misses = 0

    def _set_for(self, line):
        return self.sets[line % self.num_sets]

    def lookup(self, line):
        """Returns True on hit (and touches the line)."""
        self.tick += 1
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = self.tick
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line):
        """Insert the line, evicting LRU if needed."""
        self.tick += 1
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = self.tick
            return
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line] = self.tick

    def invalidate(self, line):
        cache_set = self._set_for(line)
        cache_set.pop(line, None)

    def flush(self):
        for cache_set in self.sets:
            cache_set.clear()


class MemoryHierarchy:
    """Per-CPU L1s over a shared L2 over main memory; returns latencies.

    Consecutive-access memoization: simulated code touches the same
    cache line in runs (walking an array, spilling/reloading the same
    stack slot), so the hierarchy remembers the last ``(cpu, line,
    kind)`` access and answers an identical follow-up without the
    set-dict probe.  The fast paths are *counter-exact*: ``tick``,
    ``hits`` and ``misses`` advance exactly as the slow path would.
    Skipping the LRU tick rewrite is order-preserving — during a
    memoized run no other line in any set is touched (any other access
    resets the memo), so the memoized line stays the set's
    most-recently-used whether its stored tick is the run's first or
    last value.  Every observable (latency, counters, later eviction
    decisions) is bit-identical with memoization on.
    """

    def __init__(self, config):
        self.config = config
        self.l1 = [SetAssociativeCache(config.l1_size_bytes, config.l1_assoc,
                                       config.line_bytes)
                   for __ in range(config.num_cpus)]
        self.l2 = SetAssociativeCache(config.l2_size_bytes, config.l2_assoc,
                                      config.line_bytes)
        #: last access: (cpu, line, kind) — invalidated by any
        #: non-matching access and by :meth:`flush_l1`.  Disabled (kept
        #: ``None`` forever) under ``--no-fastpath`` so the legacy
        #: engine really is the unmodified reference path.
        self._memo = None
        self._memo_enabled = getattr(config, "fastpath", True)

    def load_latency(self, cpu, addr):
        line = addr >> CACHE_LINE_SHIFT
        l1 = self.l1[cpu]
        # Field-wise memo compare (no tuple allocation on the hot path).
        memo = self._memo
        if memo is not None and memo[1] == line and memo[0] == cpu \
                and memo[2] == "load":
            # Repeat same-line load by the same CPU: guaranteed L1 hit.
            l1.tick += 1
            l1.hits += 1
            return self.config.l1_hit_cycles
        if self._memo_enabled:
            self._memo = (cpu, line, "load")
        config = self.config
        # L1 probe, inlined from SetAssociativeCache.lookup — loads
        # dominate the hierarchy traffic and mostly hit here.
        tick = l1.tick + 1
        l1.tick = tick
        cache_set = l1.sets[line % l1.num_sets]
        if line in cache_set:
            cache_set[line] = tick
            l1.hits += 1
            return config.l1_hit_cycles
        l1.misses += 1
        return self.l1_miss_latency(l1, line)

    def l1_miss_latency(self, l1, line):
        """Latency of a load that missed (and counted its miss in) *l1*:
        probe the shared L2, then fill the line into the levels that
        lacked it."""
        config = self.config
        if self.l2.lookup(line):
            l1.fill(line)
            return config.l2_hit_cycles
        self.l2.fill(line)
        l1.fill(line)
        return config.memory_cycles

    def store_latency(self, cpu, addr):
        """Write-through with write buffering: one cycle from the CPU's
        point of view; the line is updated in this L1 and L2, and peer
        L1 copies are invalidated (write-bus coherence).  The two fills
        and the peer invalidations are :meth:`SetAssociativeCache.fill`
        and :meth:`~SetAssociativeCache.invalidate`, inlined."""
        line = addr >> CACHE_LINE_SHIFT
        l1s = self.l1
        own = l1s[cpu]
        l2 = self.l2
        memo = self._memo
        if memo is not None and memo[1] == line and memo[0] == cpu \
                and memo[2] == "store":
            # Repeat same-line store: both fills would only rewrite the
            # LRU tick, and peer L1s already lost the line.
            own.tick += 1
            l2.tick += 1
            return 1
        if self._memo_enabled:
            self._memo = (cpu, line, "store")
        tick = own.tick + 1
        own.tick = tick
        index = line % own.num_sets         # every L1 has the same shape
        cache_set = own.sets[index]
        if line not in cache_set and len(cache_set) >= own.assoc:
            del cache_set[min(cache_set, key=cache_set.get)]
        cache_set[line] = tick
        tick = l2.tick + 1
        l2.tick = tick
        cache_set = l2.sets[line % l2.num_sets]
        if line not in cache_set and len(cache_set) >= l2.assoc:
            del cache_set[min(cache_set, key=cache_set.get)]
        cache_set[line] = tick
        for peer in l1s:
            if peer is not own:
                peer.sets[index].pop(line, None)
        return 1

    def flush_l1(self, cpu):
        self.l1[cpu].flush()
        self._memo = None

    def counters(self):
        """Cumulative hit/miss counters across all L1s plus the shared
        L2 — harvested by the trace layer (``repro.trace``) into
        counter tracks and :class:`~repro.trace.TraceAggregates`, so
        cache observability costs nothing on the per-access path."""
        return {
            "l1_hits": sum(l1.hits for l1 in self.l1),
            "l1_misses": sum(l1.misses for l1 in self.l1),
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
        }
