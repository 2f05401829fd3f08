"""Speculative memory state: store buffers, read sets, forwarding.

Models Hydra's TLS data path (paper §2):

* speculative stores are buffered per thread (never touch memory until
  the thread commits in order),
* loads forward from the nearest less-speculative thread's store buffer
  (interprocessor latency), else read committed memory through the
  cache hierarchy,
* every speculative load is tagged with the *version* it consumed so a
  later store by an earlier thread triggers a RAW violation exactly
  when the consumed value is stale,
* per-thread speculative state is bounded by the L1 (512 read lines)
  and the store buffers (64 written lines); exceeding either stalls the
  thread until it becomes the head (paper §3).
"""

from ..hydra.config import CACHE_LINE_SHIFT

#: store-buffer miss sentinel — lets the hot load path answer "does my
#: buffer hold this word, and what value" with a single dict probe
_MISSING = object()


class SpecThreadState:
    """Speculative state of one thread attempt on one CPU."""

    __slots__ = ("cpu_id", "iteration", "store_buffer", "store_lines",
                 "read_versions", "read_lines", "read_sites", "state",
                 "exit_id", "fp_addr", "violated", "overflowed",
                 "request_reset", "pending_exception", "acc_compute",
                 "acc_wait", "acc_overhead", "start_time",
                 "switch_request", "pending_resets", "pending_output",
                 "block_time")

    RUNNING = "running"
    WAIT_HEAD = "wait_head"       # finished EOI, waiting to commit
    EXITED = "exited"             # took a loop exit, waiting to be head
    STALLED = "stalled"           # buffer overflow, waiting to be head
    WAIT_LOCK = "wait_lock"       # spinning on a synchronizing lock
    EXCEPTION = "exception"       # guest exception, waiting to be head

    def __init__(self, cpu_id, iteration, fp_addr):
        self.cpu_id = cpu_id
        self.iteration = iteration
        self.fp_addr = fp_addr
        self.store_buffer = {}        # addr -> value
        self.store_lines = set()
        self.read_versions = {}       # addr -> version iteration (-1 = mem)
        self.read_lines = set()
        self.read_sites = {}          # addr -> load site (tracing only)
        self.state = self.RUNNING
        self.exit_id = None
        self.violated = False
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.switch_request = None
        self.acc_compute = 0.0
        self.acc_wait = 0.0
        self.acc_overhead = 0.0
        self.start_time = 0.0
        self.pending_resets = []
        self.pending_output = []
        self.block_time = 0.0

    def reset_speculative_state(self, iteration=None):
        if iteration is not None:
            self.iteration = iteration
        self.store_buffer.clear()
        self.store_lines.clear()
        self.read_versions.clear()
        self.read_lines.clear()
        if self.read_sites:
            self.read_sites.clear()
        self.state = self.RUNNING
        self.exit_id = None
        self.violated = False
        self.overflowed = False
        self.request_reset = False
        self.pending_exception = None
        self.switch_request = None
        self.pending_resets = []
        # Cleared in place: the CPU's ctx.output_buffer is this list.
        self.pending_output.clear()


class SpecMemoryInterface:
    """Memory interface installed on a CPU while it runs a speculative
    thread.  Implements forwarding, read tagging and overflow checks.

    Everything the data path reads besides the thread states — the
    runtime's thread list, the config constants, committed memory, the
    hierarchy and this CPU's L1 — is bound at construction.  A load that
    hits in the L1 makes no further call: the load path does the L1
    access of :meth:`MemoryHierarchy.load_latency
    <repro.hydra.cache.MemoryHierarchy.load_latency>` inline (memo hit,
    then set probe) and calls out only on a miss."""

    __slots__ = ("ctx", "runtime", "trace", "threads", "words",
                 "hierarchy", "l1", "cpu", "memo_enabled", "l1_hit_cycles",
                 "forward_cycles", "load_lines_max", "store_lines_max")

    def __init__(self, ctx, runtime):
        self.ctx = ctx
        machine = ctx.machine
        self.runtime = runtime
        config = machine.config
        # Trace collector (or None).  Cached here so the per-first-read
        # guard below is one attribute load, not a machine lookup.
        self.trace = getattr(machine, "trace", None)
        #: the runtime's thread list (grown in place during startup)
        self.threads = runtime.threads
        self.words = machine.memory.words
        self.hierarchy = machine.hierarchy
        self.cpu = ctx.cpu_id
        self.l1 = machine.hierarchy.l1[ctx.cpu_id]
        self.memo_enabled = machine.hierarchy._memo_enabled
        self.l1_hit_cycles = config.l1_hit_cycles
        self.forward_cycles = config.interprocessor_cycles
        self.load_lines_max = config.load_buffer_lines
        self.store_lines_max = config.store_buffer_lines

    # -- lookups --------------------------------------------------------------
    def _find_version(self, addr):
        """Value + version for *addr*: own buffer, then less-speculative
        buffers (nearest first), then committed memory.

        Wild addresses (computed from stale speculative data) read as
        zero instead of faulting — the hardware would likewise return
        garbage, and the thread is doomed to restart anyway.
        """
        my = self.ctx.spec
        if addr in my.store_buffer:
            return my.store_buffer[addr], my.iteration, "own"
        # Nearest less-speculative forwarder == the highest iteration
        # below ours holding the word: one pass over every thread.
        my_iteration = my.iteration
        source = None
        source_iteration = -1
        for thread in self.threads:
            iteration = thread.iteration
            if iteration < my_iteration and iteration > source_iteration \
                    and addr in thread.store_buffer:
                source = thread
                source_iteration = iteration
        if source is not None:
            return source.store_buffer[addr], source_iteration, "forward"
        if addr <= 0 or addr & 3:
            return 0, -1, "memory"
        return self.words.get(addr, 0), -1, "memory"

    def load(self, addr):
        # The version search (== _find_version) is inlined here: this
        # is the hottest TLS memory path, executed once per speculative
        # load under both schedulers.  (tests/test_tls_buffers.py checks
        # the two against each other.)
        ctx = self.ctx
        my = ctx.spec
        value = my.store_buffer.get(addr, _MISSING)
        own = value is not _MISSING
        if own:
            latency = 1
        else:
            # Nearest less-speculative forwarder.  The threads hold the
            # consecutive iterations head .. head+n-1, iteration k on
            # thread k % n (the runtime's round-robin), so walk down
            # from ours to the head instead of scanning every thread.
            threads = self.threads
            n = len(threads)
            head = self.runtime.head_iteration
            k = my.iteration - 1
            while k >= head:
                value = threads[k % n].store_buffer.get(addr, _MISSING)
                if value is not _MISSING:
                    break
                k -= 1
            if value is not _MISSING:
                latency = self.forward_cycles
            elif addr <= 0:
                value = 0
                latency = 1
            else:
                value = 0 if addr & 3 else self.words.get(addr, 0)
                # MemoryHierarchy.load_latency, inlined up to an L1 miss
                # (counter- and LRU-exact: same memo, same set probe).
                line = addr >> CACHE_LINE_SHIFT
                hierarchy = self.hierarchy
                l1 = self.l1
                memo = hierarchy._memo
                if memo is not None and memo[1] == line \
                        and memo[0] == self.cpu and memo[2] == "load":
                    l1.tick += 1
                    l1.hits += 1
                    latency = self.l1_hit_cycles
                else:
                    if self.memo_enabled:
                        hierarchy._memo = (self.cpu, line, "load")
                    tick = l1.tick + 1
                    l1.tick = tick
                    cache_set = l1.sets[line % l1.num_sets]
                    if line in cache_set:
                        cache_set[line] = tick
                        l1.hits += 1
                        latency = self.l1_hit_cycles
                    else:
                        l1.misses += 1
                        latency = hierarchy.l1_miss_latency(l1, line)
        # Set the speculative-read tag.  Hydra's L1 tag bits cannot tell
        # *which* version a read consumed, so any later store by a
        # less-speculative thread to a tagged address violates — except
        # when the thread wrote the word itself before reading (the
        # store buffer renames it; True means "vulnerable").
        read_versions = my.read_versions
        if addr not in read_versions:
            read_versions[addr] = not own
            if self.trace is not None:
                # Remember *which load* consumed the value so a later
                # violation can report the arc's sink PC (paper Fig. 10
                # wants arcs, not just counts).  Tracing-only: costs one
                # dict store per first-read of an address.
                my.read_sites[addr] = ctx.current_site
            read_lines = my.read_lines
            read_lines.add(addr >> CACHE_LINE_SHIFT)
            if (len(read_lines) > self.load_lines_max
                    and not self.runtime.is_head(my)):
                self.runtime.flag_overflow(my)
        return value, latency

    def lwnv(self, addr):
        """Non-violating load (paper's lwnv): sees speculative values but
        sets no read tag, so it can never cause a violation."""
        value, __, source = self._find_version(addr)
        if source == "own" or addr <= 0:
            latency = 1
        elif source == "forward":
            latency = self.forward_cycles
        else:
            latency = self.hierarchy.load_latency(self.cpu, addr)
        return value, latency

    def store(self, addr, value):
        my = self.ctx.spec
        my.store_buffer[addr] = value
        store_lines = my.store_lines
        store_lines.add(addr >> CACHE_LINE_SHIFT)
        if (len(store_lines) > self.store_lines_max
                and not self.runtime.is_head(my)):
            self.runtime.flag_overflow(my)
        self.runtime.notify_store(my, addr)
        return 1
