"""ComparatorBank mechanics at the unit level (paper §3.2)."""

from repro.hydra.config import HydraConfig
from repro.tracer.profiler import ComparatorBank, TestProfiler


class _Instance:
    loop_id = 1
    instance_id = 1
    bank = None


def make_bank(now=0, history=8):
    return ComparatorBank(_Instance(), now, history)


class TestArcDistance:
    def test_intra_thread_is_zero(self):
        bank = make_bank(now=100)
        assert bank.arc_distance(150) == 0

    def test_previous_thread_is_one(self):
        bank = make_bank(now=0)
        bank.boundary(100)      # thread 0 was [0, 100)
        assert bank.arc_distance(50) == 1

    def test_distance_counts_boundaries(self):
        bank = make_bank(now=0)
        for t in (100, 200, 300):
            bank.boundary(t)
        # current thread started at 300
        assert bank.arc_distance(250) == 1
        assert bank.arc_distance(150) == 2
        assert bank.arc_distance(50) == 3

    def test_older_than_ring_is_none(self):
        bank = make_bank(now=0, history=2)
        for t in (10, 20, 30, 40):
            bank.boundary(t)
        assert bank.arc_distance(5) is None

    def test_producer_start_lookup(self):
        bank = make_bank(now=0)
        bank.boundary(100)
        bank.boundary(250)
        assert bank.producer_start(1) == 100
        assert bank.producer_start(2) == 0


class TestBoundary:
    def test_boundary_returns_thread_facts(self):
        bank = make_bank(now=0)
        bank.load_lines.update({1, 2, 3})
        bank.store_lines.add(9)
        bank.critical = 42.0
        size, loads, stores, critical, arc = bank.boundary(77)
        assert size == 77
        assert loads == 3 and stores == 1
        assert critical == 42.0

    def test_boundary_resets_per_thread_state(self):
        bank = make_bank(now=0)
        bank.load_lines.add(5)
        bank.critical = 9.0
        bank.boundary(10)
        assert not bank.load_lines
        assert bank.critical == 0.0
        assert bank.thread_index == 1


class TestProfilerEventPlumbing:
    def make(self):
        return TestProfiler(HydraConfig())

    def test_eoi_without_sloop_ignored(self):
        profiler = self.make()
        profiler.on_eoi(7, 100)             # never started: no crash
        assert 7 not in profiler.stats or \
            profiler.stats[7].threads == 0

    def test_nested_instances_resolve_to_nearest(self):
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        profiler.on_sloop(1, 0, 10)          # recursive same-loop entry
        inner = profiler.active[-1]
        profiler.on_eloop(1, 50)
        # the inner (nearest) activation is the one removed
        assert all(a is not inner for a in profiler.active)
        assert len(profiler.active) == 1

    def test_store_then_load_same_thread_no_arc(self):
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        profiler.on_store(0x400000, 5, None)
        profiler.on_load(0x400000, 8, None)
        profiler.on_eoi(1, 10)
        profiler.on_eloop(1, 12)
        assert profiler.stats[1].arc_threads == 0

    def test_store_then_load_next_thread_records_arc(self):
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        profiler.on_store(0x400000, 5, None)
        profiler.on_eoi(1, 10)
        profiler.on_load(0x400000, 12, None)
        profiler.on_eoi(1, 20)
        profiler.on_eloop(1, 22)
        stats = profiler.stats[1]
        assert stats.arc_threads == 1
        assert stats.avg_critical_constraint > 0

    def test_store_before_loop_entry_is_not_an_arc(self):
        profiler = self.make()
        profiler.on_store(0x400000, 1, None)     # before any loop
        profiler.on_sloop(1, 0, 10)
        profiler.on_load(0x400000, 12, None)
        profiler.on_eoi(1, 20)
        profiler.on_eloop(1, 22)
        assert profiler.stats[1].arc_threads == 0

    def test_local_slot_arcs(self):
        profiler = self.make()
        profiler.on_sloop(1, 1, 0)
        profiler.on_swl(1, 0, 5, None)
        profiler.on_eoi(1, 10)
        profiler.on_lwl(1, 0, 12, None)
        profiler.on_eoi(1, 20)
        profiler.on_eloop(1, 21)
        stats = profiler.stats[1]
        assert stats.arc_threads == 1
        dominant = stats.dominant_arc()
        assert dominant is not None
        (store_site, load_site), __ = dominant
        assert load_site == ("local", 1, 0)

    def test_line_counting_per_thread(self):
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        for k in range(4):
            profiler.on_load(0x400000 + 32 * k, 2 + k, None)
        profiler.on_eoi(1, 50)
        profiler.on_eloop(1, 60)
        assert profiler.stats[1].max_load_lines == 4

    def test_banks_freed_on_eloop(self):
        profiler = self.make()
        for loop_id in range(1, 6):
            profiler.on_sloop(loop_id, 0, loop_id)
        assert profiler.banks_in_use == 5
        for loop_id in range(5, 0, -1):
            profiler.on_eloop(loop_id, 100 + loop_id)
        assert profiler.banks_in_use == 0
        assert not profiler.active


class TestActivationMap:
    """``innermost`` maps a loop id to its innermost activation; each
    activation shadows the next-outer activation of the same loop."""

    def make(self):
        return TestProfiler(HydraConfig())

    def test_recursive_reentry_keeps_outer_carried_local(self):
        profiler = self.make()
        profiler.on_sloop(1, 1, 0)
        profiler.on_swl(1, 0, 9, None)          # outer thread 0 writes
        profiler.on_eoi(1, 10)
        outer = profiler.innermost[1]
        profiler.on_sloop(1, 1, 11)             # recursive re-entry
        inner = profiler.innermost[1]
        assert inner is not outer and inner.shadow is outer
        profiler.on_lwl(1, 0, 12, None)         # inner never wrote slot 0
        profiler.on_swl(1, 0, 13, None)
        assert outer.locals == {0: 9}
        profiler.on_eloop(1, 15)
        assert profiler.innermost[1] is outer
        assert outer.locals == {0: 9}
        profiler.on_lwl(1, 0, 16, None)         # outer thread 1 reads
        profiler.on_eoi(1, 20)
        profiler.on_eloop(1, 21)
        assert 1 not in profiler.innermost and not profiler.active
        stats = profiler.stats[1]
        assert stats.arc_threads == 1
        (store_site, load_site), arc = stats.dominant_arc()
        assert store_site == load_site == ("local", 1, 0)
        assert arc.min_distance == 1

    def test_local_events_for_inactive_loop_are_counted_only(self):
        profiler = self.make()
        profiler.on_sloop(1, 1, 0)
        profiler.on_swl(2, 0, 3, None)
        profiler.on_lwl(2, 0, 4, None)
        assert profiler.events == 3
        assert 2 not in profiler.stats and 2 not in profiler.innermost
        assert profiler.innermost[1].locals == {}

    def test_eloop_without_sloop_is_ignored(self):
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        profiler.on_eloop(7, 5)
        assert profiler.events == 2
        assert [a.loop_id for a in profiler.active] == [1]
        assert profiler.banks_in_use == 1
        assert 7 not in profiler.stats

    def test_stale_activation_left_by_exception(self):
        """A guest exception can leave a loop without its ELOOP.  The
        stale activation stays active, keeps its bank and locals, is
        the one its loop id resolves to, and is shadowed (not replaced)
        by a later activation of the same loop."""
        profiler = self.make()
        profiler.on_sloop(1, 0, 0)
        profiler.on_sloop(2, 1, 1)
        profiler.on_swl(2, 0, 2, None)
        profiler.on_eoi(2, 3)
        stale = profiler.innermost[2]
        profiler.on_eloop(1, 4)                  # unwound past loop 2
        assert profiler.active == [stale]
        assert profiler.banks_in_use == 1
        profiler.on_sloop(2, 1, 5)               # same loop, entered anew
        fresh = profiler.innermost[2]
        assert fresh.shadow is stale and fresh.locals == {}
        profiler.on_lwl(2, 0, 6, None)           # fresh: nothing carried
        profiler.on_eloop(2, 7)
        assert profiler.innermost[2] is stale
        assert profiler.stats[2].arc_threads == 0
        profiler.on_lwl(2, 0, 8, None)           # stale: carried from t=2
        profiler.on_eoi(2, 9)
        assert profiler.stats[2].arc_threads == 1
        assert profiler.active == [stale]

    def test_local_state_is_released_on_eloop(self):
        import gc
        import types

        def reachable(root):
            seen, stack = set(), [root]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(
                        obj, (type, types.ModuleType, types.FunctionType)):
                    continue
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))
            return seen

        profiler = self.make()
        released = []
        for k in range(50):
            profiler.on_sloop(1, 8, 100 * k)
            for slot in range(8):
                profiler.on_swl(1, slot, 100 * k + slot + 1, None)
            released.append(profiler.innermost[1].locals)
            profiler.on_eloop(1, 100 * k + 50)
        assert not profiler.active and not profiler.innermost
        live = reachable(profiler)
        assert not any(id(slots) in live for slots in released)
