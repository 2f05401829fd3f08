"""Table handlers for the rare runtime-service and TLS pseudo-ops.

``ALLOC``, ``CALLV``, ``MONENTER``, ``MONEXIT``, ``TRAP``, ``STL_RUN``,
``STL_EOI_END``, ``STL_EXIT``, ``WAITLOCK``, ``SIGNAL`` and
``FORCE_RESET`` have pre-bound handlers in the predecoded tables
(:mod:`repro.engine.ir_engine`).  Each must leave exactly the state its
``CpuContext.step_legacy`` arm leaves — pc, instret, clock, compute
cycles, signal, raised exception, memory, store buffer, lock word,
reset requests and the current site — with ``ctx.spec`` unset
(sequential code) and set (a speculative thread).  And no table built
for any registry workload may route a pc through ``step_legacy``.
"""

import pytest

from repro.core.pipeline import Jrpm
from repro.engine.ir_engine import build_table, dispatch_table, step_table
from repro.errors import GuestException, VMError
from repro.hydra.config import HydraConfig
from repro.hydra.machine import CpuContext, Frame, Machine
from repro.jit.compiler import compile_program
from repro.jit.ir import IRInstr, IROp
from repro.minijava import compile_source
from repro.tls.buffers import SpecMemoryInterface, SpecThreadState
from repro.tls.runtime import TlsRuntime
from repro.workloads import lookup, names

from conftest import wrap_main
from test_tls_buffers import _StubExecution

FP = 0x100000
ITERATION = 6

PROGRAM = """
class Box {
    int v;
    int get() { return v; }
    synchronized int bump() { v = v + 1; return v; }
}
class Main {
    static int main() {
        Box b = new Box();
        int[] data = new int[5];
        int s = b.bump();
        s = s + b.get() + data.length;
        return s;
    }
}
"""


class _StubTlsRuntime:
    """Stands in for TlsRuntime under STL_RUN: charges a fixed number of
    master cycles and returns a fixed exit id."""

    def run_stl(self, ctx, descriptor):
        ctx.time += 17
        return 3


class _Unit:
    """A minimal code unit (the Frame interface)."""

    def __init__(self, code, nregs=8, name="Unit.test"):
        self.code = code
        self.nregs = nregs
        self.name = name
        self._dispatch = None
        self._dispatch_step = None


def _speculate(ctx):
    thread = SpecThreadState(ctx.cpu_id, ITERATION, FP)
    ctx.spec = thread
    ctx.mem = SpecMemoryInterface(ctx, _StubExecution([thread]))
    ctx.output_buffer = thread.pending_output


def _site(site):
    if site is None:
        return None
    name, instr = site
    return (name, instr.op, instr.dst, instr.a, instr.b, instr.imm)


def _observe(machine, ctx, signal, error):
    frame = ctx.frames[-1] if ctx.frames else None
    spec = ctx.spec
    return {
        "signal": signal,
        "error": error,
        "pc": frame.pc if frame else None,
        "regs": list(frame.regs) if frame else None,
        "depth": len(ctx.frames),
        "instret": ctx.instret,
        "time": ctx.time,
        "compute_cycles": ctx.compute_cycles,
        "current_site": _site(ctx.current_site),
        "memory": dict(machine.memory.words),
        "output": list(machine.output),
        "locks": (machine.locks.acquisitions, machine.locks.elided),
        "store_buffer": dict(spec.store_buffer) if spec else None,
        "read_versions": dict(spec.read_versions) if spec else None,
        "request_reset": spec.request_reset if spec else None,
        "pending_resets": [id(r) for r in spec.pending_resets]
        if spec else None,
    }


def _step_once(ctx, engine):
    frame = ctx.frames[-1]
    if engine == "legacy":
        return ctx.step_legacy()
    table = (step_table if engine == "step" else dispatch_table)(
        frame.compiled)
    return table[frame.pc](ctx, frame)


def _compare_engines(make_world):
    """Build one fresh world per engine, execute the instruction it is
    positioned at once, and compare every observable."""
    observed = {}
    for engine in ("legacy", "step", "dispatch"):
        machine, ctx = make_world()
        try:
            signal, error = _step_once(ctx, engine), None
        except (GuestException, VMError) as exc:
            signal, error = None, (type(exc).__name__, str(exc))
        observed[engine] = _observe(machine, ctx, signal, error)
    assert observed["step"] == observed["legacy"]
    assert observed["dispatch"] == observed["legacy"]
    return observed["legacy"]


# ---------------------------------------------------------------------------
# synthetic units: TLS pseudo-ops and TRAP
# ---------------------------------------------------------------------------

_RESET = object()            # stands in for a ResetableSpec

SYNTHETIC = {
    "stl_eoi_end": IRInstr(IROp.STL_EOI_END),
    "stl_exit": IRInstr(IROp.STL_EXIT, aux=2),
    "waitlock": IRInstr(IROp.WAITLOCK, imm=8),
    "signal": IRInstr(IROp.SIGNAL, imm=8),
    "force_reset": IRInstr(IROp.FORCE_RESET, aux=_RESET),
    "trap": IRInstr(IROp.TRAP, aux="InfiniteLoop"),
    "trap_default": IRInstr(IROp.TRAP),
    "stl_run": IRInstr(IROp.STL_RUN, dst=4, aux=object()),
    "unhandled": IRInstr(IROp.LABEL),
}


def _synthetic_world(instr, speculative, prior_site):
    program = compile_source(wrap_main("return 0;"))
    config = HydraConfig()
    machine = Machine(compile_program(program, config), config)
    machine.tls_runtime = _StubTlsRuntime()
    ctx = CpuContext(machine, 1)
    unit = _Unit([IRInstr(IROp.LI, dst=1, imm=5), instr,
                  IRInstr(IROp.RET, a=1)])
    ctx.frames = [Frame(unit, [])]
    ctx.frames[-1].pc = 1
    ctx.time = 40
    ctx.instret = 9
    ctx.compute_cycles = 31
    ctx.current_site = prior_site
    if speculative:
        _speculate(ctx)
    return machine, ctx


@pytest.mark.parametrize("speculative", [False, True],
                         ids=["sequential", "speculative"])
@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_tls_op_handler_matches_step_legacy(name, speculative):
    instr = SYNTHETIC[name]
    prior_site = ("Earlier.site", IRInstr(IROp.LW, dst=2, a=3, imm=4))
    result = _compare_engines(
        lambda: _synthetic_world(instr, speculative, prior_site))
    # None of these ops sets the current site.  For SIGNAL this matters:
    # a violation its store raises must keep the source site that
    # step_legacy reports in the trace's violation arc.
    assert result["current_site"] == _site(prior_site)


def test_signal_stores_the_lock_word_only_when_speculative():
    instr = SYNTHETIC["signal"]
    sequential = _compare_engines(
        lambda: _synthetic_world(instr, False, None))
    speculative = _compare_engines(
        lambda: _synthetic_world(instr, True, None))
    assert sequential["store_buffer"] is None
    assert speculative["store_buffer"] == {FP + 8: ITERATION + 1}


def test_force_reset_records_the_request_only_when_speculative():
    instr = SYNTHETIC["force_reset"]
    assert _compare_engines(
        lambda: _synthetic_world(instr, True, None))["request_reset"]
    assert _compare_engines(
        lambda: _synthetic_world(instr, False, None))[
            "request_reset"] is None


# ---------------------------------------------------------------------------
# real code: ALLOC, CALLV, MONENTER, MONEXIT
# ---------------------------------------------------------------------------

def _program_world(op, occurrence, speculative, aware_locks):
    """Run PROGRAM with step_legacy up to its *occurrence*-th dynamic
    *op*, then (optionally) turn the CPU speculative."""
    config = HydraConfig()
    compiled = compile_program(compile_source(PROGRAM), config)
    machine = Machine(compiled, config,
                      speculation_aware_locks=aware_locks)
    ctx = CpuContext(machine, 0)
    ctx.push_entry(compiled.entry(), [])
    seen = 0
    while True:
        frame = ctx.frames[-1]
        if frame.code[frame.pc].op == op:
            if seen == occurrence:
                break
            seen += 1
        assert ctx.step_legacy() is None, "op %s not reached" % op
    if speculative:
        _speculate(ctx)
    return machine, ctx


@pytest.mark.parametrize("aware_locks", [True, False],
                         ids=["elided-locks", "memory-locks"])
@pytest.mark.parametrize("speculative", [False, True],
                         ids=["sequential", "speculative"])
@pytest.mark.parametrize("op,occurrence", [
    (IROp.ALLOC, 0), (IROp.ALLOC, 1), (IROp.CALLV, 0), (IROp.CALLV, 1),
    (IROp.MONENTER, 0), (IROp.MONEXIT, 0),
], ids=["alloc-object", "alloc-array", "callv-bump", "callv-get",
        "monenter", "monexit"])
def test_runtime_op_handler_matches_step_legacy(op, occurrence,
                                                speculative, aware_locks):
    _compare_engines(lambda: _program_world(op, occurrence, speculative,
                                            aware_locks))


def test_monenter_null_receiver_raises_like_step_legacy():
    def world():
        machine, ctx = _synthetic_world(
            IRInstr(IROp.MONENTER, a=2), False, None)
        ctx.frames[-1].regs[2] = 0
        return machine, ctx
    result = _compare_engines(world)
    assert result["error"][0] == "NullPointerException"


# ---------------------------------------------------------------------------
# no table routes a pc through step_legacy
# ---------------------------------------------------------------------------

def _thread_descriptors(compiled):
    """Every StlDescriptor reachable from *compiled*, inner STLs of
    multilevel decompositions included."""
    pending = [d for method in compiled.methods.values()
               for d in method.stls.values()]
    seen = {}
    while pending:
        descriptor = pending.pop()
        if id(descriptor) in seen:
            continue
        seen[id(descriptor)] = descriptor
        pending.extend(instr.aux for instr in descriptor.thread_code
                       if instr.op == IROp.STL_RUN)
    return list(seen.values())


def _assert_no_legacy(code, unit_name, warm_entries=()):
    for stepwise in (False, True):
        table = build_table(code, unit_name, warm_entries,
                            stepwise=stepwise)
        for pc, handler in enumerate(table):
            assert handler.__name__ != "_legacy", (unit_name, pc)
            assert "step_legacy" not in handler.__code__.co_names, (
                unit_name, pc, code[pc].op)


@pytest.mark.parametrize("name", names())
def test_no_table_routes_through_step_legacy(name):
    jrpm = Jrpm()
    program = compile_source(lookup(name).source("small"))
    units = list(compile_program(program, jrpm.config).methods.values())
    profile = jrpm.profile(program)
    units.extend(profile.annotated.methods.values())
    recompiled = jrpm.recompile(program, jrpm.select(profile))
    if recompiled is not None:
        units.extend(recompiled.methods.values())
        runtime = TlsRuntime(Machine(recompiled, jrpm.config))
        units.extend(runtime.unit_for(descriptor)
                     for descriptor in _thread_descriptors(recompiled))
    for unit in units:
        _assert_no_legacy(unit.code, unit.name,
                          getattr(unit, "warm_entries", ()))


def test_block_interior_entries_fail_loudly():
    """A pc inside a batched block is unreachable; landing there anyway
    raises instead of silently executing a partial block."""
    unit = _Unit([IRInstr(IROp.LI, dst=1, imm=5),
                  IRInstr(IROp.ADDI, dst=1, a=1, imm=2),
                  IRInstr(IROp.RET, a=1)])
    frame = Frame(unit, [])
    ctx = CpuContext(Machine(compile_program(compile_source(
        wrap_main("return 0;")), HydraConfig()), HydraConfig()), 0)
    ctx.frames = [frame]
    frame.pc = 1
    with pytest.raises(VMError, match="inside a batched block"):
        dispatch_table(unit)[1](ctx, frame)
    assert step_table(unit)[1](ctx, frame) is None   # stepwise: real op
    assert frame.regs[1] == 2
