"""Superblock translation for the ISA interpreter.

A *superblock* is a straight-line run of decoded instructions starting at
some address and ending at the first control transfer (jump, conditional
jump, call, indirect jump/call, return), runtime boundary (``rtcall``,
``trap``) or trampoline-span crossing.  The engine pre-translates each
run into a list of fused step closures that thread register and flag
state directly — no per-instruction fetch, no icache probe, no dispatch
dict lookup — and caches the result keyed on the start address.

Equivalence contract (DESIGN.md §5f): executing a superblock must be
*bit-identical* to single-stepping the same instructions, including the
partial architectural state left behind by a mid-block fault:

- every step commits ``cpu.rip = address + length`` *before* its body
  runs, exactly as :meth:`repro.vm.cpu.CPU.step` does, so a fault in
  step *k* leaves the same ``rip`` either way and a not-taken
  conditional branch falls through correctly;
- step bodies either replicate a handler's semantics exactly
  (specialized closures, including flag types — Python ``bool``\\ s) or
  *are* the handler (the generic fallback calls the bound method with
  the decoded instruction — the same call the dispatch loop makes);
- blocks never span the ``.tramp`` boundary, so every block is entirely
  trampoline code or entirely application code — the run loop's
  "checks executed" attribution stays exact;
- the caches are coupled: :meth:`repro.vm.cpu.CPU.flush_icache` clears
  the superblock cache together with the decode cache, because step
  closures capture decoded instructions.

Degradation: the ``vm.superblock`` fault point fires at translation
time (low frequency, off the per-instruction hot path).  When it fires
the engine latches itself off for the rest of the run — the run loop
falls back to its single-step branch, never crashes — and the run is
accounted as DEGRADED by the fault campaign.  Because the trace tier
(:mod:`repro.vm.trace`) compiles stitched superblocks, degrading this
engine also latches the trace tier off: the full degradation ladder is
trace → superblock → single-step, with the single-step oracle at the
bottom (DESIGN.md §9).

This module also owns the process-wide engine selection
(:func:`default_engine` / :func:`engine_override`): ``"trace"`` runs
the whole ladder, ``"superblock"`` caps execution at this tier, and
``"single-step"`` pins the reference interpreter.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.errors import VMError
from repro.faults.injector import fault_point
from repro.isa.opcodes import (
    CONDITION_CODES, FLAG_PREDICATES, SETCC_CONDITIONS, Opcode,
)
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import RSP, Register

_M64 = (1 << 64) - 1
_SIGN = 1 << 63
_RIP = Register.RIP


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


#: A block never grows past this many instructions; long straight-line
#: runs split into chained blocks (the cap bounds translation latency
#: and mid-block fault-recovery scans).
MAX_BLOCK = 64

#: Opcodes that end a superblock (and are executed as its last step).
TERMINATORS = frozenset({
    Opcode.JMP, Opcode.CALL, Opcode.JMPR, Opcode.CALLR, Opcode.RET,
    Opcode.TRAP, Opcode.RTCALL,
    Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE,
    Opcode.JB, Opcode.JBE, Opcode.JA, Opcode.JAE, Opcode.JS, Opcode.JNS,
})

#: Opcodes the coverage hook records edges for: real control transfers
#: that redirect ``rip``.  TRAP/RTCALL end a block (runtime boundary)
#: but fall through, so they are not coverage edges — keeping the edge
#: definition identical between the single-step and superblock tiers.
TRANSFER_OPCODES = frozenset({
    Opcode.JMP, Opcode.CALL, Opcode.JMPR, Opcode.CALLR, Opcode.RET,
    Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE,
    Opcode.JB, Opcode.JBE, Opcode.JA, Opcode.JAE, Opcode.JS, Opcode.JNS,
})

#: Default engine for newly built CPUs; flipped by
#: :func:`engine_override` (the ``redfat run --engine`` switch).
#: ``"trace"`` selects the full tier ladder (trace above superblocks),
#: ``"superblock"`` caps execution at the superblock tier, and
#: ``"single-step"`` pins the reference interpreter.
_DEFAULT_ENGINE = "trace"

#: Engine-name spellings accepted by the facade/CLI, fastest first.
ENGINE_NAMES = ("trace", "superblock", "single-step")


def default_engine() -> str:
    """The engine newly built CPUs start on (one of :data:`ENGINE_NAMES`)."""
    return _DEFAULT_ENGINE


def default_enabled() -> bool:
    """Whether new CPUs start with superblock translation on — i.e. the
    default engine is anything above the single-step reference loop."""
    return _DEFAULT_ENGINE != "single-step"


def _coerce_engine(engine) -> str:
    if engine == "trace":
        return "trace"
    if engine in ("superblock", True):
        return "superblock"
    if engine in ("single-step", "singlestep", False):
        return "single-step"
    raise ValueError(
        f"unknown VM engine {engine!r}; expected one of {ENGINE_NAMES}"
    )


@contextmanager
def engine_override(engine):
    """Temporarily pick the execution engine for CPUs built inside.

    *engine* is ``"trace"``, ``"superblock"`` or ``"single-step"``
    (booleans still work for the latter two).  Used by ``redfat run
    --engine``, :func:`repro.api.run` and the perfscope recorder to
    measure all three loops on identical inputs.
    """
    global _DEFAULT_ENGINE
    name = _coerce_engine(engine)
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = name
    try:
        yield
    finally:
        _DEFAULT_ENGINE = previous


class Superblock:
    """One translated straight-line run.

    ``steps`` holds ``(next_rip, fn, arg)`` triples: the run loop stores
    ``next_rip`` into ``cpu.rip`` and calls ``fn(arg)``.  Specialized
    closures ignore *arg*; generic steps are ``(bound handler,
    instruction)`` pairs — the exact call the dispatch loop would make.
    """

    __slots__ = ("start", "steps", "length", "in_trampoline", "last_transfer")

    def __init__(self, start: int, steps: List[tuple], in_trampoline: bool,
                 last_transfer: Optional[int] = None) -> None:
        self.start = start
        self.steps = steps
        self.length = len(steps)
        #: The whole block lies inside the ``.tramp`` segment (blocks
        #: never straddle the boundary), so traced runs attribute
        #: ``length`` check-instructions per execution.
        self.in_trampoline = in_trampoline
        #: Address of the block's final instruction when that instruction
        #: is a control transfer (:data:`TRANSFER_OPCODES`), else None.
        #: The run loop records ``(last_transfer, rip-after-block)``
        #: coverage edges from it — the exact edge single-stepping
        #: records when the same transfer retires.
        self.last_transfer = last_transfer

    def retired_before(self, rip: int) -> int:
        """How many steps retired before the one that left ``cpu.rip``
        at *rip* raised.

        Every step sets ``rip`` to its own ``next_rip`` before running,
        and ``next_rip`` is strictly increasing within a block, so the
        faulting step is the unique one whose ``next_rip`` matches.
        """
        retired = 0
        for next_rip, _fn, _arg in self.steps:
            if next_rip == rip:
                return retired
            retired += 1
        return retired


class SuperblockEngine:
    """Per-CPU translation cache + degradation latch."""

    __slots__ = ("cpu", "cache", "visited", "enabled", "degraded",
                 "degraded_reason", "translations")

    def __init__(self, cpu, enabled: Optional[bool] = None) -> None:
        self.cpu = cpu
        self.cache = {}
        #: Block starts reached once and single-stepped; the run loop
        #: translates a start on its second visit, so code that runs
        #: once never pays for translation.
        self.visited = set()
        self.enabled = default_enabled() if enabled is None else enabled
        self.degraded = False
        self.degraded_reason = ""
        self.translations = 0

    def invalidate(self) -> None:
        """Drop every translated block (call when decoded code changes)."""
        self.cache.clear()
        self.visited.clear()

    def degrade(self, reason: str) -> None:
        """Latch the engine off for the rest of this CPU's lifetime.

        The run loop falls back to its single-step branch — identical
        semantics, just slower — and telemetry/the fault campaign see
        the run as degraded, never crashed.  The trace tier sits on top
        of this one (its traces stitch superblocks), so degrading here
        cascades: trace → superblock → single-step is the full ladder.
        """
        self.enabled = False
        self.degraded = True
        self.degraded_reason = reason
        self.cache.clear()
        trace = getattr(self.cpu, "trace", None)
        if trace is not None and trace.enabled:
            trace.degrade(f"superblock engine degraded: {reason}")
        tele = self.cpu.telemetry
        if tele is not None:
            tele.count("vm.superblock_degraded")
            tele.event("superblock_degraded", reason=reason)

    def translate(self, address: int) -> Optional[Superblock]:
        """Translate and cache the superblock starting at *address*.

        Returns None when the engine is (or just became) degraded.  A
        decode failure on the *first* instruction propagates — single-
        stepping would fault on the same fetch; a failure further in
        truncates the block so execution reaches the bad address
        naturally, preserving the side effects of the instructions
        before it.
        """
        if not self.enabled:
            return None
        if fault_point("vm.superblock"):
            self.degrade("injected superblock translation fault")
            return None
        cpu = self.cpu
        icache = cpu.icache
        decode_at = cpu._decode_at
        span = cpu.trampoline_span
        tramp_start, tramp_end = span if span is not None else (0, 0)
        start_in_tramp = tramp_start <= address < tramp_end
        instructions = []
        rip = address
        while len(instructions) < MAX_BLOCK:
            if instructions and (tramp_start <= rip < tramp_end) != start_in_tramp:
                break  # never straddle the trampoline boundary
            instruction = icache.get(rip)
            if instruction is None:
                if not instructions:
                    instruction = decode_at(rip)
                else:
                    try:
                        instruction = decode_at(rip)
                    except VMError:
                        break  # reach the undecodable address by executing
            instructions.append(instruction)
            if instruction.opcode in TERMINATORS:
                break
            rip += instruction.length
        last = instructions[-1]
        block = Superblock(
            address, _compile_steps(cpu, instructions), start_in_tramp,
            last.address if last.opcode in TRANSFER_OPCODES else None,
        )
        self.cache[address] = block
        self.translations += 1
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.superblocks_translated")
        return block

    def stats(self) -> dict:
        return {
            "translations": self.translations,
            "cached_blocks": len(self.cache),
            "degraded": self.degraded,
        }


# -- the specializer ---------------------------------------------------------
#
# Each helper returns a closure taking one ignored argument so the run
# loop can treat specialized and generic steps uniformly.  Closures bind
# ``regs`` (the CPU's register list — assigned once, never replaced),
# the memory's bound accessors, and ``cpu`` for flags/rip; they must
# leave *identical* architectural state to the handler they replace,
# including flag value types (``bool``).


def _compile_steps(cpu, instructions) -> List[tuple]:
    steps = []
    for instruction in instructions:
        next_rip = instruction.address + instruction.length
        compiled = _specialize(cpu, instruction)
        if compiled is None:
            steps.append(
                (next_rip, cpu._dispatch[instruction.opcode], instruction)
            )
        else:
            steps.append((next_rip, compiled, None))
    return steps


def _make_ea(instruction, mem, regs):
    """An effective-address thunk mirroring ``CPU.effective_address``."""
    disp = mem.disp
    base = mem.base
    index = mem.index
    scale = mem.scale
    if base is _RIP:
        constant = (disp + instruction.address + instruction.length) & _M64
        return lambda: constant
    if base is None and index is None:
        constant = disp & _M64
        return lambda: constant
    if index is None:
        return lambda: (regs[base] + disp) & _M64
    if base is None:
        return lambda: (disp + regs[index] * scale) & _M64
    return lambda: (regs[base] + disp + regs[index] * scale) & _M64


def _read_thunk(cpu, instruction, operand, size):
    """A value thunk mirroring ``CPU._read_operand`` (hook-free: the
    engine only runs when no ``access_hook`` is installed)."""
    regs = cpu.regs
    if type(operand) is Reg:
        reg = operand.reg
        return lambda: regs[reg]
    if type(operand) is Imm:
        value = operand.value & _M64
        return lambda: value
    ea = _make_ea(instruction, operand, regs)
    read_int = cpu.memory.read_int
    return lambda: read_int(ea(), size)


def _specialize(cpu, instruction):  # noqa: C901 - one big opcode switch
    opcode = instruction.opcode
    operands = instruction.operands
    size = instruction.size
    regs = cpu.regs
    memory = cpu.memory
    read_int = memory.read_int
    write_int = memory.write_int

    if opcode is Opcode.MOV:
        dst, src = operands
        if type(dst) is Reg:
            d = dst.reg
            if type(src) is Reg:
                s = src.reg
                if size == 8:
                    def step(_):
                        regs[d] = regs[s]
                else:
                    mask = (1 << (size * 8)) - 1

                    def step(_):
                        regs[d] = regs[s] & mask
                return step
            if type(src) is Imm:
                value = src.value & _M64
                if size != 8:
                    value &= (1 << (size * 8)) - 1

                def step(_):
                    regs[d] = value
                return step
            ea = _make_ea(instruction, src, regs)

            def step(_):
                regs[d] = read_int(ea(), size)
            return step
        if type(dst) is Mem:
            ea = _make_ea(instruction, dst, regs)
            if type(src) is Reg:
                s = src.reg

                def step(_):
                    write_int(ea(), regs[s], size)
                return step
            if type(src) is Imm:
                value = src.value & _M64

                def step(_):
                    write_int(ea(), value, size)
                return step
        return None

    if opcode is Opcode.MOVS:
        dst, src = operands
        d = dst.reg
        ea = _make_ea(instruction, src, regs)

        def step(_):
            regs[d] = read_int(ea(), size, True) & _M64
        return step

    if opcode is Opcode.LEA:
        dst, src = operands
        d = dst.reg
        ea = _make_ea(instruction, src, regs)

        def step(_):
            regs[d] = ea()
        return step

    if opcode in _ALU_SPECIALIZERS:
        dst, src = operands
        if type(dst) is not Reg:
            return None
        if type(src) is Reg:
            s = src.reg
            load_b = lambda: regs[s]  # noqa: E731
        elif type(src) is Imm:
            value = src.value & _M64
            load_b = lambda: value  # noqa: E731
        else:
            return None  # memory source: generic handler (hookable path)
        return _ALU_SPECIALIZERS[opcode](cpu, regs, dst.reg, load_b)

    if opcode is Opcode.CMP:
        dst, src = operands
        if type(src) is Mem:
            return None
        load_a = _read_thunk(cpu, instruction, dst, size)
        load_b = _read_thunk(cpu, instruction, src, size)

        def step(_):
            a = load_a()
            b = load_b()
            result = (a - b) & _M64
            cpu.cf = b > a
            cpu.of = bool(((a ^ b) & (a ^ result)) & _SIGN)
            cpu.zf = result == 0
            cpu.sf = bool(result & _SIGN)
        return step

    if opcode is Opcode.TEST:
        dst, src = operands
        if type(dst) is Mem or type(src) is Mem:
            return None
        load_a = _read_thunk(cpu, instruction, dst, 8)
        load_b = _read_thunk(cpu, instruction, src, 8)

        def step(_):
            result = load_a() & load_b()
            cpu.cf = False
            cpu.of = False
            cpu.zf = result == 0
            cpu.sf = bool(result & _SIGN)
        return step

    if opcode is Opcode.NOT:
        r = operands[0].reg

        def step(_):
            regs[r] = (~regs[r]) & _M64
        return step

    if opcode is Opcode.NEG:
        r = operands[0].reg

        def step(_):
            value = regs[r]
            result = (-value) & _M64
            regs[r] = result
            cpu.cf = value != 0
            cpu.zf = result == 0
            cpu.sf = bool(result & _SIGN)
        return step

    if opcode in SETCC_CONDITIONS:
        condition = FLAG_PREDICATES[SETCC_CONDITIONS[opcode]]
        r = operands[0].reg

        def step(_):
            regs[r] = 1 if condition(cpu.zf, cpu.sf, cpu.cf, cpu.of) else 0
        return step

    if opcode is Opcode.PUSH:
        s = operands[0].reg

        def step(_):
            regs[RSP] = rsp = (regs[RSP] - 8) & _M64
            write_int(rsp, regs[s], 8)
        return step

    if opcode is Opcode.POP:
        d = operands[0].reg

        def step(_):
            rsp = regs[RSP]
            regs[d] = read_int(rsp, 8)
            regs[RSP] = (rsp + 8) & _M64
        return step

    if opcode is Opcode.PUSHF:
        def step(_):
            regs[RSP] = rsp = (regs[RSP] - 8) & _M64
            write_int(
                rsp,
                (1 if cpu.zf else 0) | (2 if cpu.sf else 0)
                | (4 if cpu.cf else 0) | (8 if cpu.of else 0),
                8,
            )
        return step

    if opcode is Opcode.POPF:
        def step(_):
            rsp = regs[RSP]
            value = read_int(rsp, 8)
            cpu.zf = bool(value & 1)
            cpu.sf = bool(value & 2)
            cpu.cf = bool(value & 4)
            cpu.of = bool(value & 8)
            regs[RSP] = (rsp + 8) & _M64
        return step

    if opcode is Opcode.JMP:
        target = (
            instruction.address + instruction.length + operands[0].value
        ) & _M64

        def step(_):
            cpu.rip = target
        return step

    if opcode in CONDITION_CODES:
        condition = FLAG_PREDICATES[CONDITION_CODES[opcode]]
        target = (
            instruction.address + instruction.length + operands[0].value
        ) & _M64

        def step(_):
            if condition(cpu.zf, cpu.sf, cpu.cf, cpu.of):
                cpu.rip = target
        return step

    if opcode is Opcode.CALL:
        return_address = instruction.address + instruction.length
        target = (return_address + operands[0].value) & _M64

        def step(_):
            regs[RSP] = rsp = (regs[RSP] - 8) & _M64
            write_int(rsp, return_address, 8)
            cpu.rip = target
        return step

    if opcode is Opcode.JMPR:
        r = operands[0].reg

        def step(_):
            cpu.rip = regs[r]
        return step

    if opcode is Opcode.CALLR:
        return_address = instruction.address + instruction.length
        r = operands[0].reg

        def step(_):
            regs[RSP] = rsp = (regs[RSP] - 8) & _M64
            write_int(rsp, return_address, 8)
            cpu.rip = regs[r]
        return step

    if opcode is Opcode.RET:
        def step(_):
            rsp = regs[RSP]
            cpu.rip = read_int(rsp, 8)
            regs[RSP] = (rsp + 8) & _M64
        return step

    if opcode is Opcode.NOP:
        def step(_):
            return None
        return step

    # TRAP, RTCALL, DIV/MOD/IDIV/IMOD, memory-destination ALU, and
    # anything exotic run through the original bound handler.
    return None


def _spec_add(cpu, regs, d, load_b):
    def step(_):
        a = regs[d]
        b = load_b()
        result = (a + b) & _M64
        regs[d] = result
        cpu.cf = (a + b) > _M64
        cpu.of = bool((~(a ^ b) & (a ^ result)) & _SIGN)
        cpu.zf = result == 0
        cpu.sf = bool(result & _SIGN)
    return step


def _spec_sub(cpu, regs, d, load_b):
    def step(_):
        a = regs[d]
        b = load_b()
        result = (a - b) & _M64
        regs[d] = result
        cpu.cf = b > a
        cpu.of = bool(((a ^ b) & (a ^ result)) & _SIGN)
        cpu.zf = result == 0
        cpu.sf = bool(result & _SIGN)
    return step


def _spec_logic(operator):
    def make(cpu, regs, d, load_b):
        def step(_):
            result = operator(regs[d], load_b())
            regs[d] = result
            cpu.cf = False
            cpu.of = False
            cpu.zf = result == 0
            cpu.sf = bool(result & _SIGN)
        return step
    return make


def _spec_imul(cpu, regs, d, load_b):
    def step(_):
        result = (_signed(regs[d]) * _signed(load_b())) & _M64
        regs[d] = result
        cpu.zf = result == 0
        cpu.sf = bool(result & _SIGN)
        cpu.cf = cpu.of = False
    return step


def _spec_shift(operator):
    # SHL/SHR/SAR update only zf/sf (cf/of keep their prior values),
    # mirroring ``CPU._alu``.
    def make(cpu, regs, d, load_b):
        def step(_):
            result = operator(regs[d], load_b() & 63)
            regs[d] = result
            cpu.zf = result == 0
            cpu.sf = bool(result & _SIGN)
        return step
    return make


_ALU_SPECIALIZERS = {
    Opcode.ADD: _spec_add,
    Opcode.SUB: _spec_sub,
    Opcode.AND: _spec_logic(lambda a, b: a & b),
    Opcode.OR: _spec_logic(lambda a, b: a | b),
    Opcode.XOR: _spec_logic(lambda a, b: a ^ b),
    Opcode.IMUL: _spec_imul,
    Opcode.SHL: _spec_shift(lambda a, count: (a << count) & _M64),
    Opcode.SHR: _spec_shift(lambda a, count: a >> count),
    Opcode.SAR: _spec_shift(lambda a, count: (_signed(a) >> count) & _M64),
}
