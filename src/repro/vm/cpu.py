"""The ISA interpreter.

Design notes:

- Instructions are decoded once per address and cached in ``icache``;
  rewritten binaries are static (no self-modifying code — the same
  restriction E9Patch has), so within one CPU the decode cache only
  invalidates on an explicit :meth:`CPU.flush_icache` (which also drops
  the superblock and trace caches built on top of it).
- Across runs, an ``icache`` miss first consults the per-binary
  ``decode_cache`` the loader installs (it rides on the
  :class:`~repro.binfmt.binary.Binary`, next to the trace cache).  An
  entry holds the exact bytes its decode consumed and is reused only
  while guest memory at fetch time still holds those bytes.  Decoding
  is a pure function of those bytes and the address, so reuse is exact
  even when a bit flip, a truncated load or the guest itself changed
  the code; it saves the re-decode that used to dominate a short run's
  start-up.  With a telemetry hub attached, ``vm.decodes`` counts fresh
  decodes and ``vm.decodes_reused`` cache hits.
- Execution is tiered (DESIGN.md §9).  The *superblock* tier runs
  straight-line runs of decoded instructions pre-translated into fused
  step closures (:mod:`repro.vm.superblock`); the *trace* tier above it
  profiles taken back-edges and compiles hot loops into exec-generated
  Python functions with guarded side exits (:mod:`repro.vm.trace`).
  A block start is translated on its second visit only: the first runs
  on the single-step branch up to the block's terminator, so code that
  runs once per run (most of a short run's code) never pays for
  translation.  Both tiers are bit-identical to the single-step branch
  — the semantics oracle at the bottom of the ladder; :meth:`CPU.run`,
  the one run loop, falls down the ladder when a DBI ``access_hook`` is
  installed, when the remaining watchdog fuel cannot cover a whole
  block/iteration, or when the ``vm.trace`` / ``vm.superblock`` fault
  points degrade a tier (trace degradation lands on superblocks;
  superblock degradation lands on single-step).
- ``instructions_executed`` counts every retired instruction, including
  trampoline code.  Overhead factors in the experiments are ratios of this
  counter, making results deterministic across machines.
- ``run`` enforces the watchdog *fuel* budget exactly: a guest retiring
  ``max_instructions`` without exiting raises
  :class:`~repro.errors.VMTimeoutError` at the same instruction under
  every execution engine.
- An optional ``access_hook`` observes every data memory access; it is how
  the Memcheck baseline (DBI) and the allocator-zoo backends attach.
- Two optional observers ride on the same loop: a ``coverage`` map
  (one edge per retired control transfer) and a ``telemetry`` hub
  (retired instructions, trampoline "check" instructions, fuel).  An
  unobserved run tests one flag per single-stepped instruction for
  them and nothing else.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import EncodingError, GuestExit, VMError, VMFault, VMTimeoutError
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    CONDITION_CODES, FLAG_PREDICATES, SETCC_CONDITIONS, Opcode,
)
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import RSP, Register
from repro.vm.memory import Memory
from repro.vm.runtime_iface import RuntimeEnvironment
from repro.vm.superblock import (
    TERMINATORS, TRANSFER_OPCODES, SuperblockEngine, _signed,
)
from repro.vm.trace import TraceEngine

_M64 = (1 << 64) - 1
_SIGN = 1 << 63
_RIP = Register.RIP

class CPU:
    """One hardware thread executing guest code."""

    def __init__(self, memory: Memory, runtime: RuntimeEnvironment) -> None:
        self.memory = memory
        self.runtime = runtime
        self.regs = [0] * 17
        self.rip = 0
        self.zf = False
        self.sf = False
        self.cf = False
        self.of = False
        self.instructions_executed = 0
        self.exit_status: Optional[int] = None
        self.icache: Dict[int, Instruction] = {}
        #: The per-binary decode cache (installed by the loader; None for
        #: a bare CPU): address -> ``(code bytes, Instruction)``, shared
        #: by every run of one image.  :meth:`_decode_at` reuses an entry
        #: only while guest memory still holds exactly those bytes.
        self.decode_cache: Optional[Dict[int, tuple]] = None
        #: Optional observer: fn(address, size, is_read, is_write, instruction).
        self.access_hook = None
        #: Optional coverage collector (an object with ``edge(src, dst)``,
        #: see :mod:`repro.hunt.coverage`): :meth:`run` records one edge
        #: per retired control transfer, identically under every engine.
        #: Compiled traces record no edges, so a coverage run stays on
        #: the superblock tier and below.
        self.coverage = None
        #: Optional telemetry hub: :meth:`run` exports retired-instruction,
        #: check-execution and fuel counters to it.
        self.telemetry = None
        #: ``(start, end)`` of the ``.tramp`` segment, installed by the
        #: loader so :meth:`run` can attribute "checks executed".
        self.trampoline_span: Optional[tuple] = None
        self._dispatch = self._build_dispatch()
        #: The superblock translation cache (see :mod:`repro.vm.superblock`).
        #: Starts enabled unless an ``engine_override`` says otherwise.
        self.superblock = SuperblockEngine(self)
        #: The trace tier above it (see :mod:`repro.vm.trace`): back-edge
        #: profiling + hot-loop traces compiled to Python functions.
        self.trace = TraceEngine(self)
        #: Exception side-channel from compiled traces and the trace
        #: recorder: the exact (retired, check-instruction) counts of the
        #: partially executed trace, published just before the exception
        #: propagates so :meth:`run` accounts a mid-trace fault
        #: identically to the single-step oracle.
        self._trace_pending = 0
        self._trace_pending_checks = 0
        runtime.attach(self)

    # -- fetch/decode -------------------------------------------------------

    def _decode_at(self, address: int) -> Instruction:
        shared = self.decode_cache
        tele = self.telemetry
        if shared is not None:
            entry = shared.get(address)
            if entry is not None and self.memory.holds(address, entry[0]):
                instruction = self.icache[address] = entry[1]
                if tele is not None:
                    tele.count("vm.decodes_reused")
                return instruction
        window = self.memory.read_upto(address, 16)
        if not window:
            raise VMFault(address, f"wild fetch at {address:#x}")
        try:
            instruction = decode(window, 0, address)
        except EncodingError as error:
            # A truncated or corrupted text segment must surface as a
            # typed VM diagnosis, not a naked decoder exception.
            raise VMError(
                f"undecodable instruction at {address:#x}: {error}"
            ) from error
        self.icache[address] = instruction
        if shared is not None:
            shared[address] = (window[: instruction.length], instruction)
        if tele is not None:
            tele.count("vm.decodes")
        return instruction

    def flush_icache(self) -> None:
        """Drop all decoded instructions *and* everything built from them
        — the caches are coupled: superblock step closures capture decoded
        instructions and compiled traces bake them (plus their immediates
        and branch targets) into generated code, so a stale block or trace
        would outlive a flushed decode."""
        self.icache.clear()
        self.superblock.invalidate()
        self.trace.invalidate()

    # -- operand helpers ----------------------------------------------------------

    def effective_address(self, mem: Mem, instruction: Instruction) -> int:
        address = mem.disp
        base = mem.base
        if base is not None:
            if base is _RIP:
                address += instruction.address + instruction.length
            else:
                address += self.regs[base]
        if mem.index is not None:
            address += self.regs[mem.index] * mem.scale
        return address & _M64

    def _read_operand(self, operand, instruction: Instruction, size: int) -> int:
        if type(operand) is Reg:
            return self.regs[operand.reg]
        if type(operand) is Imm:
            return operand.value & _M64
        address = self.effective_address(operand, instruction)
        if self.access_hook is not None:
            self.access_hook(address, size, True, False, instruction)
        return self.memory.read_int(address, size)

    # -- flags --------------------------------------------------------------------

    def _set_zs(self, result: int) -> None:
        self.zf = result == 0
        self.sf = bool(result & _SIGN)

    def _flags_add(self, a: int, b: int, result: int) -> None:
        self.cf = (a + b) > _M64
        self.of = bool((~(a ^ b) & (a ^ result)) & _SIGN)
        self._set_zs(result)

    def _flags_sub(self, a: int, b: int, result: int) -> None:
        self.cf = b > a
        self.of = bool(((a ^ b) & (a ^ result)) & _SIGN)
        self._set_zs(result)

    def _flags_logic(self, result: int) -> None:
        self.cf = False
        self.of = False
        self._set_zs(result)

    def pack_flags(self) -> int:
        return (
            (1 if self.zf else 0)
            | (2 if self.sf else 0)
            | (4 if self.cf else 0)
            | (8 if self.of else 0)
        )

    def unpack_flags(self, value: int) -> None:
        self.zf = bool(value & 1)
        self.sf = bool(value & 2)
        self.cf = bool(value & 4)
        self.of = bool(value & 8)

    # -- ALU core -------------------------------------------------------------------

    def _alu(self, opcode: Opcode, a: int, b: int) -> int:
        if opcode is Opcode.ADD:
            result = (a + b) & _M64
            self._flags_add(a, b, result)
        elif opcode is Opcode.SUB:
            result = (a - b) & _M64
            self._flags_sub(a, b, result)
        elif opcode is Opcode.AND:
            result = a & b
            self._flags_logic(result)
        elif opcode is Opcode.OR:
            result = a | b
            self._flags_logic(result)
        elif opcode is Opcode.XOR:
            result = a ^ b
            self._flags_logic(result)
        elif opcode is Opcode.IMUL:
            result = (_signed(a) * _signed(b)) & _M64
            self._set_zs(result)
            self.cf = self.of = False
        elif opcode is Opcode.DIV:
            if b == 0:
                raise VMError("guest divide by zero")
            result = a // b
            self._set_zs(result)
        elif opcode is Opcode.MOD:
            if b == 0:
                raise VMError("guest modulo by zero")
            result = a % b
            self._set_zs(result)
        elif opcode is Opcode.IDIV:
            if b == 0:
                raise VMError("guest divide by zero")
            sa, sb = _signed(a), _signed(b)
            result = (abs(sa) // abs(sb)) & _M64
            if (sa < 0) != (sb < 0):
                result = (-result) & _M64
            self._set_zs(result)
        elif opcode is Opcode.IMOD:
            if b == 0:
                raise VMError("guest modulo by zero")
            sa, sb = _signed(a), _signed(b)
            result = (abs(sa) % abs(sb)) & _M64
            if sa < 0:
                result = (-result) & _M64
            self._set_zs(result)
        elif opcode is Opcode.SHL:
            result = (a << (b & 63)) & _M64
            self._set_zs(result)
        elif opcode is Opcode.SHR:
            result = a >> (b & 63)
            self._set_zs(result)
        elif opcode is Opcode.SAR:
            result = (_signed(a) >> (b & 63)) & _M64
            self._set_zs(result)
        else:  # pragma: no cover - dispatch guarantees coverage
            raise VMError(f"not an ALU opcode: {opcode!r}")
        return result

    # -- instruction handlers --------------------------------------------------------

    def _exec_mov(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        if type(dst) is Reg:
            value = self._read_operand(src, instruction, size)
            if size != 8:
                value &= (1 << (size * 8)) - 1
            self.regs[dst.reg] = value
        else:
            value = self._read_operand(src, instruction, size)
            address = self.effective_address(dst, instruction)
            if self.access_hook is not None:
                self.access_hook(address, size, False, True, instruction)
            self.memory.write_int(address, value, size)

    def _exec_movs(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        address = self.effective_address(src, instruction)
        if self.access_hook is not None:
            self.access_hook(address, size, True, False, instruction)
        self.regs[dst.reg] = self.memory.read_int(address, size, signed=True) & _M64

    def _exec_lea(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.regs[dst.reg] = self.effective_address(src, instruction)

    def _exec_alu(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        opcode = instruction.opcode
        size = instruction.size
        if type(dst) is Reg:
            a = self.regs[dst.reg]
            b = self._read_operand(src, instruction, size)
            self.regs[dst.reg] = self._alu(opcode, a, b)
        else:
            address = self.effective_address(dst, instruction)
            if self.access_hook is not None:
                self.access_hook(address, size, True, True, instruction)
            a = self.memory.read_int(address, size)
            b = self._read_operand(src, instruction, size)
            self.memory.write_int(address, self._alu(opcode, a, b), size)

    def _exec_cmp(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        a = self._read_operand(dst, instruction, size)
        b = self._read_operand(src, instruction, size)
        self._flags_sub(a, b, (a - b) & _M64)

    def _exec_test(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        a = self._read_operand(dst, instruction, 8)
        b = self._read_operand(src, instruction, 8)
        self._flags_logic(a & b)

    def _exec_not(self, instruction: Instruction) -> None:
        reg = instruction.operands[0].reg
        self.regs[reg] = (~self.regs[reg]) & _M64

    def _exec_neg(self, instruction: Instruction) -> None:
        reg = instruction.operands[0].reg
        value = self.regs[reg]
        result = (-value) & _M64
        self.regs[reg] = result
        self.cf = value != 0
        self._set_zs(result)

    def _exec_setcc(self, instruction: Instruction) -> None:
        condition = FLAG_PREDICATES[SETCC_CONDITIONS[instruction.opcode]]
        self.regs[instruction.operands[0].reg] = (
            1 if condition(self.zf, self.sf, self.cf, self.of) else 0
        )

    def _exec_push(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, self.regs[instruction.operands[0].reg], 8)

    def _exec_pop(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.regs[instruction.operands[0].reg] = self.memory.read_int(rsp, 8)
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_pushf(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, self.pack_flags(), 8)

    def _exec_popf(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.unpack_flags(self.memory.read_int(rsp, 8))
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_jmp(self, instruction: Instruction) -> None:
        self.rip = (
            instruction.address + instruction.length + instruction.operands[0].value
        ) & _M64

    def _exec_jcc(self, instruction: Instruction) -> None:
        condition = FLAG_PREDICATES[CONDITION_CODES[instruction.opcode]]
        if condition(self.zf, self.sf, self.cf, self.of):
            self.rip = (
                instruction.address + instruction.length + instruction.operands[0].value
            ) & _M64

    def _exec_call(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, instruction.address + instruction.length, 8)
        self.rip = (
            instruction.address + instruction.length + instruction.operands[0].value
        ) & _M64

    def _exec_jmpr(self, instruction: Instruction) -> None:
        self.rip = self.regs[instruction.operands[0].reg]

    def _exec_callr(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, instruction.address + instruction.length, 8)
        self.rip = self.regs[instruction.operands[0].reg]

    def _exec_ret(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.rip = self.memory.read_int(rsp, 8)
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_nop(self, instruction: Instruction) -> None:
        pass

    def _exec_trap(self, instruction: Instruction) -> None:
        self.runtime.on_trap(instruction.operands[0].value, self, instruction)

    def _exec_rtcall(self, instruction: Instruction) -> None:
        self.runtime.call(instruction.operands[0].value, self, instruction)

    def _build_dispatch(self) -> Dict[int, Callable]:
        table: Dict[int, Callable] = {
            Opcode.MOV: self._exec_mov,
            Opcode.MOVS: self._exec_movs,
            Opcode.LEA: self._exec_lea,
            Opcode.CMP: self._exec_cmp,
            Opcode.TEST: self._exec_test,
            Opcode.NOT: self._exec_not,
            Opcode.NEG: self._exec_neg,
            Opcode.PUSH: self._exec_push,
            Opcode.POP: self._exec_pop,
            Opcode.PUSHF: self._exec_pushf,
            Opcode.POPF: self._exec_popf,
            Opcode.JMP: self._exec_jmp,
            Opcode.CALL: self._exec_call,
            Opcode.JMPR: self._exec_jmpr,
            Opcode.CALLR: self._exec_callr,
            Opcode.RET: self._exec_ret,
            Opcode.NOP: self._exec_nop,
            Opcode.TRAP: self._exec_trap,
            Opcode.RTCALL: self._exec_rtcall,
        }
        for opcode in (
            Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
            Opcode.IMUL, Opcode.DIV, Opcode.MOD, Opcode.IDIV, Opcode.IMOD,
            Opcode.SHL, Opcode.SHR, Opcode.SAR,
        ):
            table[opcode] = self._exec_alu
        for opcode in CONDITION_CODES:
            table[opcode] = self._exec_jcc
        for opcode in SETCC_CONDITIONS:
            table[opcode] = self._exec_setcc
        return table

    # -- run loop ---------------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction."""
        rip = self.rip
        instruction = self.icache.get(rip)
        if instruction is None:
            instruction = self._decode_at(rip)
        self.rip = rip + instruction.length
        self._dispatch[instruction.opcode](instruction)
        self.instructions_executed += 1

    def run(self, max_instructions: int = 2_000_000_000) -> int:
        """Run until the guest exits; returns the exit status.

        ``max_instructions`` is the watchdog *fuel* budget: a guest that
        retires that many instructions without exiting is presumed hung
        and terminated with :class:`VMTimeoutError` (a deterministic
        stand-in for a wall-clock timeout).  Faults and memory errors
        propagate as their own :class:`VMError` subclasses.

        This is the VM's only run loop.  It decides once, at entry,
        which tiers run: the fast tiers (traces above superblocks, see
        :mod:`repro.vm.trace` / superblock) only without a DBI
        ``access_hook``, which specialized closures and compiled traces
        would bypass, and traces only without a coverage map, because
        compiled traces record no edges.  Each iteration tries the trace
        tier, then the superblock tier, then the single-step branch —
        the semantics oracle, the same fetch/dispatch/retire as
        :meth:`step` — which also runs whatever a tier cannot: a block
        start's first visit (``cold``, up to its terminator; the start
        is translated when it is reached again), a block or trace
        iteration that would overrun the fuel (so the watchdog fires at
        the same instruction under every engine), and the rest of the
        run once a tier degrades (DESIGN.md §5f, §9).  Mid-block
        and mid-trace exceptions account exactly the instructions that
        retired, via :meth:`Superblock.retired_before` and
        ``_trace_pending``.

        The observers — coverage edges, one per retired control
        transfer, and the telemetry counters: retired instructions,
        instructions retired in the ``.tramp`` segment ("checks
        executed") and fuel — sit behind one ``observed`` test.  A
        block's only transfer is its last instruction and no block
        straddles the trampoline boundary, so they see exactly what
        single-stepping would show them.
        """
        tele = self.telemetry
        coverage = self.coverage
        edge = coverage.edge if coverage is not None else None
        engine = self.superblock
        tengine = self.trace
        fast = engine.enabled and self.access_hook is None
        use_traces = fast and tengine.enabled and coverage is None
        observed = tele is not None or coverage is not None
        span = self.trampoline_span
        tramp_start, tramp_end = span if span is not None else (0, 0)
        cache = engine.cache
        visited = engine.visited
        cold = False  # single-stepping a block start's first visit
        traces = tengine.traces
        icache = self.icache
        dispatch = self._dispatch
        regs = self.regs
        read_int = self.memory.read_int
        write_int = self.memory.write_int
        executed = 0
        checks = 0
        try:
            while executed < max_instructions:
                rip = self.rip
                if fast and not cold:
                    if use_traces:
                        trace = traces.get(rip)
                        if (trace is not None
                                and executed + trace.length <= max_instructions):
                            try:
                                retired, trace_checks = trace.fn(
                                    self, regs, read_int, write_int,
                                    max_instructions - executed,
                                )
                            except BaseException:
                                executed += self._trace_pending
                                checks += self._trace_pending_checks
                                raise
                            executed += retired
                            checks += trace_checks
                            continue
                    block = cache.get(rip)
                    if block is None:
                        if rip in visited:
                            block = engine.translate(rip)
                            if block is None:
                                fast = False  # engine degraded mid-run
                        else:
                            visited.add(rip)
                            cold = True
                    if (block is not None
                            and executed + block.length <= max_instructions):
                        try:
                            for next_rip, fn, arg in block.steps:
                                self.rip = next_rip
                                fn(arg)
                        except BaseException:
                            retired = block.retired_before(self.rip)
                            executed += retired
                            if block.in_trampoline:
                                # The raising step was dispatched too.
                                checks += retired + 1
                            raise
                        executed += block.length
                        if observed:
                            if block.in_trampoline:
                                checks += block.length
                            if edge is not None and block.last_transfer is not None:
                                edge(block.last_transfer, self.rip)
                        if use_traces:
                            last = block.last_transfer
                            if (last is not None and self.rip <= last
                                    and tengine.hot(self.rip)):
                                try:
                                    retired, trace_checks = tengine.record(
                                        self.rip, max_instructions - executed
                                    )
                                except BaseException:
                                    executed += self._trace_pending
                                    checks += self._trace_pending_checks
                                    raise
                                executed += retired
                                checks += trace_checks
                        continue
                instruction = icache.get(rip)
                if instruction is None:
                    instruction = self._decode_at(rip)
                self.rip = rip + instruction.length
                try:
                    dispatch[instruction.opcode](instruction)
                except BaseException:
                    if tramp_start <= rip < tramp_end:
                        checks += 1  # the raising check was dispatched
                    raise
                executed += 1
                if cold and instruction.opcode in TERMINATORS:
                    cold = False
                if observed:
                    if tramp_start <= rip < tramp_end:
                        checks += 1
                    if edge is not None and instruction.opcode in TRANSFER_OPCODES:
                        edge(rip, self.rip)
        except GuestExit as exit_signal:
            executed += 1  # the exiting rtcall did retire
            self.exit_status = exit_signal.status
            return exit_signal.status
        finally:
            self.instructions_executed += executed
            if tele is not None:
                tele.count("vm.instructions_retired", executed)
                tele.count("vm.checks_executed", checks)
                tele.count("vm.fuel_consumed", executed)
                tele.gauge("vm.fuel_budget", max_instructions)
        if tele is not None:
            tele.event("vm_timeout", fuel=max_instructions)
        raise VMTimeoutError(max_instructions)
