"""Static register/flags usage analysis for trampoline specialization.

The generated check code needs scratch registers and clobbers the flags.
Saving and restoring them costs 2 instructions each per trampoline entry,
so the paper specializes trampolines by a "simple static analysis to
determine which registers (if any) are clobbered" after the patch point.

The analysis here is a block-local backward-free scan: a register is dead
at a site if, on the straight-line suffix of its basic block, it is
written before it is ever read.  At the block boundary everything is
conservatively assumed live, except across call/ret terminators where the
ABI makes the flags dead.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    CONDITIONAL_JUMPS,
    Opcode,
    SETCC_CONDITIONS,
)
from repro.isa.registers import GPRS, RSP, Register


def _reads_flags(instruction: Instruction) -> bool:
    return (
        instruction.opcode in CONDITIONAL_JUMPS
        or instruction.opcode in SETCC_CONDITIONS
        or instruction.opcode is Opcode.PUSHF
    )


def dead_after(
    block: List[Instruction], index: int
) -> Tuple[FrozenSet[Register], bool]:
    """``(dead registers, flags dead)`` for a trampoline entered at *index*.

    ``block[index:]`` is the straight-line suffix that will execute after
    the trampoline returns (starting with the displaced instruction
    itself, which still reads its own operands).  A register is dead if
    the suffix writes it before reading it.  The flags are dead if the
    suffix overwrites them before reading them, or, when it does
    neither, if it ends in a call/ret (the ABI treats flags as
    clobbered); ending in a plain jump is conservatively flags-live.
    One backward-free walk answers both.
    """
    suffix = block[index:]
    live: set = set()
    dead: set = set()
    flags_dead = None
    for instruction in suffix:
        for register in instruction.regs_read():
            if register not in dead:
                live.add(register)
        for register in instruction.regs_written():
            if register not in live:
                dead.add(register)
        if flags_dead is None:
            if _reads_flags(instruction):
                flags_dead = False
            elif instruction.writes_flags() or instruction.opcode is Opcode.POPF:
                flags_dead = True
    if flags_dead is None:
        # The suffix neither reads nor writes the flags: the verdict rests
        # on its own terminator, not the whole block's (``block[-1]``
        # would look past a mid-block *index* into instructions already
        # handled above).
        flags_dead = bool(suffix) and suffix[-1].opcode in (
            Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.RTCALL
        )
    dead.discard(RSP)  # the stack pointer is never scratch material
    return frozenset(dead), flags_dead


def pick_scratch_registers(
    forbidden: FrozenSet[Register],
    dead: FrozenSet[Register],
    count: int,
) -> List[Register]:
    """Choose *count* scratch registers, preferring dead ones.

    Returns registers ordered dead-first so callers can tell how many
    need save/restore; raises ValueError when the operand registers of a
    group leave fewer than *count* candidates (callers then split the
    group).
    """
    candidates = [reg for reg in GPRS if reg is not RSP and reg not in forbidden]
    ordered = [reg for reg in candidates if reg in dead] + [
        reg for reg in candidates if reg not in dead
    ]
    if len(ordered) < count:
        raise ValueError(
            f"cannot find {count} scratch registers (forbidden: {sorted(forbidden)})"
        )
    return ordered[:count]
