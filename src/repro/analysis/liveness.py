"""Global (inter-block) register + flags liveness.

Backward dataflow over :class:`BlockGraph`: a register is *live* at a
point when some path from that point may read it before writing it.
Trampoline specialization (``rewriter/regusage.py``) historically
assumed everything live at every block boundary; this analysis replaces
that assumption with the join over real successors, so straight-line
code feeding a register-recycling loop stops paying save/restore pairs.

Conservatism at the unknown edges of the recovered CFG:

- a ``ret``-, ``call``-, ``callr``- or ``rtcall``-terminated block makes
  every register live at its exit (the callee/caller may read anything)
  but the flags **dead** — the ABI forbids relying on flags across
  call/return boundaries (the same rule ``regusage.dead_after`` already
  applies locally);
- an indirect jump's exit facts join over *all* recovered target blocks
  (the edge set over-approximates by construction);
- a ``trap``-terminated block has nothing live (execution ends);
- a *leaky* block (a transfer out of the decoded text) and a block the
  decoded text simply falls off keep everything live.

The live set is a frozenset of :class:`Register` members plus the
:data:`FLAGS` sentinel.  Every effective live-out computed here is a
subset of the all-live assumption, so specialization driven by this
analysis can only save more, never fewer, spills than the block-local
rule.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import CONDITIONAL_JUMPS, Opcode, SETCC_CONDITIONS
from repro.isa.registers import GPRS, Register
from repro.analysis.graph import BlockGraph
from repro.analysis import solver

#: Sentinel member of the live set standing for the flags register.
FLAGS = "FLAGS"

#: Every register live, flags live: the unknown-control conservative top.
ALL_LIVE: FrozenSet = frozenset(GPRS) | {FLAGS}

#: Every register live, flags dead: the call/return ABI boundary.
ALL_REGS_LIVE: FrozenSet = frozenset(GPRS)

#: Block terminators that hand control to ABI-respecting code.
_ABI_BOUNDARY = (Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.RTCALL)


def reads_flags(instruction: Instruction) -> bool:
    """True when the instruction consumes CPU flags (jcc/setcc/adc-like)."""
    return (
        instruction.opcode in CONDITIONAL_JUMPS
        or instruction.opcode in SETCC_CONDITIONS
        or instruction.opcode is Opcode.PUSHF
    )


def step_backward(live: FrozenSet, instruction: Instruction) -> FrozenSet:
    """Live set *before* executing *instruction*, given the set after."""
    updated = set(live)
    for register in instruction.regs_written():
        updated.discard(register)
    if instruction.writes_flags() or instruction.opcode is Opcode.POPF:
        updated.discard(FLAGS)
    updated.update(instruction.regs_read())
    if reads_flags(instruction):
        updated.add(FLAGS)
    return frozenset(updated)


def effective_exit(graph: BlockGraph, node: int, successor_fact: FrozenSet) -> FrozenSet:
    """A block's live-out given the join of its successors' live-ins."""
    block = graph.block_at(node)
    last = block.instructions[-1]
    if node in graph.leaky:
        return ALL_LIVE
    if last.opcode is Opcode.TRAP:
        return frozenset()
    if last.opcode in _ABI_BOUNDARY:
        # Callee/caller may read any register; flags never survive.
        return ALL_REGS_LIVE | (successor_fact - {FLAGS})
    if not graph.succs.get(node):
        return ALL_LIVE  # the decoded text just ends here
    return successor_fact


def compute_live_out(graph: BlockGraph) -> Dict[int, FrozenSet]:
    """Effective live-out set per block start address."""

    def transfer(node: int, successor_fact: FrozenSet) -> FrozenSet:
        """Backward block transfer: fold every instruction's kill/gen
        over the live-out set to produce the block's live-in set."""
        live = effective_exit(graph, node, successor_fact)
        for instruction in reversed(graph.block_at(node).instructions):
            live = step_backward(live, instruction)
        return live

    # Backward roots: sink blocks (ret/trap/leaky/decoded-end) — nothing
    # propagates into them, so they must seed the worklist themselves.
    roots = [
        block.start for block in graph.blocks
        if not graph.succs.get(block.start)
    ]
    facts = solver.solve(
        graph,
        direction="backward",
        boundary=frozenset(),
        transfer=transfer,
        join=lambda a, b: a | b,
        roots=roots,
    )
    return {
        block.start: effective_exit(
            graph, block.start, facts.get(block.start, ALL_LIVE)
        )
        for block in graph.blocks
    }


def live_sets_within(block_instructions: List[Instruction],
                     live_out: FrozenSet) -> List[FrozenSet]:
    """Live set *before* each instruction of a block, front to back."""
    sets: List[FrozenSet] = [frozenset()] * len(block_instructions)
    live = live_out
    for index in range(len(block_instructions) - 1, -1, -1):
        live = step_backward(live, block_instructions[index])
        sets[index] = live
    return sets


def dead_at(block_instructions: List[Instruction], index: int,
            live_out: FrozenSet) -> Tuple[FrozenSet, bool]:
    """``(dead registers, flags dead)`` before *index*, in one walk.

    The registers are those a trampoline entered before *index* may
    clobber: equivalent to ``regusage.dead_after`` when *live_out* is
    :data:`ALL_LIVE`; with a real live-out it additionally reports
    registers the suffix never mentions and no successor reads.
    """
    live = live_out
    for position in range(len(block_instructions) - 1, index - 1, -1):
        live = step_backward(live, block_instructions[position])
    dead = set(GPRS) - {r for r in live if isinstance(r, Register)}
    dead.discard(Register.RSP)
    return frozenset(dead), FLAGS not in live
