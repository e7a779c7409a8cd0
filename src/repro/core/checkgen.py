"""Check code generation: paper Fig. 4 lowered to real ISA instructions.

For every :class:`~repro.core.merging.AccessRange` the generator emits:

1. ``LB`` computation from the (possibly merged) memory operand;
2. the low-fat ``base(ptr)`` computation — region index via ``shr 35``,
   class size via one load from the embedded SIZES table, base via
   ``ptr - ptr % size`` — with the (Redzone) fallback through ``LB`` when
   ``ptr`` is non-fat (Fig. 4 step 2);
3. the metadata load from the redzone (``SIZE``, with ``SIZE == 0`` ⇔
   Free under the merged state encoding);
4. optional metadata hardening (``SIZE`` vs. the immutable class size);
5. the bounds checks — either the three-branch form of Fig. 4, or, under
   ``merge``, the single-branch u32-underflow form of §4.2 ("Mergeable
   code").

Trampoline entry/exit cost is borne here too: flags and scratch registers
are saved/restored unless the register-usage analysis proves them dead
(``specialize_registers``).  Position-independent binaries address the
SIZES table rip-relatively; position-dependent ones use an absolute
operand — the generated binary stays as position-(in)dependent as its
input.

Every ``trap`` is tagged with the representative original site address so
the runtime can attribute errors precisely even through batching/merging.

Given a template table, the generator assembles each check shape once:
a range check's bytes depend only on its :func:`template_key`, so the
first check of a shape is assembled at address 0 into an
:class:`~repro.isa.assembler.Encoded` block and every check of that
shape (the first included) is stamped from it with its own site tag.
The rewriter places the block, re-derives its PIC displacement and
records its tags.  Reuse is exact: the key holds every input of
:meth:`CheckGenerator._range_check` except the site, which only tags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import AssemblyError
from repro.isa.assembler import Encoded, Item, prebuild
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import RSP, Register
from repro.layout import MAX_REGIONS, REDZONE_SIZE, REGION_SHIFT, SIZES_TABLE_ADDR
from repro.vm.runtime_iface import TrapCode
from repro.core.merging import AccessRange
from repro.core.options import RedFatOptions

_REGION_MASK = MAX_REGIONS - 1


@dataclass
class CheckContext:
    """Per-group facts the generator needs."""

    options: RedFatOptions
    scratch: Sequence[Register]  # exactly four registers
    save_registers: Sequence[Register]  # subset of scratch needing save
    save_flags: bool
    pic: bool = False
    sizes_table: int = SIZES_TABLE_ADDR

    @property
    def push_count(self) -> int:
        return len(self.save_registers) + (1 if self.save_flags else 0)


def _ins(opcode: Opcode, *operands, size: int = 8, **kw) -> Instruction:
    return Instruction(opcode, tuple(operands), size=size, **kw)


class CheckGenerator:
    """Generates prologue + per-range checks + epilogue for one group.

    *templates*, when given, is the shape -> :class:`Encoded` table the
    range checks are stamped from (see the module docstring); its owner
    scopes it (the tool keeps one per ``instrument`` call).  Without it,
    every check comes out as plain instructions and labels.
    """

    def __init__(
        self, context: CheckContext, templates: Optional[Dict[tuple, Encoded]] = None
    ) -> None:
        self.context = context
        self.templates = templates
        if len(context.scratch) != 4:
            raise ValueError("check generation needs exactly 4 scratch registers")

    # -- public ------------------------------------------------------------

    def generate(self, ranges: List[AccessRange], group_head: int) -> List[Item]:
        items: List[Item] = []
        items += self._prologue()
        for index, access_range in enumerate(ranges):
            items += self._stamped_check(access_range, f"c{group_head:x}_{index}")
        items += self._epilogue()
        return items

    def template_key(self, access_range: AccessRange) -> tuple:
        """Everything :meth:`_range_check` reads, except the site."""
        context = self.context
        options = context.options
        return (
            tuple(context.scratch), context.push_count, context.pic,
            context.sizes_table, options.size_hardening, options.merge,
            access_range.use_lowfat and access_range.base is not None,
            access_range.base, access_range.index, access_range.scale,
            access_range.disp, access_range.length,
        )

    def _stamped_check(self, access_range: AccessRange, prefix: str) -> List[Item]:
        """The range check, as one block stamped from its shape's template.

        A shape whose check fails to assemble gets no template: its plain
        items go to the rewriter, whose assembly fails on them exactly as
        it would without templates.
        """
        if self.templates is None:
            return self._range_check(access_range, prefix)
        key = self.template_key(access_range)
        template = self.templates.get(key)
        if template is None:
            items = self._range_check(access_range, prefix)
            try:
                template = prebuild(items)
            except AssemblyError:
                return items
            self.templates[key] = template
        site = access_range.representative_site
        tags = tuple((offset, site) for offset, _ in template.tags)
        return [replace(template, tags=tags)]

    # -- prologue / epilogue ---------------------------------------------------

    def _prologue(self) -> List[Item]:
        items: List[Item] = []
        if self.context.save_flags:
            items.append(_ins(Opcode.PUSHF))
        for register in self.context.save_registers:
            items.append(_ins(Opcode.PUSH, Reg(register)))
        return items

    def _epilogue(self) -> List[Item]:
        items: List[Item] = []
        for register in reversed(self.context.save_registers):
            items.append(_ins(Opcode.POP, Reg(register)))
        if self.context.save_flags:
            items.append(_ins(Opcode.POPF))
        return items

    # -- helpers -----------------------------------------------------------------

    def _adjusted_operand(self, access_range: AccessRange) -> Mem:
        """The range's operand, with rsp displacement compensated.

        The prologue's pushes move the stack pointer down by
        ``8 * push_count``; an rsp-based operand evaluated inside the
        trampoline must add that delta back.
        """
        disp = access_range.disp
        if access_range.base is RSP:
            disp += 8 * self.context.push_count
        return Mem(disp, access_range.base, access_range.index, access_range.scale)

    def _pointer_items(self, destination: Register, base: Register) -> List[Item]:
        """Materialise the original value of *base* into *destination*."""
        if base is RSP:
            return [_ins(Opcode.LEA, Reg(destination),
                         Mem(8 * self.context.push_count, RSP))]
        return [_ins(Opcode.MOV, Reg(destination), Reg(base))]

    def _table_lookup(self, value_reg: Register, table_reg: Register) -> List[Item]:
        """``value_reg = SIZES[value_reg >> 35 & mask]`` (clobbers table_reg on PIC)."""
        items = [
            _ins(Opcode.SHR, Reg(value_reg), Imm(REGION_SHIFT)),
            _ins(Opcode.AND, Reg(value_reg), Imm(_REGION_MASK)),
        ]
        if self.context.pic:
            items.append(
                _ins(Opcode.LEA, Reg(table_reg), Mem(0, Register.RIP),
                     abs_target=self.context.sizes_table)
            )
            items.append(
                _ins(Opcode.MOV, Reg(value_reg), Mem(0, table_reg, value_reg, 8))
            )
        else:
            items.append(
                _ins(Opcode.MOV, Reg(value_reg),
                     Mem(self.context.sizes_table, None, value_reg, 8))
            )
        return items

    def _trap(self, code: TrapCode, site: int, done: str) -> List[Item]:
        """A tagged trap that (in log mode) skips the rest of the check."""
        return [
            _ins(Opcode.TRAP, Imm(int(code)), tag=site),
            _ins(Opcode.JMP, Label(done)),
        ]

    # -- the check itself ------------------------------------------------------------

    def _range_check(self, access_range: AccessRange, prefix: str) -> List[Item]:
        t0, t1, t2, t3 = self.context.scratch
        options = self.context.options
        site = access_range.representative_site
        done = f"{prefix}_done"
        use_lowfat = access_range.use_lowfat and access_range.base is not None

        items: List[Item] = []
        # STEP 1: LB into t0.
        items.append(_ins(Opcode.LEA, Reg(t0), self._adjusted_operand(access_range)))

        # STEP 2: candidate pointer into t1, class size into t2.
        if use_lowfat:
            items += self._pointer_items(t1, access_range.base)
        else:
            items.append(_ins(Opcode.MOV, Reg(t1), Reg(t0)))
        items.append(_ins(Opcode.MOV, Reg(t2), Reg(t1)))
        items += self._table_lookup(t2, t3)
        items.append(_ins(Opcode.TEST, Reg(t2), Reg(t2)))
        if use_lowfat:
            fat = f"{prefix}_fat"
            items.append(_ins(Opcode.JNE, Label(fat)))
            # (Redzone) fallback: the pointer is non-fat; derive the base
            # from the accessed address instead (Fig. 4 lines 13-14).
            items.append(_ins(Opcode.MOV, Reg(t1), Reg(t0)))
            items.append(_ins(Opcode.MOV, Reg(t2), Reg(t1)))
            items += self._table_lookup(t2, t3)
            items.append(_ins(Opcode.TEST, Reg(t2), Reg(t2)))
            items.append(_ins(Opcode.JE, Label(done)))
            items.append(Label(fat))
        else:
            items.append(_ins(Opcode.JE, Label(done)))

        # t1 = BASE = ptr - ptr % class_size.
        items.append(_ins(Opcode.MOV, Reg(t3), Reg(t1)))
        items.append(_ins(Opcode.MOD, Reg(t3), Reg(t2)))
        items.append(_ins(Opcode.SUB, Reg(t1), Reg(t3)))

        # STEP 3: metadata SIZE into t3 (SIZE == 0 means Free).
        items.append(_ins(Opcode.MOV, Reg(t3), Mem(0, t1)))

        # STEP 4a: metadata hardening (Fig. 4 lines 23-24).
        if options.size_hardening:
            size_ok = f"{prefix}_szok"
            items.append(_ins(Opcode.SUB, Reg(t2), Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.CMP, Reg(t3), Reg(t2)))
            items.append(_ins(Opcode.JBE, Label(size_ok)))
            items += self._trap(TrapCode.METADATA, site, done)
            items.append(Label(size_ok))

        if options.merge:
            # STEP 4b (merged): single-branch bounds via u32 underflow.
            items.append(_ins(Opcode.ADD, Reg(t1), Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.SUB, Reg(t0), Reg(t1)))
            items.append(_ins(Opcode.MOV, Reg(t0), Reg(t0), size=4))
            items.append(_ins(Opcode.ADD, Reg(t0), Imm(access_range.length)))
            items.append(_ins(Opcode.CMP, Reg(t0), Reg(t3)))
            items.append(_ins(Opcode.JBE, Label(done)))
            items += self._trap(TrapCode.OOB_UPPER, site, done)
        else:
            # STEP 4b (separate branches, as written in Fig. 4).
            live = f"{prefix}_live"
            items.append(_ins(Opcode.TEST, Reg(t3), Reg(t3)))
            items.append(_ins(Opcode.JNE, Label(live)))
            items += self._trap(TrapCode.USE_AFTER_FREE, site, done)
            items.append(Label(live))
            lb_ok = f"{prefix}_lbok"
            items.append(_ins(Opcode.ADD, Reg(t1), Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.CMP, Reg(t0), Reg(t1)))
            items.append(_ins(Opcode.JAE, Label(lb_ok)))
            items += self._trap(TrapCode.OOB_LOWER, site, done)
            items.append(Label(lb_ok))
            items.append(_ins(Opcode.ADD, Reg(t1), Reg(t3)))
            items.append(_ins(Opcode.ADD, Reg(t0), Imm(access_range.length)))
            items.append(_ins(Opcode.CMP, Reg(t0), Reg(t1)))
            items.append(_ins(Opcode.JBE, Label(done)))
            items += self._trap(TrapCode.OOB_UPPER, site, done)
        items.append(Label(done))
        return items
