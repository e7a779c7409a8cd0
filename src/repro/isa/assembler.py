"""Two-pass assembler: instruction streams (or text) -> bytes.

Operand order is destination-first throughout the library (``mov %rax, $5``
sets rax to 5) while operand *syntax* is AT&T-style.  Labels may appear as
jump/call targets and are resolved to rel32 displacements during layout;
every other instruction has a value-determined length, so a single sizing
pass suffices before resolution.  The sizing pass keeps the bytes it
produces: only label jumps and ``abs_target`` fixups are encoded again.

Besides labels and instructions, a stream may hold :class:`Encoded`
items: machine code assembled once (by :func:`prebuild`) and placed as a
unit, with its rip-relative/rel32 fixups re-derived for where it lands.
The check generator stamps every check of one shape from one such block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import AssemblyError, EncodingError
from repro.isa.encoding import INT32_RANGE, JUMP_LEN, encode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import JUMP_OPCODES, Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import Register


@dataclass(eq=False)
class Encoded:
    """Machine code assembled at address 0, placed as one assembler item.

    ``data`` is position independent except for ``fixups``: each
    ``(offset, end, target)`` is a 4-byte displacement at
    ``data[offset:offset + 4]`` of the instruction ending at ``end``,
    rewritten on placement so that the instruction reaches absolute
    ``target`` (a rip-relative operand or a direct jump, exactly what
    ``Instruction.abs_target`` does).  ``tags`` are ``(offset, tag)``
    pairs: the instruction at ``offset`` carries ``tag`` into rewrite
    metadata, as ``Instruction.tag`` does.  ``address`` is set by the
    assembler.
    """

    data: bytes
    fixups: Tuple[Tuple[int, int, int], ...] = ()
    tags: Tuple[Tuple[int, object], ...] = ()
    address: int = 0

    @property
    def length(self) -> int:
        return len(self.data)

    def placed(self) -> bytes:
        """``data`` with every fixup resolved for ``address``."""
        if not self.fixups:
            return self.data
        out = bytearray(self.data)
        for offset, end, target in self.fixups:
            disp = target - (self.address + end)
            if not INT32_RANGE[0] <= disp <= INT32_RANGE[1]:
                raise AssemblyError(
                    f"fixup at {self.address + offset:#x} to {target:#x} "
                    "exceeds 32 bits"
                )
            out[offset : offset + 4] = disp.to_bytes(4, "little", signed=True)
        return bytes(out)


#: Items accepted by the assembler: label definitions, instructions or
#: pre-encoded blocks.
Item = Union[Label, Instruction, Encoded]

#: Encode memo: ``(opcode, operands, size) -> bytes`` (see :func:`assemble`).
Memo = Dict[tuple, bytes]

_SIZE_SUFFIXES = {"b": 1, "w": 2, "l": 4, "q": 8}


class Assembler:
    """Accumulates instructions and label definitions, then assembles.

    Example::

        asm = Assembler()
        asm.emit(Opcode.MOV, Reg(RAX), Imm(0))
        asm.label("loop")
        asm.emit(Opcode.ADD, Reg(RAX), Imm(1))
        asm.emit(Opcode.CMP, Reg(RAX), Imm(10))
        asm.emit(Opcode.JNE, Label("loop"))
        code = asm.assemble(base_address=0x400000)
    """

    def __init__(self) -> None:
        self.items: List[Item] = []
        self._label_names: set = set()

    def label(self, name: str) -> None:
        if name in self._label_names:
            raise AssemblyError(f"duplicate label {name!r}")
        self._label_names.add(name)
        self.items.append(Label(name))

    def emit(self, opcode: Opcode, *operands, size: int = 8) -> Instruction:
        instruction = Instruction(opcode, tuple(operands), size=size)
        self.items.append(instruction)
        return instruction

    def extend(self, items: Iterable[Item]) -> None:
        for item in items:
            if isinstance(item, Label):
                self.label(item.name)
            else:
                self.items.append(item)

    def assemble(self, base_address: int = 0) -> bytes:
        return assemble(self.items, base_address)


def _encode(item: Instruction, memo: Optional[Memo]) -> bytes:
    """Encode *item* (setting its length), through *memo* when given.

    Only instructions whose bytes cannot depend on layout are memoised:
    never a jump, never one with an ``abs_target``.  Errors are raised
    on every call, never stored.
    """
    cacheable = memo is not None and item.abs_target is None
    if cacheable:
        key = (item.opcode, item.operands, item.size)
        raw = memo.get(key)
        if raw is not None:
            item.length = len(raw)
            return raw
    try:
        raw = encode(item)
    except EncodingError as exc:
        raise AssemblyError(str(exc)) from exc
    if cacheable:
        memo[key] = raw
    return raw


def _sizing_pass(
    items: Sequence[Item], base_address: int, memo: Optional[Memo]
) -> Tuple[dict, List[Optional[bytes]]]:
    """Assign addresses to every item.

    Returns the label table and, per item, its final bytes — or None
    where layout decides them (labels, jumps, fixups).
    """
    labels = {}
    encoded: List[Optional[bytes]] = []
    address = base_address
    for item in items:
        raw = None
        if isinstance(item, Label):
            if item.name in labels:
                raise AssemblyError(f"duplicate label {item.name!r}")
            labels[item.name] = address
            encoded.append(raw)
            continue
        item.address = address
        if isinstance(item, Encoded):
            if not item.fixups:
                raw = item.data
        elif item.opcode in JUMP_OPCODES:
            item.length = JUMP_LEN
        else:
            raw = _encode(item, memo)  # sets .length
            if item.abs_target is not None:
                raw = None
        encoded.append(raw)
        address += item.length
    return labels, encoded


def assemble(
    items: Sequence[Item], base_address: int = 0, memo: Optional[Memo] = None
) -> bytes:
    """Assemble *items* into bytes loaded at *base_address*.

    Jump/call operands that are :class:`Label` are replaced (in place) by
    resolved rel32 immediates; instruction ``address``/``length`` fields
    are filled in.  *memo*, when given, maps ``(opcode, operands, size)``
    to bytes across calls; callers scope it (the rewriter keeps one per
    rewrite).
    """
    labels, encoded = _sizing_pass(items, base_address, memo)
    output = bytearray()
    for item, raw in zip(items, encoded):
        if raw is not None:
            output += raw
            continue
        if isinstance(item, Label):
            continue
        if isinstance(item, Encoded):
            output += item.placed()
            continue
        if item.abs_target is not None:
            _apply_abs_target(item)
        if item.opcode in JUMP_OPCODES and isinstance(item.operands[0], Label):
            name = item.operands[0].name
            if name not in labels:
                raise AssemblyError(f"undefined label {name!r}")
            rel = labels[name] - (item.address + JUMP_LEN)
            item.operands = (Imm(rel),)
        output += _encode(item, None)
    return bytes(output)


def prebuild(items: Sequence[Item]) -> Encoded:
    """Assemble *items* once, at address 0, into an :class:`Encoded` block.

    Label jumps inside *items* move with the block, so their rel32 stays
    valid wherever it is placed; every ``abs_target`` becomes a fixup and
    every tagged instruction a tag offset.  Raises :class:`AssemblyError`
    exactly as :func:`assemble` would.
    """
    data = assemble(items, 0)
    fixups = []
    tags = []
    for item in items:
        if not isinstance(item, Instruction):
            continue
        if item.tag is not None:
            tags.append((item.address, item.tag))
        if item.abs_target is not None:
            end = item.address + item.length
            fixups.append((item.address + _disp32_offset(item), end, item.abs_target))
    return Encoded(data, tuple(fixups), tuple(tags))


def _disp32_offset(item: Instruction) -> int:
    """Offset of the displacement an ``abs_target`` fixup rewrites.

    A direct jump is ``[opcode][rel32]``.  A rip-relative memory operand
    encodes as a flags byte and a disp32 (no register byte), after the
    opcode, the form byte and one register byte per preceding register
    operand (immediates never precede a memory operand).
    """
    if item.opcode in JUMP_OPCODES:
        return 1
    offset = 2
    for operand in item.operands:
        if isinstance(operand, Mem):
            return offset + 1
        offset += 1
    raise AssemblyError(f"abs_target set on {item!r} without a displacement")


def _apply_abs_target(item: Instruction) -> None:
    """Resolve an absolute-address fixup now that layout is known.

    Direct jumps get their rel32 recomputed; rip-relative memory operands
    get their displacement recomputed.  Both encodings have layout-stable
    lengths (jumps are always 5 bytes; rip-relative displacements always
    encode as disp32), so fixups never perturb the sizing pass.
    """
    target = item.abs_target
    if item.opcode in JUMP_OPCODES:
        item.operands = (Imm(target - (item.address + JUMP_LEN)),)
        return
    new_operands = []
    fixed = False
    for operand in item.operands:
        if isinstance(operand, Mem) and operand.is_rip_relative:
            new_disp = target - (item.address + item.length)
            new_operands.append(operand.with_disp(new_disp))
            fixed = True
        else:
            new_operands.append(operand)
    if not fixed:
        raise AssemblyError(
            f"abs_target set on {item!r} which is neither a direct jump "
            "nor rip-relative"
        )
    item.operands = tuple(new_operands)


# ---------------------------------------------------------------------------
# Text parsing.
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^([.\w$@]+):$")
_MEM_RE = re.compile(
    r"^(?P<disp>[+-]?(?:0x[0-9a-fA-F]+|\d+))?"
    r"\((?P<inner>[^)]*)\)$"
)


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"invalid integer {text!r}") from None


def _parse_operand(text: str) -> object:
    text = text.strip()
    if not text:
        raise AssemblyError("empty operand")
    if text.startswith("$"):
        return Imm(_parse_int(text[1:]))
    if text.startswith("%"):
        try:
            return Reg(Register.from_name(text))
        except ValueError as exc:
            raise AssemblyError(str(exc)) from exc
    match = _MEM_RE.match(text)
    if match:
        disp = _parse_int(match.group("disp")) if match.group("disp") else 0
        inner = match.group("inner").strip()
        base = index = None
        scale = 1
        if inner:
            pieces = [piece.strip() for piece in inner.split(",")]
            if pieces[0]:
                base = Register.from_name(pieces[0])
            if len(pieces) >= 2 and pieces[1]:
                index = Register.from_name(pieces[1])
            if len(pieces) == 3 and pieces[2]:
                scale = _parse_int(pieces[2])
            if len(pieces) > 3:
                raise AssemblyError(f"malformed memory operand {text!r}")
        try:
            return Mem(disp, base, index, scale)
        except ValueError as exc:
            raise AssemblyError(str(exc)) from exc
    # Bare displacement (absolute memory operand) e.g. 0x601000.
    if re.match(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$", text):
        return Mem(_parse_int(text))
    # Otherwise: a label reference.
    return Label(text)


def _parse_mnemonic(word: str) -> Tuple[Opcode, int]:
    upper = word.upper()
    if upper in Opcode.__members__:
        return Opcode[upper], 8
    if word and word[-1] in _SIZE_SUFFIXES:
        stem = word[:-1].upper()
        if stem in Opcode.__members__:
            return Opcode[stem], _SIZE_SUFFIXES[word[-1]]
    raise AssemblyError(f"unknown mnemonic {word!r}")


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas not inside parentheses."""
    parts = []
    depth = 0
    current = ""
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return parts


def parse(text: str) -> List[Item]:
    """Parse assembly text into an item list (labels + instructions)."""
    items: List[Item] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            items.append(Label(label_match.group(1)))
            continue
        pieces = line.split(None, 1)
        opcode, size = _parse_mnemonic(pieces[0])
        operands: tuple = ()
        if len(pieces) == 2:
            operands = tuple(_parse_operand(part) for part in _split_operands(pieces[1]))
        items.append(Instruction(opcode, operands, size=size))
    return items


def assemble_text(text: str, base_address: int = 0) -> bytes:
    """Parse and assemble assembly *text*."""
    return assemble(parse(text), base_address)
