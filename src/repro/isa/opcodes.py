"""Opcode definitions and per-opcode static metadata.

The metadata tables drive the encoder (which operand forms are legal),
the VM dispatch, and the static analyses (control flow, memory access,
register usage).
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """All instruction opcodes; the integer value is the encoding byte."""

    # Data movement ------------------------------------------------------
    MOV = 0x01
    MOVS = 0x02  # sign-extending load (mov with size < 8 zero-extends)
    LEA = 0x03
    # ALU -----------------------------------------------------------------
    ADD = 0x10
    SUB = 0x11
    AND = 0x12
    OR = 0x13
    XOR = 0x14
    IMUL = 0x15
    DIV = 0x16  # unsigned divide: dst = dst / src
    MOD = 0x17  # unsigned modulo: dst = dst % src
    IDIV = 0x18  # signed divide
    IMOD = 0x19  # signed modulo
    SHL = 0x1A
    SHR = 0x1B
    SAR = 0x1C
    NOT = 0x1D
    NEG = 0x1E
    CMP = 0x1F
    TEST = 0x20
    # Conditional set -----------------------------------------------------
    SETE = 0x30
    SETNE = 0x31
    SETL = 0x32
    SETLE = 0x33
    SETG = 0x34
    SETGE = 0x35
    SETB = 0x36
    SETBE = 0x37
    SETA = 0x38
    SETAE = 0x39
    # Stack ---------------------------------------------------------------
    PUSH = 0x40
    POP = 0x41
    PUSHF = 0x42
    POPF = 0x43
    # Control flow (rel32 encodings, 5 bytes like x86 jmp rel32) ----------
    JMP = 0x50
    JE = 0x51
    JNE = 0x52
    JL = 0x53
    JLE = 0x54
    JG = 0x55
    JGE = 0x56
    JB = 0x57
    JBE = 0x58
    JA = 0x59
    JAE = 0x5A
    JS = 0x5B
    JNS = 0x5C
    CALL = 0x5D
    # Indirect control flow ------------------------------------------------
    JMPR = 0x60
    CALLR = 0x61
    RET = 0x62
    # Misc ------------------------------------------------------------------
    NOP = 0x70
    TRAP = 0x71
    RTCALL = 0x72


# Operand-form identifiers (stored in the low nibble of the form byte).
FORM_NONE = 0
FORM_R = 1
FORM_RR = 2
FORM_RI = 3
FORM_RM = 4
FORM_MR = 5
FORM_MI = 6
FORM_I = 7
FORM_M = 8

#: Opcodes encoded without a form byte (fixed layouts, see encoding.py).
JUMP_OPCODES = frozenset(
    {
        Opcode.JMP,
        Opcode.JE,
        Opcode.JNE,
        Opcode.JL,
        Opcode.JLE,
        Opcode.JG,
        Opcode.JGE,
        Opcode.JB,
        Opcode.JBE,
        Opcode.JA,
        Opcode.JAE,
        Opcode.JS,
        Opcode.JNS,
        Opcode.CALL,
    }
)

#: Conditional jumps only (subset of JUMP_OPCODES).
CONDITIONAL_JUMPS = frozenset(JUMP_OPCODES - {Opcode.JMP, Opcode.CALL})

#: Maps each conditional jump to its flag predicate name.
CONDITION_CODES = {
    Opcode.JE: "e",
    Opcode.JNE: "ne",
    Opcode.JL: "l",
    Opcode.JLE: "le",
    Opcode.JG: "g",
    Opcode.JGE: "ge",
    Opcode.JB: "b",
    Opcode.JBE: "be",
    Opcode.JA: "a",
    Opcode.JAE: "ae",
    Opcode.JS: "s",
    Opcode.JNS: "ns",
}

SETCC_CONDITIONS = {
    Opcode.SETE: "e",
    Opcode.SETNE: "ne",
    Opcode.SETL: "l",
    Opcode.SETLE: "le",
    Opcode.SETG: "g",
    Opcode.SETGE: "ge",
    Opcode.SETB: "b",
    Opcode.SETBE: "be",
    Opcode.SETA: "a",
    Opcode.SETAE: "ae",
}

#: Flag predicates over ``(zf, sf, cf, of)``, by condition name: what
#: the conditional jumps and ``set<cc>`` test at run time.
FLAG_PREDICATES = {
    "e": lambda zf, sf, cf, of: zf,
    "ne": lambda zf, sf, cf, of: not zf,
    "l": lambda zf, sf, cf, of: sf != of,
    "le": lambda zf, sf, cf, of: zf or sf != of,
    "g": lambda zf, sf, cf, of: not zf and sf == of,
    "ge": lambda zf, sf, cf, of: sf == of,
    "b": lambda zf, sf, cf, of: cf,
    "be": lambda zf, sf, cf, of: cf or zf,
    "a": lambda zf, sf, cf, of: not cf and not zf,
    "ae": lambda zf, sf, cf, of: not cf,
    "s": lambda zf, sf, cf, of: sf,
    "ns": lambda zf, sf, cf, of: not sf,
}

#: Fixed-layout opcodes: opcode byte only.
BARE_OPCODES = frozenset({Opcode.RET, Opcode.NOP, Opcode.PUSHF, Opcode.POPF})

#: ALU opcodes that write their first operand and set flags.
ALU_RW = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.IMUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.IDIV,
        Opcode.IMOD,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SAR,
    }
)

#: Legal operand forms per opcode (checked by the encoder).
LEGAL_FORMS = {
    Opcode.MOV: {FORM_RR, FORM_RI, FORM_RM, FORM_MR, FORM_MI},
    Opcode.MOVS: {FORM_RM},
    Opcode.LEA: {FORM_RM},
    Opcode.CMP: {FORM_RR, FORM_RI, FORM_RM, FORM_MR, FORM_MI},
    Opcode.TEST: {FORM_RR, FORM_RI},
    Opcode.NOT: {FORM_R},
    Opcode.NEG: {FORM_R},
    Opcode.PUSH: {FORM_R},
    Opcode.POP: {FORM_R},
    Opcode.JMPR: {FORM_R},
    Opcode.CALLR: {FORM_R},
    Opcode.TRAP: {FORM_I},
    Opcode.RTCALL: {FORM_I},
}
for _op in ALU_RW:
    LEGAL_FORMS[_op] = {FORM_RR, FORM_RI, FORM_RM, FORM_MR, FORM_MI}
for _op in SETCC_CONDITIONS:
    LEGAL_FORMS[_op] = {FORM_R}
for _op in JUMP_OPCODES:
    LEGAL_FORMS[_op] = {FORM_I}
for _op in BARE_OPCODES:
    LEGAL_FORMS[_op] = {FORM_NONE}

#: Opcodes whose memory operand (if any) is only an address computation,
#: never an access.  Everything else with a Mem operand reads or writes it.
NO_ACCESS_OPCODES = frozenset({Opcode.LEA})
