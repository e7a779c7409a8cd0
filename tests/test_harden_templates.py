"""Harden's back half: per-shape check templates and the encode memo.

A range check's bytes depend only on its shape, so the check generator
assembles each shape once into an :class:`Encoded` block and stamps every
check of that shape from it; the rewriter encodes each distinct
instruction once per rewrite.  Both must be invisible in the output:
the same bytes, tags and fixups as assembling every check afresh.
"""

import itertools

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.core.analysis import CheckSite
from repro.core.checkgen import CheckContext, CheckGenerator
from repro.core.merging import AccessRange
from repro.core.redfat_tool import PROT_NONE
from repro.errors import AssemblyError, RewriteError
from repro.isa.assembler import Encoded, assemble
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import LEGAL_FORMS, Opcode
from repro.isa.operands import Label, Mem, Reg
from repro.isa.registers import R8, R9, R10, R11, RAX, RBX, RCX, RIP, RSP

SOURCE = """
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) s = s + a[i];
    return s;
}
int main() {
    int n = arg(0);
    int *a = malloc(8 * n);
    char *t = malloc(n);
    for (int i = 0; i < n; i = i + 1) { a[i] = i * 3; t[i] = i; }
    a[1] = a[0] + t[2];
    print(sum(a, n));
    free(t);
    free(a);
    return 0;
}
"""

OTHER = """
int main() {
    int *p = malloc(64);
    for (int i = 0; i < 8; i = i + 1) p[i] = i + arg(0);
    print(p[3] + p[5]);
    free(p);
    return 0;
}
"""

BASES = (0x30000000, 0x30001235)


def make_range(base, index, disp, site, use_lowfat, length=8):
    instruction = Instruction(
        Opcode.MOV, (Mem(disp, base, index, 1), Reg(RCX)), address=site
    )
    check_site = CheckSite(instruction, instruction.operands[0], False, True, 8)
    return AccessRange(base, index, 1, disp, length, [check_site], use_lowfat)


def layout(items, base):
    """``(bytes, tag map)`` of *items* assembled at *base*."""
    code = assemble(items, base)
    tags = {}
    for item in items:
        if isinstance(item, Encoded):
            for offset, tag in item.tags:
                tags[item.address + offset] = tag
        elif isinstance(item, Instruction) and item.tag is not None:
            tags[item.address] = item.tag
    return code, tags


OPERANDS = {"rsp": (RSP, None), "plain": (RBX, None), "indexed": (RBX, RAX)}

#: One table across every case below: a key that missed one input of the
#: check would hand some case another case's bytes.
SHARED_TEMPLATES = {}


@pytest.mark.parametrize(
    "pic,merge,size_hardening,use_lowfat,shape,pushes",
    list(itertools.product(
        (False, True), (False, True), (False, True), (False, True),
        sorted(OPERANDS), (0, 5),
    )),
)
def test_template_equals_fresh_assembly(pic, merge, size_hardening,
                                        use_lowfat, shape, pushes):
    base, index = OPERANDS[shape]
    context = CheckContext(
        options=RedFatOptions(merge=merge, size_hardening=size_hardening),
        scratch=(R8, R9, R10, R11),
        save_registers=(R8, R9, R10, R11) if pushes else (),
        save_flags=bool(pushes),
        pic=pic,
    )
    assert context.push_count == pushes

    def ranges():
        # Two checks of one shape (different sites) and one of another.
        return [
            make_range(base, index, 16, 0x400100, use_lowfat),
            make_range(base, index, 16, 0x400180, use_lowfat),
            make_range(base, index, 24, 0x400200, use_lowfat, length=4),
        ]

    templates = {}
    for address in BASES:
        fresh = CheckGenerator(context).generate(ranges(), 0x400100)
        stamped = CheckGenerator(context, templates).generate(ranges(), 0x400100)
        assert sum(isinstance(item, Encoded) for item in stamped) == 3
        assert layout(stamped, address) == layout(fresh, address)
        shared = CheckGenerator(context, SHARED_TEMPLATES).generate(
            ranges(), 0x400100
        )
        assert layout(shared, address) == layout(fresh, address)
    assert len(templates) == 2
    tagged = [template for template in templates.values() if template.tags]
    assert len(tagged) == 2
    fixups = [template.fixups for template in templates.values()]
    if pic:
        assert all(fixup for fixup in fixups)
    else:
        assert not any(fixups)


# -- encode memo -------------------------------------------------------------


def test_memo_hit_sets_length():
    memo = {}
    first = Instruction(Opcode.MOV, (Reg(RAX), Mem(8, RBX)))
    code = assemble([first], 0x1000, memo)
    assert len(memo) == 1
    second = Instruction(Opcode.MOV, (Reg(RAX), Mem(8, RBX)))
    assert second.length == 0
    assert assemble([second], 0x2000, memo) == code
    assert second.length == len(code) == first.length
    assert second.address == 0x2000


def test_memo_never_stores_an_illegal_form():
    memo = {}
    for _ in range(3):
        illegal = Instruction(Opcode.LEA, (Reg(RAX), Reg(RBX)))
        with pytest.raises(AssemblyError):
            assemble([illegal], 0, memo)
    assert memo == {}


def test_memo_never_serves_label_jumps_or_fixups_stale():
    memo = {}
    for padding in (0, 3, 40):
        items = [Instruction(Opcode.JMP, (Label("out"),))]
        items += [Instruction(Opcode.NOP) for _ in range(padding)]
        items.append(Label("out"))
        items.append(Instruction(Opcode.LEA, (Reg(RAX), Mem(0, RIP)),
                                 abs_target=0x20000000))
        code = assemble(items, 0x30000000 + padding, memo)
        jump = decode(code, 0, 0x30000000 + padding)
        assert jump.jump_target() == items[-1].address
        lea = decode(code, len(code) - items[-1].length, items[-1].address)
        assert lea.operands[1].address(None, lea.end_address) == 0x20000000
    # Only the NOP was memoised: never the jump, never the fixup.
    assert set(memo) == {(Opcode.NOP, (), 8)}


# -- end to end ----------------------------------------------------------------


def harden(binary, preset="fully", **overrides):
    return RedFat(RedFatOptions.preset(preset, **overrides)).instrument(binary)


def outputs(result):
    return (
        result.binary.to_bytes(),
        dict(result.rewrite.tag_map),
        list(result.rewrite.trampoline_ranges),
        dict(result.protection),
        list(result.quarantine),
        result.stats.as_dict(),
    )


@pytest.mark.parametrize("pic", [False, True])
@pytest.mark.parametrize("preset", ["unoptimized", "fully"])
def test_stamped_harden_equals_unstamped(monkeypatch, pic, preset):
    """Stamping from templates changes nothing: bytes, tags, metadata."""
    binary = compile_source(SOURCE, pic=pic).binary
    stamped = outputs(harden(binary, preset))
    monkeypatch.setattr(CheckGenerator, "_stamped_check",
                        CheckGenerator._range_check)
    assert outputs(harden(binary, preset)) == stamped
    assert stamped[1], "the checks' traps must be tagged"


def test_history_independence():
    """Harden X, then Y, then X again: the two X outputs are identical."""
    x = compile_source(SOURCE, pic=True).binary
    y = compile_source(OTHER).binary
    first = outputs(harden(x, "unoptimized"))
    harden(y, "unoptimized")
    harden(y, "fully")
    assert outputs(harden(x, "unoptimized")) == first


# -- a template that fails to encode -------------------------------------------


@pytest.fixture
def mod_unencodable(monkeypatch):
    """Every check's ``mod`` (low-fat base) stops encoding."""
    monkeypatch.setitem(LEGAL_FORMS, Opcode.MOD, set())


def test_failing_template_is_quarantined_like_any_trampoline(
    monkeypatch, mod_unencodable
):
    binary = compile_source(SOURCE).binary
    result = harden(binary, "unoptimized", keep_going=True)
    assert result.quarantine
    for head, reason in result.quarantine:
        assert reason.startswith("trampoline encoding failed: ")
        assert "MOD" in reason
    assert result.stats.quarantined_sites > 0
    assert set(result.protection.values()) == {PROT_NONE}
    assert result.rewrite.patched == []
    # Exactly what assembling every check afresh gives.
    monkeypatch.setattr(CheckGenerator, "_stamped_check",
                        CheckGenerator._range_check)
    assert outputs(harden(binary, "unoptimized", keep_going=True)) == outputs(result)


def test_failing_template_raises_rewrite_error_without_keep_going(
    mod_unencodable
):
    binary = compile_source(SOURCE).binary
    with pytest.raises(RewriteError, match="trampoline encoding failed"):
        harden(binary, "unoptimized", keep_going=False)
