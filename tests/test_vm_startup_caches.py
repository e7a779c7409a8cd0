"""What a re-run of a binary pays for: the VM's start-up caches.

Three pieces of start-up work depend only on the image, so the VM does
them once per :class:`~repro.binfmt.binary.Binary` or once per visit
rather than once per run: the verified cross-run decode cache
(``CPU._decode_at``), copy-on-write mapping from one shared zero page
(``Memory``), and superblock translation on a block's second visit.
None of them may be observable: a run on a warm ``Binary`` must equal a
run on a fresh copy of it in everything but the counters of the cache
work itself.
"""

import pytest

from repro.binfmt import Binary, BinaryBuilder
from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.errors import GuestMemoryError
from repro.hunt.coverage import CoverageMap
from repro.isa.assembler import assemble_text, parse
from repro.isa.encoding import decode_all
from repro.runtime.glibc import GlibcRuntime
from repro.telemetry.hub import Telemetry
from repro.telemetry.validate import load_schema
from repro.vm import memory as memory_module
from repro.vm.loader import load_binary
from repro.vm.memory import PAGE_SIZE, Memory
from repro.vm.superblock import ENGINE_NAMES, engine_override
from repro.workloads.juliet import generate_cases

HEAP_GUEST = """
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) s = s + a[i];
    return s;
}
int main() {
    int *a = malloc(8 * 48);
    for (int i = 0; i < 48; i = i + 1) a[i] = i * arg(0);
    print(sum(a, 48));
    free(a);
    return 0;
}
"""

OBSERVERS = (None, "access_hook", "coverage")

#: Counters of the cross-run cache work itself.  A warm run trades fresh
#: decodes and trace compilations for reuses, so only each pair's sum
#: is the same on a warm and a fresh ``Binary``.
CACHE_PAIRS = (
    ("vm.decodes", "vm.decodes_reused"),
    ("vm.traces_compiled", "vm.traces_revived"),
)


def _build(asm: str) -> Binary:
    builder = BinaryBuilder()
    builder.add_function("main", parse(asm))
    return builder.build("main")


def _observed_run(binary, program, args, mode, harden, engine, observer):
    """One run with a telemetry hub; everything observable about it."""
    telemetry = Telemetry()
    runtime = harden.create_runtime(mode=mode)
    coverage = CoverageMap() if observer == "coverage" else None
    with engine_override(engine):
        cpu = load_binary(binary, runtime, telemetry=telemetry)
    program.poke_args(cpu, list(args))
    if observer == "access_hook":
        cpu.access_hook = lambda *access: None
    cpu.coverage = coverage
    try:
        status = cpu.run(10_000_000)
    except GuestMemoryError as error:
        status = f"GuestMemoryError: {error}"
    counters = {
        name: value for name, value in telemetry.counters.items()
        if name.startswith("vm.")
    }
    for fresh, reused in CACHE_PAIRS:
        counters[fresh] = counters.pop(fresh, 0) + counters.pop(reused, 0)
    memory = cpu.memory
    return {
        "status": status,
        "output": tuple(runtime.output),
        "regs": list(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.zf, cpu.sf, cpu.cf, cpu.of),
        "retired": cpu.instructions_executed,
        "counters": counters,
        "edges": frozenset(coverage.edges) if coverage is not None else None,
        "pages": {
            index: bytes(memory.read(index * PAGE_SIZE, PAGE_SIZE))
            for index in memory.mapped_page_indices()
        },
    }


class TestRerunIdentity:
    @pytest.mark.parametrize("guest", ["heap-log", "juliet-abort"])
    def test_warm_binary_equals_fresh_copy(self, guest):
        """One ``Binary`` run three times under every engine x observer
        equals a run on a fresh ``from_bytes(to_bytes())`` copy each
        time — the decode cache warms across engines too."""
        if guest == "heap-log":
            program, args, mode = compile_source(HEAP_GUEST), (3,), "log"
        else:
            case = generate_cases(1)[0]
            program, args, mode = case.compile(), case.malicious_args, "abort"
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        shared = harden.binary
        for engine in ENGINE_NAMES:
            for observer in OBSERVERS:
                fresh = _observed_run(
                    Binary.from_bytes(shared.to_bytes()), program, args,
                    mode, harden, engine, observer,
                )
                assert fresh["counters"]["vm.instructions_retired"] > 0
                for attempt in range(3):
                    warm = _observed_run(shared, program, args, mode,
                                         harden, engine, observer)
                    assert warm == fresh, (guest, engine, observer, attempt)
        if mode == "abort":
            assert "GuestMemoryError" in str(fresh["status"])

    def test_warm_run_reuses_every_decode(self):
        """The cache does its job: a second run of an unchanged image
        decodes nothing afresh.  It never reaches the serialized image."""
        program = compile_source(HEAP_GUEST)
        blob = program.binary.to_bytes()
        counts = []
        for _ in range(2):
            telemetry = Telemetry()
            program.run(args=(2,), telemetry=telemetry)
            counts.append((telemetry.counters.get("vm.decodes", 0),
                           telemetry.counters.get("vm.decodes_reused", 0)))
        (cold_fresh, cold_reused), (warm_fresh, warm_reused) = counts
        assert cold_fresh > 0 and cold_reused == 0
        assert warm_fresh == 0 and warm_reused == cold_fresh
        assert program.binary.to_bytes() == blob


class TestStaleDecode:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_overwritten_code_executes_new_bytes(self, engine):
        """Warm the decode cache, then patch an instruction in guest
        memory before its first fetch: the CPU runs the new bytes."""
        binary = _build("mov %rax, $23\nret")
        with engine_override(engine):
            assert load_binary(binary, GlibcRuntime()).run() == 23
            assert binary.entry in binary._decode_cache
            cpu = load_binary(binary, GlibcRuntime())
            patch = assemble_text("mov %rax, $42\n", binary.entry)
            assert len(patch) == binary._decode_cache[binary.entry][1].length
            cpu.memory.write(binary.entry, patch)
            assert cpu.run() == 42
        # The stale entry was replaced by the fresh decode.
        assert binary._decode_cache[binary.entry][0] == patch

    def test_holds_checks_mapping_and_bytes(self):
        """The reuse check: the whole range mapped, every byte equal —
        also across a page boundary and at the end of mapped memory."""
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        assert memory.holds(PAGE_SIZE - 2, b"\0\0")
        assert not memory.holds(PAGE_SIZE - 2, b"\0\0\0")
        memory.map_range(PAGE_SIZE, 1)
        assert memory.holds(PAGE_SIZE - 2, b"\0\0\0")
        assert not memory.holds(5 * PAGE_SIZE, b"\0")


class TestZeroPage:
    def test_untouched_page_reads_zeros(self):
        memory = Memory()
        memory.map_range(0x4000, 3 * PAGE_SIZE)
        assert memory.read(0x4000, 64) == bytes(64)
        assert memory.read(0x4000 + PAGE_SIZE - 4, 8) == bytes(8)
        assert memory.read_int(0x5008, 8) == 0
        assert memory.read_upto(0x4000 + 3 * PAGE_SIZE - 4, 16) == bytes(4)

    @pytest.mark.parametrize("how", ["write", "write_int", "straddle"])
    def test_writes_stay_private(self, how):
        first, second = Memory(), Memory()
        for memory in (first, second):
            memory.map_range(0, 2 * PAGE_SIZE)
        if how == "write":
            first.write(0x10, b"\xff" * 8)
        elif how == "write_int":
            first.write_int(0x10, -1, 8)
        else:
            first.write(PAGE_SIZE - 4, b"\xff" * 8)
        assert second.read(0, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)
        assert first.read(0, 2 * PAGE_SIZE) != bytes(2 * PAGE_SIZE)
        assert memory_module._ZERO_PAGE == bytes(PAGE_SIZE)

    def test_alias_of_untouched_pages_stays_aliased(self):
        memory = Memory()
        memory.map_range(0x10000, 2 * PAGE_SIZE)
        memory.map_range(0x20000, 2 * PAGE_SIZE)
        memory.alias_range(0x10000, 0x20000, 2 * PAGE_SIZE)
        memory.write_int(0x10008, 0xAB, 8)
        assert memory.read_int(0x20008, 8) == 0xAB
        memory.write(0x21000, b"xyz")
        assert memory.read(0x11000, 3) == b"xyz"
        other = Memory()
        other.map_range(0x20000, 2 * PAGE_SIZE)
        assert other.read(0x20000, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)

    def test_mapping_introspection_matches_eager_mapping(self):
        ranges = [(0x1234, 10), (0x3000, 3 * PAGE_SIZE), (0x4ffe, 4),
                  (7 << 32, 1)]
        memory = Memory()
        expected = set()
        for address, size in ranges:
            memory.map_range(address, size)
            first, last = address // PAGE_SIZE, (address + size - 1) // PAGE_SIZE
            expected.update(range(first, last + 1))
        memory.write_int(0x3008, 5, 8)  # one private page among shared ones
        assert memory.mapped_page_indices() == sorted(expected)
        assert memory.mapped_bytes() == len(expected) * PAGE_SIZE
        assert memory.is_mapped(0x3000, 3 * PAGE_SIZE)
        assert not memory.is_mapped(0x6000)
        memory.unmap_range(0x3000, PAGE_SIZE)
        assert 3 not in memory.mapped_page_indices()

    def test_loaded_stack_is_shared_until_touched(self):
        cpu = load_binary(_build("mov %rax, $1\nret"), GlibcRuntime())
        pages = cpu.memory._pages
        private = [page for page in pages.values()
                   if page is not memory_module._ZERO_PAGE]
        assert len(pages) > 2000  # the 8 MiB stack is mapped...
        assert len(private) < 10  # ...but only its top page is written


class TestLazyTranslation:
    def test_block_translated_on_second_visit(self):
        """``once`` runs one time and stays untranslated; ``loop`` runs
        three times and is translated on its second visit."""
        binary = _build(
            "once:\nmov %rcx, $3\nsub %rcx, $1\njne loop\n"
            "loop:\nsub %rcx, $1\njne loop\nmov %rax, %rcx\nret"
        )
        text = binary.segment_at(binary.entry)
        # The fourth instruction: mov, sub, jne, then the loop head.
        loop = decode_all(text.data, text.vaddr)[3].address
        with engine_override("superblock"):
            cpu = load_binary(binary, GlibcRuntime())
            assert cpu.run() == 0
        engine = cpu.superblock
        assert set(engine.cache) == {loop}
        assert engine.translations == 1
        assert binary.entry in engine.visited

    def test_hot_loop_still_translated(self):
        program = compile_source(HEAP_GUEST)
        with engine_override("superblock"):
            result = program.run(args=(1,))
        stats = result.cpu.superblock.stats()
        assert 0 < stats["translations"] < len(result.cpu.icache)


class TestSchema:
    def test_every_vm_counter_is_listed(self):
        """The telemetry schema's counters ``$comment`` names every
        ``vm.*`` counter a run exports."""
        comment = load_schema()["properties"]["counters"]["$comment"]
        listed = comment.split("vm.{", 1)[1].split("}", 1)[0].split(",")
        program = compile_source(HEAP_GUEST)
        names = set()
        for _ in range(2):
            telemetry = Telemetry()
            program.run(args=(1,), telemetry=telemetry)
            names.update(name for name in telemetry.counters
                         if name.startswith("vm."))
        assert {"vm.decodes", "vm.decodes_reused",
                "vm.traces_revived"} <= names
        assert names <= {f"vm.{name}" for name in listed}
