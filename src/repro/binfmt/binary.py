"""The :class:`Binary` container and its on-disk serialization."""

from __future__ import annotations

import enum
import struct
from typing import List, Optional

from repro.errors import BinaryFormatError
from repro.binfmt.sections import Segment
from repro.binfmt.symbols import SymbolTable

_MAGIC = b"MELF"
_VERSION = 1
# magic, version, type, flags(reserved), entry, nsegments, nsymbols
_HEADER = struct.Struct("<4sHBBQII")
# name(16), vaddr, data_size, mem_size, flags
_SEGMENT_HEADER = struct.Struct("<16sQQQI")


class BinaryType(enum.IntEnum):
    """Position-dependent executable vs position-independent code."""

    EXEC = 0
    PIC = 1


class Binary:
    """A guest binary: segments + entry point (+ optional symbols).

    The in-memory object is mutable (the rewriter edits text bytes and
    appends trampoline segments) but rewriting always operates on a fresh
    deep copy so the input image is never disturbed.
    """

    def __init__(
        self,
        segments: Optional[List[Segment]] = None,
        entry: int = 0,
        binary_type: BinaryType = BinaryType.EXEC,
        symbols: Optional[SymbolTable] = None,
    ) -> None:
        self.segments: List[Segment] = []
        self.entry = entry
        self.binary_type = binary_type
        self.symbols = symbols
        for segment in segments or []:
            self.add_segment(segment)

    # -- structure -------------------------------------------------------

    def add_segment(self, segment: Segment) -> None:
        for existing in self.segments:
            if existing.overlaps(segment):
                raise BinaryFormatError(
                    f"segment {segment.name} overlaps {existing.name}"
                )
        self.segments.append(segment)
        self.segments.sort(key=lambda seg: seg.vaddr)

    def segment(self, name: str) -> Segment:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise BinaryFormatError(f"no segment named {name!r}")

    def has_segment(self, name: str) -> bool:
        return any(segment.name == name for segment in self.segments)

    def text_segments(self) -> List[Segment]:
        return [segment for segment in self.segments if segment.executable]

    def segment_at(self, address: int) -> Optional[Segment]:
        for segment in self.segments:
            if segment.contains(address):
                return segment
        return None

    @property
    def is_pic(self) -> bool:
        return self.binary_type is BinaryType.PIC

    @property
    def is_stripped(self) -> bool:
        return self.symbols is None

    def strip(self) -> "Binary":
        """Return a copy without the symbol table."""
        clone = self.copy()
        clone.symbols = None
        return clone

    def __getstate__(self) -> dict:
        """Pickle the image only: the VM loader hangs per-object run
        caches on it (``_trace_cache`` holds compiled code objects,
        ``_decode_cache`` decoded instructions, see ``vm/loader.py``),
        and those are rebuilt by the next run anyway."""
        state = dict(self.__dict__)
        state.pop("_trace_cache", None)
        state.pop("_decode_cache", None)
        return state

    def copy(self) -> "Binary":
        clone = Binary(entry=self.entry, binary_type=self.binary_type)
        clone.segments = [
            Segment(seg.name, seg.vaddr, bytes(seg.data), seg.flags, seg.mem_size)
            for seg in self.segments
        ]
        if self.symbols is not None:
            clone.symbols = SymbolTable(dict(self.symbols))
        return clone

    def total_size(self) -> int:
        """Size in bytes of all stored segment data (the file payload)."""
        return sum(len(segment.data) for segment in self.segments)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        symbol_blob = b""
        nsymbols = 0
        if self.symbols is not None:
            nsymbols = len(self.symbols)
            parts = []
            for name, address in self.symbols:
                encoded = name.encode()
                parts.append(struct.pack("<H", len(encoded)) + encoded)
                parts.append(struct.pack("<Q", address))
            symbol_blob = b"".join(parts)
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            int(self.binary_type),
            1 if self.symbols is not None else 0,
            self.entry,
            len(self.segments),
            nsymbols,
        )
        body = [header]
        for segment in self.segments:
            body.append(
                _SEGMENT_HEADER.pack(
                    segment.name.encode().ljust(16, b"\0"),
                    segment.vaddr,
                    len(segment.data),
                    segment.mem_size,
                    segment.flags,
                )
            )
            body.append(segment.data)
        body.append(symbol_blob)
        return b"".join(body)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Binary":
        if len(blob) < _HEADER.size:
            raise BinaryFormatError("image too small for header")
        magic, version, btype, has_symbols, entry, nsegments, nsymbols = _HEADER.unpack_from(
            blob, 0
        )
        if magic != _MAGIC:
            raise BinaryFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise BinaryFormatError(f"unsupported version {version}")
        offset = _HEADER.size
        binary = cls(entry=entry, binary_type=BinaryType(btype))
        for _ in range(nsegments):
            if offset + _SEGMENT_HEADER.size > len(blob):
                raise BinaryFormatError("truncated segment header")
            raw_name, vaddr, data_size, mem_size, flags = _SEGMENT_HEADER.unpack_from(
                blob, offset
            )
            offset += _SEGMENT_HEADER.size
            if offset + data_size > len(blob):
                raise BinaryFormatError("truncated segment data")
            data = blob[offset : offset + data_size]
            offset += data_size
            binary.add_segment(
                Segment(raw_name.rstrip(b"\0").decode(), vaddr, data, flags, mem_size)
            )
        if has_symbols:
            symbols = SymbolTable()
            for _ in range(nsymbols):
                if offset + 2 > len(blob):
                    raise BinaryFormatError("truncated symbol table")
                (name_len,) = struct.unpack_from("<H", blob, offset)
                offset += 2
                if offset + name_len + 8 > len(blob):
                    raise BinaryFormatError("truncated symbol table")
                name = blob[offset : offset + name_len].decode()
                offset += name_len
                (address,) = struct.unpack_from("<Q", blob, offset)
                offset += 8
                symbols.define(name, address)
            binary.symbols = symbols
        return binary

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Binary":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    def __repr__(self) -> str:
        kind = "pic" if self.is_pic else "exec"
        stripped = " stripped" if self.is_stripped else ""
        return (
            f"<Binary {kind}{stripped} entry={self.entry:#x} "
            f"segments={[seg.name for seg in self.segments]}>"
        )
