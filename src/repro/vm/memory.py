"""Sparse paged guest memory.

A 64-bit address space backed by a dict of 4 KiB pages.  Pages must be
explicitly mapped (by the loader or an allocator runtime) before access;
touching an unmapped page raises :class:`~repro.errors.VMFault`, the
moral equivalent of SIGSEGV.

Mapping is copy-on-write from one shared, immutable zero page, the way
an OS maps anonymous memory: :meth:`Memory.map_range` points every new
page at :data:`_ZERO_PAGE`, and the first write to it (through
:meth:`Memory.write` or the :meth:`Memory.write_int` fast path) swaps in
a private ``bytearray``.  A guest's 8 MiB stack therefore costs a dict
entry per page until it is touched.  Reads cannot tell the difference,
and a page counts as mapped either way, so :meth:`Memory.is_mapped`,
:meth:`Memory.mapped_bytes` and :meth:`Memory.mapped_page_indices` are
unchanged by it.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import VMFault

PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1
_M64 = (1 << 64) - 1

#: The shared backing of every mapped page not yet written.  Immutable
#: (``bytes``), so no write can reach it: writers replace it first.
_ZERO_PAGE = bytes(PAGE_SIZE)


class Memory:
    """Sparse byte-addressable memory with page-granular mapping."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        #: Page index -> backing: :data:`_ZERO_PAGE` until first written,
        #: then a private ``bytearray``.
        self._pages: Dict[int, Union[bytes, bytearray]] = {}

    # -- mapping ----------------------------------------------------------

    def map_range(self, address: int, size: int) -> None:
        """Ensure every page covering [address, address+size) is mapped."""
        if size <= 0:
            return
        first = address >> _PAGE_SHIFT
        last = (address + size - 1) >> _PAGE_SHIFT
        pages = self._pages
        for page_index in range(first, last + 1):
            if page_index not in pages:
                pages[page_index] = _ZERO_PAGE

    def unmap_range(self, address: int, size: int) -> None:
        """Unmap all pages fully covered by [address, address+size)."""
        if size <= 0:
            return
        first = (address + _PAGE_MASK) >> _PAGE_SHIFT
        last = (address + size) >> _PAGE_SHIFT
        for page_index in range(first, last):
            self._pages.pop(page_index, None)

    def alias_range(self, address: int, target: int, size: int) -> None:
        """Alias the pages of [address, +size) onto [target, +size).

        Both ranges must be page-aligned and the target pages mapped.
        After the call the two virtual ranges share backing storage —
        the primitive behind MESH-style page meshing, where two spans
        with disjoint live slots collapse onto one physical page.
        """
        if address & _PAGE_MASK or target & _PAGE_MASK:
            raise ValueError("alias_range requires page-aligned ranges")
        count = (size + _PAGE_MASK) >> _PAGE_SHIFT
        first_src = address >> _PAGE_SHIFT
        first_dst = target >> _PAGE_SHIFT
        pages = self._pages
        for index in range(count):
            backing = pages.get(first_dst + index)
            if backing is None:
                raise VMFault((first_dst + index) << _PAGE_SHIFT)
            if backing is _ZERO_PAGE:
                # Sharing the zero page would not alias: the first write
                # through either side would privatize only that side.
                backing = pages[first_dst + index] = bytearray(PAGE_SIZE)
            pages[first_src + index] = backing

    def is_mapped(self, address: int, size: int = 1) -> bool:
        first = address >> _PAGE_SHIFT
        last = (address + size - 1) >> _PAGE_SHIFT
        return all(index in self._pages for index in range(first, last + 1))

    def mapped_bytes(self) -> int:
        """Total mapped memory in bytes (for memory-overhead reporting)."""
        return len(self._pages) * PAGE_SIZE

    def mapped_page_indices(self) -> list:
        """Sorted indices of all mapped pages (introspection/injection)."""
        return sorted(self._pages)

    # -- byte access -----------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        address &= _M64
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        page = self._pages.get(page_index)
        if page is None:
            raise VMFault(address)
        if offset + size <= PAGE_SIZE:
            return bytes(page[offset : offset + size])
        # Crosses a page boundary: gather.
        out = bytearray()
        remaining = size
        while remaining:
            page = self._pages.get(page_index)
            if page is None:
                raise VMFault(page_index << _PAGE_SHIFT)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            remaining -= chunk
            page_index += 1
            offset = 0
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        address &= _M64
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        size = len(data)
        pages = self._pages
        page = pages.get(page_index)
        if page is None:
            raise VMFault(address)
        if offset + size <= PAGE_SIZE:
            if page is _ZERO_PAGE:
                page = pages[page_index] = bytearray(PAGE_SIZE)
            page[offset : offset + size] = data
            return
        written = 0
        while written < size:
            page = pages.get(page_index)
            if page is None:
                raise VMFault(page_index << _PAGE_SHIFT)
            if page is _ZERO_PAGE:
                page = pages[page_index] = bytearray(PAGE_SIZE)
            chunk = min(size - written, PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[written : written + chunk]
            written += chunk
            page_index += 1
            offset = 0

    def read_upto(self, address: int, size: int) -> bytes:
        """Read up to *size* bytes, stopping at the first unmapped page.

        Used by the instruction fetcher: an instruction near the end of a
        mapped range must still decode even though a full-width fetch
        window would cross into unmapped memory.
        """
        address &= _M64
        out = bytearray()
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        remaining = size
        while remaining:
            page = self._pages.get(page_index)
            if page is None:
                break
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            remaining -= chunk
            page_index += 1
            offset = 0
        return bytes(out)

    def holds(self, address: int, data: bytes) -> bool:
        """Whether ``read_upto(address, len(data)) == data`` for non-empty
        *data*: the range is mapped and holds exactly those bytes.  This
        is how cached decodes and traces are verified against guest
        memory before reuse."""
        address &= _M64
        offset = address & _PAGE_MASK
        end = offset + len(data)
        if end <= PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_SHIFT)
            return page is not None and page[offset:end] == data
        return self.read_upto(address, len(data)) == data

    # -- integer access ------------------------------------------------------------

    def read_int(self, address: int, size: int, signed: bool = False) -> int:
        # In-page fast path: the overwhelmingly common case for the VM's
        # data accesses (stack slots, heap words).  Unmapped pages and
        # page-straddling reads take the slow path, which raises the
        # same VMFault a byte-wise read would.
        address &= _M64
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is not None:
                return int.from_bytes(
                    page[offset : offset + size], "little", signed=signed
                )
        return int.from_bytes(self.read(address, size), "little", signed=signed)

    def write_int(self, address: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        address &= _M64
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is not None:
                if page is _ZERO_PAGE:
                    page = self._pages[address >> _PAGE_SHIFT] = bytearray(
                        PAGE_SIZE
                    )
                page[offset : offset + size] = (value & mask).to_bytes(
                    size, "little"
                )
                return
        self.write(address, (value & mask).to_bytes(size, "little"))

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (bounded by *limit*)."""
        out = bytearray()
        for index in range(limit):
            byte = self.read(address + index, 1)[0]
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)
