"""Physical memory, canonical 48-bit addressing, and four-level page tables.

A walk takes no control state.  Both kernels run with CR0.WP set, so a
write to a present read-only page faults in ring 0 exactly as in ring 3:
the ring never changes an outcome, and `translate` decides from the leaf
and the access kind alone.  It returns the physical address, or None on
any fault: the caller already holds the address and access that describe
the fault, and no caller asks why an access faulted.

The machine's page tables live in a table store shared by every address
space, keyed by the physical frame holding each table.  This makes
sub-table sharing between the two kernels' address spaces automatic: the
lower-half merger copies only root-table entries, and any edit the
regular OS makes *below* its root is immediately visible on the other
side.  Only a brand-new root-level entry requires a fresh merge.

A table is a list of 512 ints in the x86-64 entry layout,
`(frame << 12) | P | RW`: P (bit 0) is present, RW (bit 1) writable, and
0 is an absent entry.  A walk starts at the space's `root_table` and
indexes the store (`store[entry >> 12]`) once per level.  Every table is
built on first access: `TableStore.__missing__` builds a table's list
the first time a walk or a write reaches it, so booting the identity map
costs one step per GiB of memory, and a table no walk reaches holds none.

An access kind is the string a workload writes for it, `READ` ("r") or
`WRITE` ("w"); `translate` treats any access that is not a write as a
read.  Each address space memoises its successful walks in two memos,
one per access kind, both filled only by `translate`:
  - `memo` serves read: page number -> every present leaf;
  - `wmemo` serves write: page number -> the present leaves that are
    writable.
A page in the memo of access kind K cannot fault on K: a read faults
only on a missing page, and a write to a writable leaf never faults.
So a caller that finds its page in the memo of its access kind may
skip `translate` and make no permission decision; on a miss it calls
`translate`, which also faults a write to a present read-only page.  A
non-canonical address has no page number that a memo can hold.  Misses
are never cached, so mapping a page that was not present invalidates
nothing.  Three writes do invalidate both memos, because a leaf table
below the root may be shared by both spaces:
  - `unmap_page` drops each page it clears from every memo on the store;
  - `map_page` over a present leaf does the same;
  - `merge_lower_half` clears the memos of the space it merges into.

Each address space also caches the leaf table of every 2 MiB region it
has walked to, like a hardware paging-structure (PDE) cache:
`leaf_tables` maps a region number (`vaddr >> 21`, i.e. `page >> 9`) to
the 512-entry list that the walk reached.  `translate`, `map_page` and
`unmap_page` look there before walking, and cache the table they reach:
`map_page` through `_table_frame`, which always reaches one, the other
two through `_leaf_table`, which says when.  `fault_in` looks there too:
a fault into a cached table whose leaf is absent writes that leaf into
the cached list itself, with no walk, no table count and no `map_page`.
One rule keeps the cache right.  Upper-level entries only go from absent
to present (`_table_frame`, `identity_map_higher_half`,
`ensure_root_entry`) and no table is ever freed, so a region's walk, once
it reaches a leaf table, reaches that same list forever -- except through
`merge_lower_half`, which overwrites root entries and so clears the
merged space's `leaf_tables` together with its memos.  `map_page`,
`fault_in` and `unmap_page` write leaf entries only, into the cached list
itself, so they invalidate nothing more.

No other module reads a page table, a leaf-table cache or a free-frame
count but through this module's functions and `FrameAllocator.frames_left`,
save the memo peek above, which `RosKernel.touch` and the kernel-mode step
make inline: most accesses hit, and a call per hit measured slower.
"""

from __future__ import annotations

from .errors import AllocationError, NonCanonicalAddressError

PAGE_SIZE = 4096
TABLE_ENTRIES = 512
LOWER_ROOT_ENTRIES = 256  # root entries 0..255 cover the lower half
HIGHER_BASE = 0xFFFF_8000_0000_0000
P = 1  # page-table entry bit 0: present
RW = 2  # page-table entry bit 1: writable
EMPTY_TABLE = (0, 0, None)  # the deferred record of a table with no entry present
READ = "r"  # the access kinds, as a workload writes them
WRITE = "w"


def is_canonical(addr: int) -> bool:
    """A 64-bit address whose bits 47..63 all equal bit 47 (no int outside [0, 2**64) does)."""
    top = addr >> 47
    return top == 0 or top == 0x1FFFF


def require_canonical(addr: int) -> None:
    if not is_canonical(addr):
        raise _non_canonical(addr)


def _non_canonical(addr: int) -> NonCanonicalAddressError:
    # The walks test `addr >> 47 not in (0, 0x1FFFF)` inline: it is
    # `is_canonical` without two calls per walk.
    return NonCanonicalAddressError(f"non-canonical address 0x{addr:x}")


class FrameAllocator:
    """Bump allocator over a half-open frame range [start, end); `owner`
    names the range in the error raised when it runs out.  The free frames
    are the range's last `frames_left`, a field that only `take` writes."""

    def __init__(self, start: int, end: int, owner: str):
        self.start = start
        self.end = end
        self.owner = owner
        self.frames_left = end - start

    def take(self, n: int) -> int:
        """Reserve n consecutive frames and return the first; with fewer
        than n left, raise and reserve none."""
        left = self.frames_left - n
        if left < 0:
            raise AllocationError(f"out of {self.owner} frames ({self.end - self.start} total)")
        self.frames_left = left
        return self.end - left - n


class TableStore(dict):
    """Machine-wide backing for page tables: a dict of physical frame ->
    512 entry ints, which walks index directly.

    A table not built yet is recorded in `deferred` as the frame range it
    maps, none for a table from `add`, and `__missing__` builds it when a
    walk, `absent_tables` or a write first reaches it.  A deferred level-2
    table also records the first of its consecutive leaf tables; building
    it defers each of those leaves in turn."""

    def __init__(self):
        super().__init__()
        # Table frame -> (first mapped frame, count, first leaf table frame
        # of a level-2 table or None for a leaf table), not built yet.
        self.deferred: dict[int, tuple[int, int, int | None]] = {}
        # Both walk memos of every address space built on this store.
        self.memos: list[dict[int, int]] = []

    def __missing__(self, frame: int) -> list[int]:
        first, count, leaf = self.deferred.pop(frame)
        end = first + count
        table = [0] * TABLE_ENTRIES
        if leaf is not None:
            for i, start in enumerate(range(first, end, TABLE_ENTRIES)):
                self.deferred[leaf + i] = (start, min(TABLE_ENTRIES, end - start), None)
                table[i] = leaf + i << 12 | P | RW
        elif count:  # one writable entry per frame, built in C
            table[:count] = range(first << 12 | P | RW, end << 12, PAGE_SIZE)
        self[frame] = table
        return table

    def add(self, frame_alloc: FrameAllocator) -> int:
        """A new table's frame; its list, all absent entries, is deferred."""
        frame = frame_alloc.take(1)
        self.deferred[frame] = EMPTY_TABLE
        return frame


class PageTableHierarchy:
    """A four-level translation structure rooted at cr3."""

    def __init__(self, store: TableStore, frame_alloc: FrameAllocator):
        self.store = store
        self.frame_alloc = frame_alloc
        self.cr3 = store.add(frame_alloc)
        self.root_table = store[self.cr3]
        # Page number -> present leaf entry, for walks that succeeded: every
        # leaf in `memo` (read), the writable ones in `wmemo` (write).
        self.memo: dict[int, int] = {}
        self.wmemo: dict[int, int] = {}
        store.memos += self.memo, self.wmemo
        # 2 MiB region number -> the leaf table a walk reached (see module).
        self.leaf_tables: dict[int, list[int]] = {}


def translate(space: PageTableHierarchy, addr: int, access: str) -> int | None:
    """Walk the four levels; return a physical byte address, or None if
    the access faults.  Frame 0 is a valid address: test `is None`.

    A write to a present read-only page faults (see the module
    docstring: CR0.WP is set on both sides).  A present leaf is memoised in
    `memo`, and in `wmemo` too if it is writable; a non-canonical address
    never is, so its page number never hits.  A memo miss looks up the
    region's leaf table in `leaf_tables` and walks only if it is not there.
    """
    page = addr >> 12
    leaf = space.memo.get(page)
    if leaf is None:
        if addr >> 47 not in (0, 0x1FFFF):
            raise _non_canonical(addr)
        table = space.leaf_tables.get(page >> 9)
        if table is None:
            table = _leaf_table(space, addr)
            if table is None:
                return None
        leaf = table[page & 0x1FF]
        if not leaf & P:
            return None
        space.memo[page] = leaf
        if leaf & RW:
            space.wmemo[page] = leaf
    if access is WRITE and not leaf & RW:
        return None
    return leaf & ~0xFFF | addr & 0xFFF


def _leaf_table(space: PageTableHierarchy, vaddr: int) -> list[int] | None:
    """Walk the upper levels to vaddr's leaf table and cache it in
    `leaf_tables`, even when vaddr's own leaf is absent; at an absent
    upper entry, return None and cache nothing."""
    store, table = space.store, space.root_table
    for shift in (39, 30, 21):
        entry = table[(vaddr >> shift) & 0x1FF]
        if not entry & P:
            return None
        table = store[entry >> 12]
    space.leaf_tables[vaddr >> 21] = table
    return table


def _table_frame(space: PageTableHierarchy, vaddr: int, depth: int) -> int:
    """The frame of the table `depth` levels below the root on vaddr's
    walk, adding each absent table on the way (`TableStore.add`).  The
    tables above it are built; it is not built here."""
    store, frame = space.store, space.cr3
    for shift in (39, 30, 21)[:depth]:
        table, idx = store[frame], (vaddr >> shift) & 0x1FF
        if not table[idx] & P:
            table[idx] = store.add(space.frame_alloc) << 12 | P | RW
        frame = table[idx] >> 12
    return frame


def absent_tables(space: PageTableHierarchy, vaddr: int, length: int) -> int:
    """How many page tables mapping every page of [vaddr, vaddr + length)
    would add: those below the root that no walk reaches yet."""
    absent = set()  # (shift of the entry that would point at it, vaddr >> shift)
    for v in range(vaddr >> 21 << 21, vaddr + length, 1 << 21):
        table, shift = space.root_table, 39  # walk down to v's first absent entry
        while shift > 12 and table[(v >> shift) & 0x1FF] & P:
            table, shift = space.store[table[(v >> shift) & 0x1FF] >> 12], shift - 9
        absent.update((s, v >> s) for s in (39, 30, 21) if s <= shift)
    return len(absent)


def map_page(space: PageTableHierarchy, vaddr: int, frame: int, writable: bool = True) -> None:
    """Map one 4 KiB page, allocating intermediate tables on demand.

    Remapping an already-mapped address replaces the entry and drops the
    page from every walk memo.
    """
    if vaddr >> 47 not in (0, 0x1FFFF):
        raise _non_canonical(vaddr)
    if vaddr % PAGE_SIZE:
        raise NonCanonicalAddressError(f"unaligned page address 0x{vaddr:x}")
    table = space.leaf_tables.get(vaddr >> 21)
    if table is None:
        table = space.leaf_tables[vaddr >> 21] = space.store[_table_frame(space, vaddr, 3)]
    i1 = (vaddr >> 12) & 0x1FF
    if table[i1] & P:
        for memo in space.store.memos:
            memo.pop(vaddr >> 12, None)
    table[i1] = frame << 12 | (P | RW if writable else P)


def fault_in(space: PageTableHierarchy, addr: int, access: str, writable: bool) -> bool:
    """Map the page of a demand fault that the caller's regions allow; True
    once the access translates, False, with nothing changed, if the free
    frames cannot cover the page and its new tables.  A mapped page keeps
    its frame, so faults on one page take one.  A fault into a cached leaf
    table whose leaf is absent writes that leaf itself: no walk, no table
    count and no `map_page`.  Any other fault walks, and only an uncached
    table has its tables counted; the page's frame is taken before
    `map_page` adds any table."""
    page, frames = addr >> 12, space.frame_alloc
    table = space.leaf_tables.get(page >> 9)
    if table is not None and not table[page & 0x1FF] & P:
        if frames.frames_left:
            table[page & 0x1FF] = frames.take(1) << 12 | (P | RW if writable else P)
            return True
    elif translate(space, addr, access) is not None:
        return True
    elif frames.frames_left > (0 if table is not None else absent_tables(space, addr, PAGE_SIZE)):
        map_page(space, addr & ~(PAGE_SIZE - 1), frames.take(1), writable)
        return True
    return False


def unmap_page(space: PageTableHierarchy, vaddr: int, length: int = PAGE_SIZE) -> None:
    """Clear the leaf entries of the pages in [vaddr, vaddr + length) with
    one `leaf_tables` lookup or walk per leaf table, and drop each cleared
    page from every walk memo.  A leaf is cleared the same way whether
    `map_page` wrote it or a fault into a cached table wrote its own leaf
    (`fault_in`).  Unmapped pages are skipped; a range that is not
    page-aligned or not canonical at both ends raises before any entry is
    cleared."""
    end = vaddr + length
    last = end - PAGE_SIZE
    if vaddr >> 47 not in (0, 0x1FFFF):
        raise _non_canonical(vaddr)
    if last >> 47 not in (0, 0x1FFFF):
        raise _non_canonical(last)
    if vaddr % PAGE_SIZE or length % PAGE_SIZE or length <= 0:
        raise NonCanonicalAddressError(f"unaligned page range 0x{vaddr:x}+0x{length:x}")
    leaf_tables, memos = space.leaf_tables, space.store.memos
    page, stop = vaddr >> 12, end >> 12  # page numbers, as the memos key them
    while page < stop:
        table = leaf_tables.get(page >> 9) or _leaf_table(space, page << 12)  # a table is never []
        next_table = (page | 0x1FF) + 1  # the first page of the next leaf table
        if table is not None:
            for page in range(page, next_table if next_table < stop else stop):
                if table[page & 0x1FF] & P:
                    table[page & 0x1FF] = 0
                    for memo in memos:
                        memo.pop(page, None)
        page = next_table


def identity_map_higher_half(space: PageTableHierarchy, phys_frame_count: int) -> None:
    """Map every physical frame f at HIGHER_BASE + f * PAGE_SIZE.

    Allocates the same table frames in the same order as one map_page call
    per frame would: per GiB a level-3 table if it crosses a root entry,
    its level-2 table, then all its leaf tables with one `take`.  Each
    level-2 table, and each leaf table it points at, is deferred as the
    frame range it maps.  The higher half must be unmapped.
    """
    span = TABLE_ENTRIES * TABLE_ENTRIES  # frames one level-2 table maps
    store, frame_alloc = space.store, space.frame_alloc
    for first in range(0, phys_frame_count, span):
        vaddr = HIGHER_BASE + first * PAGE_SIZE
        table = store[_table_frame(space, vaddr, 1)]
        level2 = frame_alloc.take(1)
        count = min(span, phys_frame_count - first)
        leaf = frame_alloc.take(-(-count // TABLE_ENTRIES))
        store.deferred[level2] = (first, count, leaf)
        table[(vaddr >> 30) & 0x1FF] = level2 << 12 | P | RW


def ensure_root_entry(space: PageTableHierarchy, vaddr: int) -> None:
    """Pre-create the root entry covering vaddr; its level-3 table is deferred.

    A live process has mappings in its stack and mmap areas from startup,
    so those root slots exist before any merge.
    """
    require_canonical(vaddr)
    _table_frame(space, vaddr, 1)


def merge_lower_half(
    hrt_space: PageTableHierarchy, ros_space: PageTableHierarchy
) -> None:
    """Copy root entries 0..255 from the ROS space into the HRT space.

    Sub-tables are shared through the common table store, so ROS edits
    below the root are visible immediately; only new root entries need a
    re-merge.  The copied entries may replace sub-tables the HRT space
    walked before, so both its walk memos and its `leaf_tables` are
    cleared.
    """
    hrt_space.root_table[:LOWER_ROOT_ENTRIES] = ros_space.root_table[:LOWER_ROOT_ENTRIES]
    hrt_space.memo.clear()
    hrt_space.wmemo.clear()
    hrt_space.leaf_tables.clear()
