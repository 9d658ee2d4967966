"""Physical memory, canonical 48-bit addressing, and four-level page tables.

The machine's page tables live in a table store shared by every address
space, keyed by the physical frame holding each table.  This makes
sub-table sharing between the two kernels' address spaces automatic: the
lower-half merger copies only root-table entries, and any edit the
regular OS makes *below* its root is immediately visible on the other
side.  Only a brand-new root-level entry requires a fresh merge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import AllocationError, NonCanonicalAddressError

PAGE_SIZE = 4096
TABLE_ENTRIES = 512
LOWER_ROOT_ENTRIES = 256  # root entries 0..255 cover the lower half
HIGHER_BASE = 0xFFFF_8000_0000_0000
ADDR_MASK = (1 << 64) - 1


class Owner(enum.Enum):
    ROS_VISIBLE = "ros_visible"
    HRT_ONLY = "hrt_only"


class Half(enum.Enum):
    LOWER = "lower"
    HIGHER = "higher"


class AccessKind(enum.Enum):
    READ = "r"
    WRITE = "w"
    EXECUTE = "x"


class FaultReason(enum.Enum):
    NOT_PRESENT = "not_present"
    WRITE_PROTECT = "write_protect"


class Ring(enum.Enum):
    RING0 = 0
    RING3 = 3


@dataclass(frozen=True)
class FaultInfo:
    addr: int
    access: AccessKind
    reason: FaultReason


@dataclass
class ControlState:
    cr0_wp: bool
    cr3: int
    ring: Ring


@dataclass(frozen=True)
class Entry:
    """A present page-table entry; absent entries are stored as None."""

    writable: bool
    user: bool
    target_frame: int


def is_canonical(addr: int) -> bool:
    """Bits 47..63 must all equal bit 47."""
    top = (addr & ADDR_MASK) >> 47
    return top == 0 or top == 0x1FFFF


def addr_half(addr: int) -> Half:
    return Half.HIGHER if (addr >> 47) & 1 else Half.LOWER


def require_canonical(addr: int) -> None:
    if not is_canonical(addr):
        raise NonCanonicalAddressError(f"non-canonical address 0x{addr:x}")


def table_indices(addr: int) -> tuple[int, int, int, int, int]:
    """Split an address into the four table indices plus page offset."""
    return (
        (addr >> 39) & 0x1FF,
        (addr >> 30) & 0x1FF,
        (addr >> 21) & 0x1FF,
        (addr >> 12) & 0x1FF,
        addr & 0xFFF,
    )


class FrameAllocator:
    """Bump allocator over a half-open frame range [start, end)."""

    def __init__(self, start: int, end: int, owner: Owner):
        self.start = start
        self.end = end
        self.owner = owner
        self._next = start

    def alloc(self) -> int:
        if self._next >= self.end:
            raise AllocationError(
                f"out of {self.owner.value} frames ({self.end - self.start} total)"
            )
        frame = self._next
        self._next += 1
        return frame

    def alloc_many(self, count: int) -> list[int]:
        if self._next + count > self.end:
            raise AllocationError(
                f"need {count} {self.owner.value} frames, "
                f"{self.end - self._next} available"
            )
        return [self.alloc() for _ in range(count)]

    @property
    def frames_left(self) -> int:
        return self.end - self._next


class TableStore:
    """Machine-wide backing for page tables: physical frame -> 512 entries."""

    def __init__(self):
        self._tables: dict[int, list[Entry | None]] = {}

    def new_table(self, frame: int) -> list[Entry | None]:
        table: list[Entry | None] = [None] * TABLE_ENTRIES
        self._tables[frame] = table
        return table

    def table(self, frame: int) -> list[Entry | None]:
        return self._tables[frame]


class PageTableHierarchy:
    """A four-level translation structure rooted at cr3."""

    def __init__(self, store: TableStore, frame_alloc: FrameAllocator):
        self.store = store
        self.frame_alloc = frame_alloc
        self.cr3 = frame_alloc.alloc()
        store.new_table(self.cr3)

    def root(self) -> list[Entry | None]:
        return self.store.table(self.cr3)

    def mapped_lower_pages(self) -> list[int]:
        """All mapped lower-half page addresses, ascending."""
        pages = []
        root = self.root()
        for i4 in range(LOWER_ROOT_ENTRIES):
            e4 = root[i4]
            if e4 is None:
                continue
            t3 = self.store.table(e4.target_frame)
            for i3, e3 in enumerate(t3):
                if e3 is None:
                    continue
                t2 = self.store.table(e3.target_frame)
                for i2, e2 in enumerate(t2):
                    if e2 is None:
                        continue
                    t1 = self.store.table(e2.target_frame)
                    for i1, e1 in enumerate(t1):
                        if e1 is not None:
                            pages.append(
                                (i4 << 39) | (i3 << 30) | (i2 << 21) | (i1 << 12)
                            )
        return pages


def translate(
    space: PageTableHierarchy,
    ctl: ControlState,
    addr: int,
    access: AccessKind,
) -> int | FaultInfo:
    """Walk the four levels; return a physical byte address or fault info.

    A ring-0 write to a present read-only page faults only when cr0_wp is
    set; in ring 3 it always faults.
    """
    require_canonical(addr)
    i4, i3, i2, i1, offset = table_indices(addr)
    table = space.root()
    for idx in (i4, i3, i2):
        entry = table[idx]
        if entry is None:
            return FaultInfo(addr, access, FaultReason.NOT_PRESENT)
        table = space.store.table(entry.target_frame)
    leaf = table[i1]
    if leaf is None:
        return FaultInfo(addr, access, FaultReason.NOT_PRESENT)
    if access is AccessKind.WRITE and not leaf.writable:
        if ctl.ring is Ring.RING3 or ctl.cr0_wp:
            return FaultInfo(addr, access, FaultReason.WRITE_PROTECT)
    return leaf.target_frame * PAGE_SIZE + offset


def map_page(
    space: PageTableHierarchy,
    vaddr: int,
    frame: int,
    writable: bool = True,
    user: bool = True,
) -> None:
    """Map one 4 KiB page, allocating intermediate tables on demand.

    Remapping an already-mapped address replaces the entry.
    """
    require_canonical(vaddr)
    if vaddr % PAGE_SIZE:
        raise NonCanonicalAddressError(f"unaligned page address 0x{vaddr:x}")
    i4, i3, i2, i1, _ = table_indices(vaddr)
    table = space.root()
    for idx in (i4, i3, i2):
        entry = table[idx]
        if entry is None:
            sub = space.frame_alloc.alloc()
            space.store.new_table(sub)
            entry = Entry(writable=True, user=True, target_frame=sub)
            table[idx] = entry
        table = space.store.table(entry.target_frame)
    table[i1] = Entry(writable=writable, user=user, target_frame=frame)


def unmap_page(space: PageTableHierarchy, vaddr: int) -> None:
    """Clear the leaf entry for vaddr; unmapped addresses are a no-op."""
    require_canonical(vaddr)
    if vaddr % PAGE_SIZE:
        raise NonCanonicalAddressError(f"unaligned page address 0x{vaddr:x}")
    i4, i3, i2, i1, _ = table_indices(vaddr)
    table = space.root()
    for idx in (i4, i3, i2):
        entry = table[idx]
        if entry is None:
            return
        table = space.store.table(entry.target_frame)
    table[i1] = None


def identity_map_higher_half(space: PageTableHierarchy, phys_frame_count: int) -> None:
    """Map every physical frame f at HIGHER_BASE + f * PAGE_SIZE."""
    for f in range(phys_frame_count):
        map_page(space, HIGHER_BASE + f * PAGE_SIZE, f, writable=True, user=False)


def ensure_root_entry(space: PageTableHierarchy, vaddr: int) -> None:
    """Pre-create the root-level entry (and its level-3 table) covering vaddr.

    A live process has mappings in its stack and mmap areas from startup,
    so those root slots exist before any merge.
    """
    require_canonical(vaddr)
    i4 = (vaddr >> 39) & 0x1FF
    root = space.root()
    if root[i4] is None:
        sub = space.frame_alloc.alloc()
        space.store.new_table(sub)
        root[i4] = Entry(writable=True, user=True, target_frame=sub)


def merge_lower_half(
    hrt_space: PageTableHierarchy, ros_space: PageTableHierarchy
) -> None:
    """Copy root entries 0..255 from the ROS space into the HRT space.

    Sub-tables are shared through the common table store, so ROS edits
    below the root are visible immediately; only new root entries need a
    re-merge.
    """
    hrt_root = hrt_space.root()
    ros_root = ros_space.root()
    for i in range(LOWER_ROOT_ENTRIES):
        hrt_root[i] = ros_root[i]


def lower_halves_consistent(
    hrt_space: PageTableHierarchy, ros_space: PageTableHierarchy
) -> bool:
    """True iff both root tables agree on entries 0..255."""
    hrt_root = hrt_space.root()
    ros_root = ros_space.root()
    return all(
        hrt_root[i] == ros_root[i] for i in range(LOWER_ROOT_ENTRIES)
    )
