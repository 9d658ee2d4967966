"""Page-table oracles that only tests use: full walks with no memo, and
an identity map that defers only its leaf tables.  They split addresses
into table indices themselves, not with the simulator's code."""

from hrtsim.mem import (
    HIGHER_BASE,
    LOWER_ROOT_ENTRIES,
    PAGE_SIZE,
    TABLE_ENTRIES,
    AccessKind,
    RW,
    ControlState,
    FaultInfo,
    FaultReason,
    P,
    PageTableHierarchy,
    Ring,
    _table_at,
    require_canonical,
)


def table_indices(addr: int) -> tuple[int, int, int, int, int]:
    """Split an address into the four table indices plus page offset."""
    return (
        (addr >> 39) & 0x1FF,
        (addr >> 30) & 0x1FF,
        (addr >> 21) & 0x1FF,
        (addr >> 12) & 0x1FF,
        addr & 0xFFF,
    )


def mapped_lower_pages(space: PageTableHierarchy) -> list[int]:
    """All mapped lower-half page addresses, ascending."""
    pages = []
    root = space.root_table
    for i4 in range(LOWER_ROOT_ENTRIES):
        e4 = root[i4]
        if not e4 & P:
            continue
        t3 = space.store[e4 >> 12]
        for i3, e3 in enumerate(t3):
            if not e3 & P:
                continue
            t2 = space.store[e3 >> 12]
            for i2, e2 in enumerate(t2):
                if not e2 & P:
                    continue
                t1 = space.store[e2 >> 12]
                for i1, e1 in enumerate(t1):
                    if e1 & P:
                        pages.append((i4 << 39) | (i3 << 30) | (i2 << 21) | (i1 << 12))
    return pages


def lower_halves_consistent(
    hrt_space: PageTableHierarchy, ros_space: PageTableHierarchy
) -> bool:
    """True iff both root tables agree on entries 0..255."""
    hrt_root = hrt_space.root_table
    ros_root = ros_space.root_table
    return all(hrt_root[i] == ros_root[i] for i in range(LOWER_ROOT_ENTRIES))


def walk(
    space: PageTableHierarchy, ctl: ControlState, addr: int, access: AccessKind
) -> int | FaultInfo:
    """`mem.translate` without its memo: all four levels on every call."""
    require_canonical(addr)
    i4, i3, i2, i1, offset = table_indices(addr)
    table = space.root_table
    for idx in (i4, i3, i2):
        entry = table[idx]
        if not entry & P:
            return FaultInfo(addr, access, FaultReason.NOT_PRESENT)
        table = space.store[entry >> 12]
    leaf = table[i1]
    if not leaf & P:
        return FaultInfo(addr, access, FaultReason.NOT_PRESENT)
    if access is AccessKind.WRITE and not leaf & RW:
        if ctl.ring is Ring.RING3 or ctl.cr0_wp:
            return FaultInfo(addr, access, FaultReason.WRITE_PROTECT)
    return (leaf >> 12) * PAGE_SIZE + offset


def identity_map_per_leaf(space: PageTableHierarchy, phys_frame_count: int) -> None:
    """`mem.identity_map_higher_half` one step per leaf table: every
    level-3 and level-2 table built at once, each leaf table deferred."""
    for first in range(0, phys_frame_count, TABLE_ENTRIES):
        vaddr = HIGHER_BASE + first * PAGE_SIZE
        table = _table_at(space, vaddr, 2)
        leaf = space.frame_alloc.alloc()
        count = min(TABLE_ENTRIES, phys_frame_count - first)
        space.store.deferred[leaf] = (first, count, None)
        table[(vaddr >> 21) & 0x1FF] = leaf << 12 | P | RW
