"""Page-table oracles that only tests use: full walks with no memo or
leaf-table cache, and an identity map that defers only its leaf tables.
They split addresses into table indices themselves, not with the
simulator's code."""

from hrtsim.mem import (
    HIGHER_BASE,
    LOWER_ROOT_ENTRIES,
    PAGE_SIZE,
    TABLE_ENTRIES,
    RW,
    WRITE,
    P,
    PageTableHierarchy,
    _table_frame,
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


def leaf_table(space: PageTableHierarchy, addr: int) -> list[int] | None:
    """The leaf table on addr's walk, reached through all three upper
    levels without `leaf_tables`, or None if an upper entry is absent."""
    require_canonical(addr)
    i4, i3, i2, _, _ = table_indices(addr)
    table = space.root_table
    for idx in (i4, i3, i2):
        entry = table[idx]
        if not entry & P:
            return None
        table = space.store[entry >> 12]
    return table


def assert_leaf_tables_sound(space: PageTableHierarchy) -> None:
    """Each cached leaf table is the very list a full walk of its 2 MiB
    region reaches."""
    for region, table in space.leaf_tables.items():
        assert leaf_table(space, region << 21) is table, f"stale region 0x{region << 21:x}"


def upper_entries(space: PageTableHierarchy) -> dict[tuple[int, ...], int]:
    """Every present root, level-3 and level-2 entry, keyed by its index
    path from the root.  A table still deferred has never been written,
    so its entries are left out and it is not built."""
    entries = {}
    tables = [((), space.root_table)]
    for _ in range(3):
        below = []
        for path, table in tables:
            for idx, entry in enumerate(table):
                if entry & P:
                    entries[path + (idx,)] = entry
                    sub = space.store.get(entry >> 12)
                    if sub is not None:
                        below.append((path + (idx,), sub))
        tables = below
    return entries


def walk(space: PageTableHierarchy, addr: int, access: str) -> int | None:
    """`mem.translate` without its memo or `leaf_tables`: all four levels
    on every call; None on a fault."""
    table = leaf_table(space, addr)
    if table is None:
        return None
    _, _, _, i1, offset = table_indices(addr)
    leaf = table[i1]
    if not leaf & P or access is WRITE and not leaf & RW:
        return None
    return (leaf >> 12) * PAGE_SIZE + offset


def identity_map_per_leaf(space: PageTableHierarchy, phys_frame_count: int) -> None:
    """`mem.identity_map_higher_half` one step per leaf table: every
    level-3 and level-2 table built at once, each leaf table deferred."""
    for first in range(0, phys_frame_count, TABLE_ENTRIES):
        vaddr = HIGHER_BASE + first * PAGE_SIZE
        table = space.store[_table_frame(space, vaddr, 2)]
        leaf = space.frame_alloc.take(1)
        count = min(TABLE_ENTRIES, phys_frame_count - first)
        space.store.deferred[leaf] = (first, count, None)
        table[(vaddr >> 21) & 0x1FF] = leaf << 12 | P | RW
