"""Page table, canonical addressing, and lower-half merger tests."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrtsim.errors import AllocationError, NonCanonicalAddressError
from hrtsim.mem import (
    HIGHER_BASE,
    PAGE_SIZE,
    READ,
    RW,
    WRITE,
    FrameAllocator,
    P,
    PageTableHierarchy,
    TableStore,
    absent_tables,
    ensure_root_entry,
    identity_map_higher_half,
    is_canonical,
    map_page,
    merge_lower_half,
    translate,
    unmap_page,
)

from pagewalk import (
    assert_leaf_tables_sound,
    identity_map_per_leaf,
    lower_halves_consistent,
    mapped_lower_pages,
    table_indices,
    upper_entries,
    walk,
)

def make_space(frames: int = 512) -> PageTableHierarchy:
    store = TableStore()
    alloc = FrameAllocator(0, frames, "ros_visible")
    return PageTableHierarchy(store, alloc)


def shared_spaces(frames: int = 512) -> tuple[PageTableHierarchy, PageTableHierarchy]:
    """Two hierarchies over one table store, as on a real machine."""
    store = TableStore()
    ros = PageTableHierarchy(store, FrameAllocator(0, frames, "ros_visible"))
    hrt = PageTableHierarchy(store, FrameAllocator(frames, 2 * frames, "hrt_only"))
    return hrt, ros


class TestFrameAllocator:
    def test_take_reserves_what_alloc_would(self):
        one_by_one, at_once = (FrameAllocator(10, 20, "hrt_only") for _ in range(2))
        firsts = [one_by_one.take(1) for _ in range(4)]
        assert at_once.take(4) == firsts[0] == 10
        assert at_once.frames_left == one_by_one.frames_left == 6
        assert at_once.take(1) == one_by_one.take(1) == 14

    def test_take_up_to_the_end(self):
        alloc = FrameAllocator(10, 20, "hrt_only")
        alloc.take(1)
        assert alloc.take(9) == 11
        assert alloc.frames_left == 0
        with pytest.raises(AllocationError):
            alloc.take(1)

    def test_take_more_than_left_changes_nothing(self):
        alloc = FrameAllocator(10, 20, "hrt_only")
        alloc.take(3)
        with pytest.raises(AllocationError):
            alloc.take(8)
        assert alloc.frames_left == 7
        assert alloc.take(7) == 13


def first_fault(system, addr: int) -> bool:
    """Whether the booted runtime forwards a first not-present read of addr."""
    hrt = system.hrt
    return hrt.handle_page_fault(hrt.machine.hrt_core_ids[0], addr, READ)


class TestCanonical:
    def test_lower_half(self, booted):
        assert is_canonical(0)
        assert is_canonical(0x7FFF_FFFF_FFFF)
        assert first_fault(booted, 0x1000) is True  # the regular OS's half

    def test_higher_half(self, booted):
        assert is_canonical(HIGHER_BASE)
        assert is_canonical(0xFFFF_FFFF_FFFF_F000)
        assert first_fault(booted, HIGHER_BASE) is False  # handled by the runtime

    def test_hole_rejected(self):
        assert not is_canonical(1 << 47)
        assert not is_canonical(0x8000_0000_0000_0000)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_bit47_sign_extension_rule(self, value):
        top = value >> 47
        assert is_canonical(value) == (top == 0 or top == 0x1FFFF)

    def test_translate_rejects_non_canonical(self):
        space = make_space()
        with pytest.raises(NonCanonicalAddressError):
            translate(space, 1 << 47, READ)

    @pytest.mark.parametrize("addr", [-PAGE_SIZE, -1, 1 << 64, (1 << 64) + 0x1000_0000_0000])
    def test_ints_outside_64_bits_are_not_canonical(self, addr):
        assert not is_canonical(addr)

    def test_no_alias_beyond_64_bits(self):
        # An int beyond 64 bits must not alias the page its low 64 bits name.
        page = 0x1000_0000_0000
        space = make_space()
        map_page(space, page, 7)
        for alias in ((1 << 64) + page, page - (1 << 64)):
            with pytest.raises(NonCanonicalAddressError):
                translate(space, alias, READ)
            with pytest.raises(NonCanonicalAddressError):
                map_page(space, alias, 8)
            with pytest.raises(NonCanonicalAddressError):
                unmap_page(space, alias)
        assert translate(space, page, READ) == 7 * PAGE_SIZE


class TestTranslate:
    def test_empty_table_faults(self):
        space = make_space()
        assert translate(space, 0x1000, READ) is None

    def test_map_then_translate(self):
        space = make_space()
        map_page(space, 0x2000, 7)
        assert translate(space, 0x2000, READ) == 7 * PAGE_SIZE
        assert translate(space, 0x2abc, READ) == 7 * PAGE_SIZE + 0xABC

    def test_map_unmap_faults(self):
        space = make_space()
        map_page(space, 0x2000, 7)
        unmap_page(space, 0x2000)
        assert translate(space, 0x2000, READ) is None

    def test_remap_replaces(self):
        space = make_space()
        map_page(space, 0x2000, 7)
        map_page(space, 0x2000, 9)
        assert translate(space, 0x2000, READ) == 9 * PAGE_SIZE

    def test_unmap_unmapped_noop(self):
        space = make_space()
        unmap_page(space, 0x5000)  # must not raise

    def test_map_unmap_map_latest_wins(self):
        space = make_space()
        map_page(space, 0x3000, 4)
        unmap_page(space, 0x3000)
        map_page(space, 0x3000, 11)
        assert translate(space, 0x3000, READ) == 11 * PAGE_SIZE

    def test_unmap_preserves_other_entries(self):
        # Brute-force oracle: translate every mapped page before and after.
        space = make_space()
        pages = {0x1000 * i: 100 + i for i in range(1, 20)}
        for vaddr, frame in pages.items():
            map_page(space, vaddr, frame)
        before = {v: translate(space, v, READ) for v in pages}
        unmap_page(space, 0x5000)
        for vaddr in pages:
            got = translate(space, vaddr, READ)
            if vaddr == 0x5000:
                assert got is None
            else:
                assert got == before[vaddr]

    @pytest.mark.parametrize("first, count", [(0x1F_0000, 32), (0x1F_E000, 3), (0x20_0000, 1)])
    def test_range_unmap_clears_exactly_its_pages(self, first, count):
        # Every other page mapped on both sides of the leaf-table boundary
        # at 0x200000; the range clears its mapped pages and no other.
        space = make_space()
        mapped = {0x1E_0000 + 0x2000 * i for i in range(32)}
        for vaddr in mapped:
            map_page(space, vaddr, 7)
        unmap_page(space, first, count * PAGE_SIZE)
        cleared = set(range(first, first + count * PAGE_SIZE, PAGE_SIZE))
        assert set(mapped_lower_pages(space)) == mapped - cleared

    @pytest.mark.parametrize("length", [0, -PAGE_SIZE, PAGE_SIZE + 1])
    def test_range_unmap_refuses_a_bad_length(self, length):
        space = make_space()
        map_page(space, 0x2000, 7)
        with pytest.raises(NonCanonicalAddressError):
            unmap_page(space, 0x2000, length)
        assert mapped_lower_pages(space) == [0x2000]


class TestWriteProtect:
    def setup_method(self):
        self.space = make_space()
        map_page(self.space, 0x4000, 3, writable=False)
        map_page(self.space, 0x6000, 5, writable=True)

    def test_only_a_write_to_read_only_faults(self):
        # Both kernels set CR0.WP, so the ring makes no difference: of every
        # access to a read-only and a writable page, exactly the write to
        # the read-only one faults.
        assert translate(self.space, 0x4000, WRITE) is None
        faults = {
            (access, perm)
            for access in (READ, WRITE)
            for vaddr, perm in ((0x4000, "ro"), (0x6000, "rw"))
            if translate(self.space, vaddr, access) is None
        }
        assert faults == {(WRITE, "ro")}

    def test_entries_are_x86_64_pte_ints(self):
        # Bit 0 is present, bit 1 writable, and the frame sits above bit 12
        # at every level; an absent entry is 0.
        assert (P, RW) == (1, 2)
        table = self.space.root_table
        for shift in (39, 30, 21):
            table = self.space.store[table[(0x4000 >> shift) & 0x1FF] >> 12]
        assert table[4:7] == [3 << 12 | P, 0, 5 << 12 | P | RW]
        # An entry written in that layout walks the same way: a present
        # read-only leaf reads, and a write to it faults.
        table[5] = 9 << 12 | P
        assert translate(self.space, 0x5abc, READ) == 9 * PAGE_SIZE + 0xABC
        assert translate(self.space, 0x5000, WRITE) is None
        table[7] = 9 << 12 | RW  # writable but not present
        assert translate(self.space, 0x7000, READ) is None

    def test_reads_unaffected(self):
        assert translate(self.space, 0x4000, READ) == 3 * PAGE_SIZE


def eager_identity_map(space: PageTableHierarchy, frames: int) -> None:
    """Reference: one map_page call per physical frame."""
    for f in range(frames):
        map_page(space, HIGHER_BASE + f * PAGE_SIZE, f, writable=True)


# The identity map under test, and its per-leaf oracle.
IDENTITY_MAPS = (identity_map_higher_half, identity_map_per_leaf)


def identity_spaces(
    frames: int, builds=(identity_map_higher_half, eager_identity_map)
) -> list[PageTableHierarchy]:
    """One identity-mapped space per build, each on its own store."""
    spaces = []
    for build in builds:
        spare = -(-frames // 512) + -(-frames // (1 << 18)) + 64
        space = PageTableHierarchy(
            TableStore(), FrameAllocator(frames, frames + spare, "hrt_only")
        )
        build(space, frames)
        spaces.append(space)
    return spaces


def assert_same_identity(lazy, eager, frames):
    """Every identity page plus one past the end, every access."""
    for f in range(frames + 1):
        vaddr = HIGHER_BASE + f * PAGE_SIZE
        for access in (READ, WRITE):
            got = translate(lazy, vaddr + 0x123, access)
            assert got == translate(eager, vaddr + 0x123, access), (f, access)


def table_frames(space: PageTableHierarchy, vaddr: int) -> tuple[int, int, int]:
    """The level-3, level-2 and leaf table frames on vaddr's walk; builds
    no leaf table."""
    i4, i3, i2, _, _ = table_indices(vaddr)
    l3 = space.root_table[i4] >> 12
    l2 = space.store[l3][i3] >> 12
    return l3, l2, space.store[l2][i2] >> 12


def translations(space: PageTableHierarchy, frames: list[int]) -> list:
    """What each identity page translates to, every access."""
    return [
        translate(space, HIGHER_BASE + f * PAGE_SIZE, access)
        for f in frames
        for access in (READ, WRITE)
    ]


def multi_gib_record(build, frames: int) -> list:
    """What `build`'s identity map shows on `frames` frames: cr3; then
    frames_left, per leaf table its table frames and the translations of
    its first and last page, and one page past the end; then all of that
    again, and the edited pages, after edits in the second GiB.  One space
    at a time, so that a test holds one set of built tables."""
    space = identity_spaces(frames, (build,))[0]
    gib = 1 << 18
    edited = [gib + 300, gib + 510, gib + 511, gib + 512, gib + 513, 2 * gib - 1]
    record: list = [space.cr3]
    for edit in (False, True):
        if edit:  # one unmap crosses a leaf-table boundary
            map_page(space, HIGHER_BASE + (gib + 300) * PAGE_SIZE, 3, writable=False)
            unmap_page(space, HIGHER_BASE + (gib + 510) * PAGE_SIZE, 4 * PAGE_SIZE)
            unmap_page(space, HIGHER_BASE + (2 * gib - 1) * PAGE_SIZE)
            map_page(space, HIGHER_BASE + (gib + 511) * PAGE_SIZE, 7)
            record += translations(space, edited)
        record.append(space.frame_alloc.frames_left)
        for first in range(0, frames, 512):
            record.append(table_frames(space, HIGHER_BASE + first * PAGE_SIZE))
            record += translations(space, [first, min(first + 512, frames) - 1])
        record += translations(space, [frames])
    return record


class TestIdentityMap:
    @pytest.mark.parametrize("frames", [512, 1000])
    def test_translate_matches_eager_map(self, frames):
        for build in IDENTITY_MAPS:
            lazy, eager = identity_spaces(frames, (build, eager_identity_map))
            assert_same_identity(lazy, eager, frames)
            assert translate(lazy, HIGHER_BASE + frames * PAGE_SIZE, READ) is None

    @pytest.mark.parametrize("frames", [512, 1000])
    def test_same_table_frames_as_eager_map(self, frames):
        for build in IDENTITY_MAPS:
            lazy, eager = identity_spaces(frames, (build, eager_identity_map))
            assert lazy.cr3 == eager.cr3
            assert lazy.frame_alloc.frames_left == eager.frame_alloc.frames_left
            for first in range(0, frames, 512):
                vaddr = HIGHER_BASE + first * PAGE_SIZE
                assert table_frames(lazy, vaddr) == table_frames(eager, vaddr)
        # Boot defers the one level-2 table; its first walk builds it and
        # defers every leaf table it points at.
        lazy = identity_spaces(frames, (identity_map_higher_half,))[0]
        assert len(lazy.store.deferred) == 1
        table_frames(lazy, HIGHER_BASE)
        assert len(lazy.store.deferred) == -(-frames // 512)

    @pytest.mark.parametrize("frames", [512, 1000])
    def test_edits_inside_identity_range(self, frames):
        for build in IDENTITY_MAPS:
            lazy, eager = identity_spaces(frames, (build, eager_identity_map))
            for space in (lazy, eager):
                map_page(space, HIGHER_BASE + 300 * PAGE_SIZE, 3, writable=False)
                unmap_page(space, HIGHER_BASE + 5 * PAGE_SIZE)
                unmap_page(space, HIGHER_BASE + (frames - 1) * PAGE_SIZE)
            assert_same_identity(lazy, eager, frames)
            assert lazy.frame_alloc.frames_left == eager.frame_alloc.frames_left

    def test_multi_gib_matches_per_leaf_map(self):
        frames = 3 * (1 << 18) + 1000
        record = multi_gib_record(identity_map_higher_half, frames)
        assert record[-1] is None  # the page past the map
        assert record == multi_gib_record(identity_map_per_leaf, frames)

    def test_identity_map_across_a_root_entry(self):
        frames = (1 << 27) + (1 << 18) + 5
        space = PageTableHierarchy(
            TableStore(), FrameAllocator(frames, 2 * frames, "hrt_only")
        )
        before = space.frame_alloc.frames_left
        identity_map_higher_half(space, frames)
        # One table per 512 GiB, per GiB and per 2 MiB.
        tables = -(-frames // (1 << 27)) + -(-frames // (1 << 18)) + -(-frames // 512)
        assert before - space.frame_alloc.frames_left == tables
        for first in range(0, frames, 1 << 18):
            for f in (first, min(first + (1 << 18), frames) - 1):
                got = translate(space, HIGHER_BASE + f * PAGE_SIZE, READ)
                assert got == f * PAGE_SIZE

    def test_identity(self):
        hrt, _ = shared_spaces(frames=64)
        identity_map_higher_half(hrt, 64)
        assert translate(hrt, HIGHER_BASE + 0x1000, READ) == 0x1000
        last = 63 * PAGE_SIZE
        assert translate(hrt, HIGHER_BASE + last, WRITE) == last

    def test_lower_half_unmapped_before_merge(self):
        hrt, _ = shared_spaces(frames=64)
        identity_map_higher_half(hrt, 64)
        assert translate(hrt, 0x1000, READ) is None


class TestMerge:
    def test_translation_equivalence_brute_force(self):
        hrt, ros = shared_spaces()
        rng = random.Random(7)
        for _ in range(40):
            vaddr = rng.randrange(0, 1 << 47, PAGE_SIZE)
            map_page(ros, vaddr, rng.randrange(0, 400))
        merge_lower_half(hrt, ros)
        pages = mapped_lower_pages(ros)
        assert pages
        for vaddr in pages:
            assert translate(hrt, vaddr, READ) == translate(ros, vaddr, READ)

    def test_empty_merge(self):
        hrt, ros = shared_spaces()
        merge_lower_half(hrt, ros)
        assert mapped_lower_pages(hrt) == []

    def test_higher_half_survives_merge(self):
        hrt, ros = shared_spaces(frames=32)
        identity_map_higher_half(hrt, 32)
        map_page(ros, 0x7000, 3)
        merge_lower_half(hrt, ros)
        assert translate(hrt, HIGHER_BASE + 0x2000, READ) == 0x2000

    def test_merge_idempotent(self):
        hrt, ros = shared_spaces()
        map_page(ros, 0x9000, 12)
        merge_lower_half(hrt, ros)
        once = list(hrt.root_table[:256])
        merge_lower_half(hrt, ros)
        assert list(hrt.root_table[:256]) == once

    def test_consistency_flag(self):
        hrt, ros = shared_spaces()
        map_page(ros, 0x9000, 12)
        merge_lower_half(hrt, ros)
        assert lower_halves_consistent(hrt, ros)
        # A mapping crossing into a new 512 GiB slot installs a root entry.
        map_page(ros, 5 << 39, 13)
        assert not lower_halves_consistent(hrt, ros)
        merge_lower_half(hrt, ros)
        assert lower_halves_consistent(hrt, ros)

    def test_sub_table_edits_visible_without_remerge(self):
        hrt, ros = shared_spaces()
        map_page(ros, 0x9000, 12)
        merge_lower_half(hrt, ros)
        map_page(ros, 0xA000, 14)  # same root slot, new leaf
        assert lower_halves_consistent(hrt, ros)
        assert translate(hrt, 0xA000, READ) == 14 * PAGE_SIZE


# Pages the memo test draws from: two lower-half pages that share a leaf
# table, one in another leaf of the same root slot, one in a second root
# slot, two identity-mapped higher-half pages, and ints that are not
# canonical 64-bit addresses.
MEMO_PAGES = (
    0x1000_0000_0000,
    0x1000_0000_1000,
    0x1000_0020_0000,
    0x2000_0000_0000,
    HIGHER_BASE,
    HIGHER_BASE + 0x1000,
)
NOT_CANONICAL = (-PAGE_SIZE, 1 << 47, (1 << 64) + 0x1000_0000_0000)
MEMO_ADDRS = MEMO_PAGES + NOT_CANONICAL
SPACE = st.sampled_from(("hrt", "ros"))
ADDR = st.sampled_from(MEMO_ADDRS)
# A range unmap of 1-600 pages starts at a drawn page or in an unmapped
# gap: two pages below a leaf-table boundary, on the last page of the root
# slot below the first drawn page, or on the last canonical lower-half page,
# where any range longer than one page ends at a non-canonical address.
UNMAP_START = st.sampled_from(
    MEMO_ADDRS + (0x1000_001F_E000, 0x0FFF_FFFF_F000, (1 << 47) - PAGE_SIZE)
)
MEMO_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("map"), SPACE, ADDR, st.integers(0, 63), st.booleans()),
        st.tuples(st.just("unmap"), SPACE, UNMAP_START, st.integers(1, 600)),
        st.tuples(st.just("root"), SPACE, ADDR),
        st.tuples(st.just("merge")),
        st.tuples(
            st.just("translate"),
            SPACE,
            ADDR,
            st.integers(0, PAGE_SIZE - 1),
            st.sampled_from((READ, WRITE)),
        ),
    ),
    max_size=30,
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonCanonicalAddressError:
        return NonCanonicalAddressError


def memo_spaces() -> dict[str, PageTableHierarchy]:
    """The two spaces the memo tests drive, the HRT one identity-mapped."""
    hrt, ros = shared_spaces(frames=64)
    identity_map_higher_half(hrt, 64)
    return {"hrt": hrt, "ros": ros}


def apply_op(spaces: dict[str, PageTableHierarchy], op: tuple) -> None:
    """Run one drawn op; a refused one must raise exactly when its
    address is not canonical, and a refused unmap must clear nothing."""
    if op[0] == "map":
        _, name, addr, frame, writable = op
        done = outcome(map_page, spaces[name], addr, frame, writable)
        assert (done is NonCanonicalAddressError) == (addr in NOT_CANONICAL)
    elif op[0] == "unmap":
        _, name, addr, pages = op
        before = mapped_lower_pages(spaces[name])
        done = outcome(unmap_page, spaces[name], addr, pages * PAGE_SIZE)
        last = addr + (pages - 1) * PAGE_SIZE
        refused = not (is_canonical(addr) and is_canonical(last))
        assert (done is NonCanonicalAddressError) == refused
        if refused:  # raised before clearing any entry
            assert mapped_lower_pages(spaces[name]) == before
    elif op[0] == "root":
        done = outcome(ensure_root_entry, spaces[op[1]], op[2])
        assert (done is NonCanonicalAddressError) == (op[2] in NOT_CANONICAL)
    elif op[0] == "merge":
        merge_lower_half(spaces["hrt"], spaces["ros"])
    else:
        _, name, addr, offset, access = op
        args = (spaces[name], addr + offset, access)
        assert outcome(translate, *args) == outcome(walk, *args)


class TestWalkMemo:
    """Memoised translate equals a full walk, and each cached leaf table is
    the one a full walk reaches, after any sequence of writes to two spaces
    that share their lower-half tables."""

    @settings(max_examples=60, deadline=None)
    @given(MEMO_OPS)
    # Range unmaps that every run tries: across a leaf-table boundary after
    # a merge shared the tables, from the top of one root slot into the
    # next, and on to a non-canonical address.
    @example([
        ("map", "ros", 0x1000_0000_1000, 3, True),
        ("map", "ros", 0x1000_0020_0000, 5, False),
        ("merge",),
        ("unmap", "ros", 0x1000_001F_E000, 3),
        ("unmap", "hrt", 0x0FFF_FFFF_F000, 600),
    ])
    @example([
        ("map", "ros", (1 << 47) - PAGE_SIZE, 4, True),
        ("unmap", "ros", (1 << 47) - PAGE_SIZE, 2),
    ])
    # An HRT-private lower-half leaf table that a merge replaces: the
    # cached table must go with the root entry it was reached through.
    @example([
        ("map", "hrt", 0x1000_0000_1000, 3, True),
        ("translate", "hrt", 0x1000_0000_1000, 0, READ),
        ("merge",),
        ("translate", "hrt", 0x1000_0000_1000, 0, READ),
    ])
    def test_translate_matches_uncached_walk(self, ops):
        spaces = memo_spaces()
        for op in ops:
            apply_op(spaces, op)
            for space in spaces.values():
                assert_leaf_tables_sound(space)
            # Every address in both spaces, read and write: a stale memo
            # entry or leaf table shows at once.
            for space in spaces.values():
                for addr in MEMO_ADDRS:
                    for access in (READ, WRITE):
                        args = (space, addr, access)
                        assert outcome(translate, *args) == outcome(walk, *args), op
                assert_memos_sound(space)
                assert_leaf_tables_sound(space)

    @settings(max_examples=60, deadline=None)
    @given(MEMO_OPS)
    # An unmap that walks to a leaf table the other space built.
    @example([
        ("map", "ros", 0x1000_0000_1000, 3, True),
        ("merge",),
        ("unmap", "hrt", 0x1000_0000_0000, 2),
    ])
    def test_ops_keep_leaf_tables_sound(self, ops):
        # No sweep: the ops' own walks fill `leaf_tables`, so `map_page` and
        # `unmap_page` reach tables that no translate has cached yet.
        spaces = memo_spaces()
        for op in ops:
            apply_op(spaces, op)
            for space in spaces.values():
                assert_leaf_tables_sound(space)


class TestUpperEntries:
    """`leaf_tables` rests on one rule: only a merge rewrites an upper-level
    entry that is present."""

    @settings(max_examples=60, deadline=None)
    @given(MEMO_OPS)
    def test_only_merge_rewrites_a_present_upper_entry(self, ops):
        spaces = memo_spaces()
        for op in ops:
            before = {name: upper_entries(space) for name, space in spaces.items()}
            apply_op(spaces, op)
            if op[0] == "merge":
                continue
            for name, space in spaces.items():
                after = upper_entries(space)
                changed = [p for p, entry in before[name].items() if after.get(p) != entry]
                assert not changed, (op, name, changed)


class TestAbsentTables:
    """`absent_tables` counts the table frames that mapping a range takes."""

    MMAP = 0x1000_0000_0000

    @pytest.mark.parametrize(
        "vaddr, pages, warm, tables",
        [
            (MMAP, 1, None, 3),  # a level-3, a level-2 and a leaf table
            (MMAP + 511 * PAGE_SIZE, 2, None, 4),  # across a leaf table's end
            (MMAP + 511 * PAGE_SIZE, 2, MMAP, 1),  # only the second leaf table is new
            (0x1000_3FFF_F000, 2, None, 5),  # across a level-2 table's end
            (0x7F_FFFF_F000, 2, None, 6),  # across a root entry's end
        ],
    )
    def test_counts_the_table_frames_mapping_takes(self, vaddr, pages, warm, tables):
        space = make_space()
        if warm is not None:
            map_page(space, warm, space.frame_alloc.take(1))
        assert absent_tables(space, vaddr, pages * PAGE_SIZE) == tables
        before = space.frame_alloc.frames_left
        for page in range(vaddr, vaddr + pages * PAGE_SIZE, PAGE_SIZE):
            map_page(space, page, space.frame_alloc.take(1))
        assert before - space.frame_alloc.frames_left == pages + tables
        assert absent_tables(space, vaddr, pages * PAGE_SIZE) == 0


def assert_memos_sound(space):
    """By the uncached walk, `memo` holds present leaves and `wmemo` present
    writable leaves (a write faults on any other), each with its walked
    frame, so no access of a memo's kind to its pages faults."""
    for memo, kinds in (
        (space.memo, (READ,)),
        (space.wmemo, (WRITE,)),
    ):
        for page, leaf in memo.items():
            for access in kinds:
                assert walk(space, page << 12, access) == (leaf >> 12) * PAGE_SIZE
