"""Kernel-mode runtime tests: boot, threads, fault classification, symbols."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrtsim.channel import MERGE_REQUEST, THREAD_CREATE, THREAD_EXIT_SIGNAL
from hrtsim.errors import (
    BootError,
    InstallError,
    LifecycleError,
    PartitionError,
    ProtocolError,
    SymbolError,
)
from hrtsim.mem import (
    EMPTY_TABLE,
    HIGHER_BASE,
    PAGE_SIZE,
    READ,
    WRITE,
    P,
    TableStore,
    map_page,
    translate,
)
from hrtsim.machine import Machine
from hrtsim.ros import DEFAULT_STACK_BYTES, MMAP_BASE, STACK_TOP, init_runtime
from hrtsim.sim import Mode, Simulator, System, parse_workload
from hrtsim.toolchain import AeroKernelImage, SymbolCache

from conftest import make_image, regions, rows, small_machine
from test_schedule import load_bench_workloads


def top_level(system, name="worker"):
    system.channel.register_endpoint(2)
    return system.hrt.create_top_level_thread(name, partner_tid=2)


class TestBoot:
    def test_install_registers_symbols(self, booted):
        # Symbols resolve from the installed image's table, and nowhere else.
        addr = booted.hrt.symbol("worker")
        assert addr == booted.hrt.image.symbol_table["worker"] >= HIGHER_BASE
        with pytest.raises(SymbolError):
            booted.hrt.symbol("no_such_fn")

    def test_no_symbol_before_install(self, system):
        with pytest.raises(SymbolError):
            system.hrt.symbol("worker")

    def test_double_install(self, booted):
        image = make_image(("other",))
        with pytest.raises(InstallError):
            booted.hrt.install_image(image)

    def test_oversized_image(self, system):
        image = AeroKernelImage("f", {"f": HIGHER_BASE}, payload_size=1 << 40)
        with pytest.raises(InstallError):
            system.hrt.install_image(image)

    @pytest.mark.parametrize(
        "payload, frames",
        [(0, 1), (1, 1), (PAGE_SIZE, 1), (PAGE_SIZE + 1, 2), (64 * 1024 + 0x40 * 3, 17)],
    )
    def test_install_reserves_payload_frames(self, system, payload, frames):
        # max(1, ceil(payload / PAGE_SIZE)) HRT frames; no frame number reaches the log.
        alloc, ros_alloc = system.machine.hrt_frame_alloc, system.machine.ros_frame_alloc
        left, ros_left = alloc.frames_left, ros_alloc.frames_left
        system.hrt.install_image(AeroKernelImage("f", {"f": HIGHER_BASE}, payload_size=payload))
        assert (left - alloc.frames_left, ros_alloc.frames_left) == (frames, ros_left)

    def test_refused_install_reserves_nothing(self, system):
        alloc = system.machine.hrt_frame_alloc
        left = alloc.frames_left
        with pytest.raises(InstallError):  # one byte more than the HRT frames hold
            system.hrt.install_image(
                AeroKernelImage("f", {"f": HIGHER_BASE}, payload_size=left * PAGE_SIZE + 1)
            )
        assert (alloc.frames_left, system.hrt.image) == (left, None)
        system.hrt.install_image(
            AeroKernelImage("f", {"f": HIGHER_BASE}, payload_size=left * PAGE_SIZE)
        )
        assert alloc.frames_left == 0
        with pytest.raises(InstallError):  # a second image
            system.hrt.install_image(AeroKernelImage("g", {"g": HIGHER_BASE}, payload_size=1))
        assert alloc.frames_left == 0

    def test_boot_without_image(self, system):
        with pytest.raises(BootError):
            system.hrt.boot(system.machine.hrt_core_ids)

    def test_boot_ros_core_rejected(self, system):
        image = make_image()
        system.hrt.install_image(image)
        with pytest.raises(PartitionError):
            system.hrt.boot([system.machine.ros_core_ids[0]])

    def test_booted_cores_idle(self, booted):
        assert booted.hrt.booted_cores() == booted.machine.hrt_core_ids
        for core_id in booted.machine.hrt_core_ids:
            core = booted.hrt.cores[core_id]
            assert (core.recent_fault, core.current_thread) == (None, None)

    def test_booted_cores_ascend_whatever_the_boot_order(self, system):
        image = make_image()
        system.hrt.install_image(image)
        assert system.hrt.booted_cores() == []
        system.hrt.boot(system.machine.hrt_core_ids[::-1])
        assert system.hrt.booted_cores() == system.machine.hrt_core_ids

    def test_boot_builds_no_identity_table_below_level_3(self):
        # Counts, not time: on a 4 GiB machine boot defers all 4 level-2
        # identity tables; the first touch of an identity page builds
        # exactly its level-2 and its leaf table, and a second builds none.
        # The other deferred tables are the regular OS's two empty level-3
        # tables, below the root entries of its mmap and stack areas.
        system = System(machine=Machine(phys_frames=1 << 20))
        system.hrt.install_image(make_image())
        system.hrt.boot(system.machine.hrt_core_ids)
        store = system.machine.table_store
        empty = {frame for frame, record in store.deferred.items() if record == EMPTY_TABLE}
        assert empty == {e >> 12 for e in system.ros.proc.space.root_table if e & P}
        assert len(store.deferred) == len(empty) + 4
        assert all(leaf is not None for f, (_, _, leaf) in store.deferred.items() if f not in empty)
        tables = len(store)
        vaddr = HIGHER_BASE + 777_777 * PAGE_SIZE
        for _ in range(2):
            got = translate(system.hrt.space, vaddr, READ)
            assert got == 777_777 * PAGE_SIZE
            assert len(store) == tables + 2
            # the three other level-2 tables, and 511 of the touched one's leaves
            assert len(store.deferred) == len(empty) + 3 + 511

    def test_setup_flat_in_machine_size(self):
        # Counts, not time: the runtime's set-up builds the same tables on
        # 16 MiB, 1 GiB and 16 GiB machines, defers the same empty tables,
        # and defers one level-2 identity table per GiB.
        built = set()
        for frames in (1 << 12, 1 << 18, 1 << 22):
            system = System(machine=Machine(phys_frames=frames))
            init_runtime(system, make_image())
            store = system.machine.table_store
            empty = sum(record == EMPTY_TABLE for record in store.deferred.values())
            built.add((len(store), empty))
            assert len(store.deferred) - empty == -(-frames // (1 << 18))
        assert len(built) == 1

    def test_setup_builds_only_tables_a_walk_reaches(self, monkeypatch):
        # Counts, not time: multiverse set-up of boot_large on its 1 GiB
        # machine builds the two root lists, and the identity map's
        # level-3 list that boot writes into, and nothing else.  The first
        # map into the mmap area builds that area's level-3 list exactly
        # once, then one level-2 and two leaf lists.
        built = []
        build = TableStore.__missing__
        monkeypatch.setattr(
            TableStore, "__missing__", lambda store, frame: built.append(frame) or build(store, frame)
        )
        workload = load_bench_workloads()["boot_large"](1)
        system = System(machine=Machine(phys_frames=workload.phys_frames))
        Simulator(system, parse_workload(workload.text), Mode.MULTIVERSE).setup()
        ros, hrt, store = system.ros.proc.space, system.hrt.space, system.machine.table_store
        identity = hrt.root_table[(HIGHER_BASE >> 39) & 0x1FF] >> 12
        assert built == [ros.cr3, hrt.cr3, identity]
        assert set(store) == set(built)
        mmap_area = ros.root_table[(MMAP_BASE >> 39) & 0x1FF] >> 12
        assert store.deferred[mmap_area] == EMPTY_TABLE
        built.clear()
        assert system.ros.sys_mmap(4 << 20, populate=True) == MMAP_BASE
        assert built[0] == mmap_area
        assert built.count(mmap_area) == 1
        assert len(built) == 4
        assert set(store) == {ros.cr3, hrt.cr3, identity, *built}


class TestThreads:
    def test_create_before_merge(self, system):
        image = make_image()
        system.hrt.install_image(image)
        system.hrt.boot(system.machine.hrt_core_ids)
        with pytest.raises(ProtocolError):
            top_level(system)

    def test_create_unknown_symbol(self, booted):
        with pytest.raises(SymbolError):
            top_level(booted, "no_such_fn")

    def test_create_without_booted_cores(self, system):
        image = make_image()
        system.hrt.install_image(image)
        system.hrt.boot([])
        system.hrt.ros_space = system.ros.proc.space  # merged: only the cores are missing
        with pytest.raises(BootError):
            top_level(system)

    def test_top_level_carries_superposition(self, booted):
        # The twin mirrors no regular-OS state: its partner's stack is the
        # one region the spawn adds to the process.
        before = regions(booted.ros)
        partner = booted.ros.spawn_hrt("worker")
        thread = booted.hrt.threads[partner.hrt_thread]
        assert thread.parent is None
        assert thread.partner == partner.tid
        assert booted.hrt.cores[thread.core_id].current_thread == thread.tid
        (stack,) = [r for r in regions(booted.ros) if r not in before]
        assert stack == (STACK_TOP - DEFAULT_STACK_BYTES, DEFAULT_STACK_BYTES, True)

    def test_nested_routing_depth_three(self, booted):
        top = top_level(booted)
        mid = booted.hrt.create_nested_thread(top.tid, "helper")
        leaf = booted.hrt.create_nested_thread(mid.tid, "leaf")
        assert (mid.parent, leaf.parent) == (top.tid, mid.tid)
        # Events from any depth route to the top-level thread's partner.
        for thread in (top, mid, leaf):
            assert booted.hrt.threads[thread.tid].partner == 2

    def test_nested_creation_is_logged_by_the_runtime(self, booted):
        top = top_level(booted)
        start = len(rows(booted.log))
        nested = booted.hrt.create_nested_thread(top.tid, "helper")
        assert rows(booted.log)[start:] == [
            (booted.log.now, THREAD_CREATE, nested.tid, "create_nested:helper", 0)
        ]

    def test_nested_from_exited_parent(self, booted):
        top = top_level(booted)
        booted.hrt.thread_exit(top.tid)
        with pytest.raises(LifecycleError):
            booted.hrt.create_nested_thread(top.tid, "helper")

    def test_top_level_exit_signals_partner(self, booted):
        top = top_level(booted)
        ev = booted.hrt.thread_exit(top.tid)
        assert ev is not None
        assert ev.kind is THREAD_EXIT_SIGNAL
        assert (ev.origin, ev.detail) == (top.tid, f"exit:{top.tid}")
        assert booted.hrt.threads[top.tid].exited
        assert booted.hrt.cores[top.core_id].current_thread is None

    def test_nested_exit_is_silent(self, booted):
        top = top_level(booted)
        nested = booted.hrt.create_nested_thread(top.tid, "helper")
        assert booted.hrt.thread_exit(nested.tid) is None

    def test_double_exit(self, booted):
        top = top_level(booted)
        booted.hrt.thread_exit(top.tid)
        with pytest.raises(LifecycleError):
            booted.hrt.thread_exit(top.tid)


def walked_partner(threads, tid, given_partner):
    """Oracle: walk parent links to the top-level ancestor and return the
    partner that ancestor was created with."""
    thread = threads[tid]
    while thread.parent is not None:
        thread = threads[thread.parent]
    return given_partner[thread.tid]


# Each step creates one thread: a top-level one, or a nested one under the
# live thread that `pick` selects among those of depth < 4.
THREAD_TREES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63), st.sampled_from(["worker", "helper", "leaf"])),
    min_size=1,
    max_size=16,
)


class TestPartnerRecord:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(THREAD_TREES, st.data())
    def test_partner_matches_parent_walk(self, steps, data):
        system = System(machine=small_machine())
        init_runtime(system, make_image(("worker", "helper", "leaf")))
        hrt = system.hrt
        given_partner: dict[int, int] = {}  # top-level tid -> partner it was created with
        depth: dict[int, int] = {}
        for top, pick, name in steps:
            parents = [tid for tid, d in depth.items() if d < 4]
            if top or not parents:
                partner_tid = 100 + len(given_partner)
                thread = hrt.create_top_level_thread(name, partner_tid)
                given_partner[thread.tid] = partner_tid
                depth[thread.tid] = 1
            else:
                parent = parents[pick % len(parents)]
                thread = hrt.create_nested_thread(parent, name)
                depth[thread.tid] = depth[parent] + 1
        assert set(hrt.threads) == set(depth)
        for tid, thread in hrt.threads.items():
            assert thread.partner == walked_partner(hrt.threads, tid, given_partner)
        # Exits in any order: only a top-level exit signals its partner.
        for tid in data.draw(st.permutations(sorted(depth))):
            ev = hrt.thread_exit(tid)
            if tid in given_partner:
                assert (ev.kind, ev.origin) == (THREAD_EXIT_SIGNAL, tid)
            else:
                assert ev is None


class TestFaultPath:
    def test_higher_half_handled_locally(self, booted):
        hrt = booted.hrt
        addr = HIGHER_BASE + booted.machine.phys_frames * PAGE_SIZE + 0x5000
        log_before = len(rows(booted.log))
        # Not forwarded, and handled without a re-merge.
        assert hrt.handle_page_fault(hrt.machine.hrt_core_ids[0], addr, WRITE) is False
        assert hrt.remerge_count == 0
        assert translate(hrt.space, addr, WRITE) is not None
        assert len(rows(booted.log)) == log_before
        assert booted.channel.outstanding == []

    def test_higher_half_uses_private_frames(self, booted):
        hrt = booted.hrt
        addr = HIGHER_BASE + booted.machine.phys_frames * PAGE_SIZE
        hrt.handle_page_fault(hrt.machine.hrt_core_ids[0], addr, WRITE)
        paddr = translate(hrt.space, addr, READ)
        assert paddr // PAGE_SIZE >= booted.machine.ros_frames

    def test_first_lower_fault_forwards(self, booted):
        hrt = booted.hrt
        core = hrt.machine.hrt_core_ids[0]
        assert hrt.handle_page_fault(core, 0x5000_0000, READ) is True
        assert hrt.cores[core].recent_fault == (0x5000_0000, READ)

    def test_duplicate_fault_triggers_local_remerge(self, booted):
        hrt, ros = booted.hrt, booted.ros
        core = hrt.machine.hrt_core_ids[0]
        # The other side installs a mapping under a brand-new root entry
        # after the merge, so the runtime's copy of the root is stale.
        addr = 0x0280_0000_0000  # 512 GiB slot 5, untouched so far
        assert hrt.handle_page_fault(core, addr, WRITE) is True
        frame = booted.machine.ros_frame_alloc.take(1)
        map_page(ros.proc.space, addr, frame)
        # Not forwarded again: re-merged, which the count and the log show.
        assert hrt.handle_page_fault(core, addr, WRITE) is False
        assert hrt.remerge_count == 1
        assert translate(hrt.space, addr, WRITE) == frame * PAGE_SIZE
        remerges = [
            kind for _, kind, _, detail, _ in rows(booted.log) if detail.startswith("remerge:")
        ]
        assert remerges == [MERGE_REQUEST]

    def test_distinct_faults_not_treated_as_duplicates(self, booted):
        hrt = booted.hrt
        core = hrt.machine.hrt_core_ids[0]
        assert hrt.handle_page_fault(core, 0x5000_0000, READ) is True
        assert hrt.handle_page_fault(core, 0x5000_1000, READ) is True
        assert hrt.remerge_count == 0


class TestSymbols:
    def test_cached_resolution_charges_hit(self, booted):
        hrt = booted.hrt
        start = booted.log.now
        hrt.resolve_symbol("worker", 1000)
        assert booted.log.now - start == booted.cost.symbol_lookup
        start = booted.log.now
        hrt.resolve_symbol("worker", 1000)
        assert booted.log.now - start == booted.cost.cache_hit
        # Each resolution is charged by the SymbolLookup entry that records it.
        assert rows(booted.log)[-2:] == [
            (start, "SymbolLookup", 1000, "sym:worker", booted.cost.symbol_lookup),
            (booted.log.now, "SymbolLookup", 1000, "sym:worker", booted.cost.cache_hit),
        ]

    def test_uncached_resolution_always_pays_lookup(self, booted):
        hrt = booted.hrt
        hrt.symbol_cache = SymbolCache(capacity=0)  # remembers nothing
        for _ in range(3):
            start = booted.log.now
            hrt.resolve_symbol("worker", 1000)
            assert booted.log.now - start == booted.cost.symbol_lookup
            _, _, _, _, cost = rows(booted.log)[-1]
            assert cost == booted.cost.symbol_lookup

    def test_unknown_symbol(self, booted):
        entries = len(rows(booted.log))
        with pytest.raises(SymbolError):
            booted.hrt.resolve_symbol("missing", 1000)
        assert len(rows(booted.log)) == entries
