"""Kernel-mode runtime tests: boot, threads, fault classification, symbols."""

import pytest

from hrtsim.channel import EventKind
from hrtsim.errors import (
    BootError,
    InstallError,
    LifecycleError,
    PartitionError,
    ProtocolError,
    SymbolError,
)
from hrtsim.hrt import (
    CoreStatus,
    FaultResolution,
    Superposition,
    ThreadKind,
    ThreadStatus,
)
from hrtsim.mem import (
    HIGHER_BASE,
    PAGE_SIZE,
    AccessKind,
    FaultInfo,
    FaultReason,
    map_page,
    translate,
)
from hrtsim.toolchain import AeroKernelImage

from conftest import make_fat

SUPER = Superposition(gdt_snapshot=("gdt", 1, 2), tls_base=0x7FFF_0000_0000)


def top_level(system, name="worker"):
    system.channel.register_endpoint(2)
    return system.hrt.create_top_level_thread(name, SUPER, partner_tid=2)


class TestBoot:
    def test_install_registers_symbols(self, booted):
        addr, _ = booted.hrt.function_table.lookup("worker")
        assert addr >= HIGHER_BASE

    def test_double_install(self, booted):
        from hrtsim.toolchain import parse_fat_binary

        _, image = parse_fat_binary(make_fat(("other",)))
        with pytest.raises(InstallError):
            booted.hrt.install_image(image)

    def test_oversized_image(self, system):
        image = AeroKernelImage("f", {"f": HIGHER_BASE}, payload_size=1 << 40)
        with pytest.raises(InstallError):
            system.hrt.install_image(image)

    def test_boot_without_image(self, system):
        with pytest.raises(BootError):
            system.hrt.boot(system.machine.hrt_core_ids)

    def test_boot_ros_core_rejected(self, system):
        from hrtsim.toolchain import parse_fat_binary

        _, image = parse_fat_binary(make_fat())
        system.hrt.install_image(image)
        with pytest.raises(PartitionError):
            system.hrt.boot([system.machine.ros_core_ids[0]])

    def test_booted_cores_idle(self, booted):
        for core_id in booted.machine.hrt_core_ids:
            assert booted.hrt.cores[core_id].status is CoreStatus.IDLE_EVENT_LOOP

    def test_reboot_clears_threads_and_lower_half(self, booted):
        thread = top_level(booted)
        assert thread.tid in booted.hrt.threads
        booted.hrt.reboot()
        assert booted.hrt.threads == {}
        assert not booted.channel.merged
        root = booted.hrt.space.root()
        assert all(root[i] is None for i in range(256))

    def test_shutdown_offlines_cores(self, booted):
        booted.hrt.shutdown()
        assert booted.hrt.booted_cores() == []


class TestThreads:
    def test_create_before_merge(self, system):
        from hrtsim.toolchain import parse_fat_binary

        _, image = parse_fat_binary(make_fat())
        system.hrt.install_image(image)
        system.hrt.boot(system.machine.hrt_core_ids)
        with pytest.raises(ProtocolError):
            top_level(system)

    def test_create_unknown_symbol(self, booted):
        with pytest.raises(SymbolError):
            top_level(booted, "no_such_fn")

    def test_create_without_booted_cores(self, booted):
        booted.hrt.shutdown()
        booted.channel.merged = True
        with pytest.raises(BootError):
            top_level(booted)

    def test_top_level_carries_superposition(self, booted):
        thread = top_level(booted)
        assert thread.kind is ThreadKind.TOP_LEVEL
        assert thread.superposition == SUPER
        assert thread.partner == 2
        assert booted.hrt.cores[thread.core_id].current_thread == thread.tid

    def test_nested_routing_depth_three(self, booted):
        top = top_level(booted)
        mid = booted.hrt.create_nested_thread(top.tid, "helper")
        leaf = booted.hrt.create_nested_thread(mid.tid, "leaf")
        assert leaf.kind is ThreadKind.NESTED
        # Events from any depth route to the top-level thread's partner.
        for tid in (top.tid, mid.tid, leaf.tid):
            assert booted.hrt.ancestor_partner(tid) == 2

    def test_nested_from_exited_parent(self, booted):
        top = top_level(booted)
        booted.hrt.thread_exit(top.tid)
        with pytest.raises(LifecycleError):
            booted.hrt.create_nested_thread(top.tid, "helper")

    def test_top_level_exit_signals_partner(self, booted):
        top = top_level(booted)
        ev = booted.hrt.thread_exit(top.tid)
        assert ev is not None
        assert ev.kind is EventKind.THREAD_EXIT_SIGNAL
        assert booted.hrt.threads[top.tid].status is ThreadStatus.EXITED
        assert booted.hrt.cores[top.core_id].status is CoreStatus.IDLE_EVENT_LOOP

    def test_nested_exit_is_silent(self, booted):
        top = top_level(booted)
        nested = booted.hrt.create_nested_thread(top.tid, "helper")
        assert booted.hrt.thread_exit(nested.tid) is None

    def test_double_exit(self, booted):
        top = top_level(booted)
        booted.hrt.thread_exit(top.tid)
        with pytest.raises(LifecycleError):
            booted.hrt.thread_exit(top.tid)


class TestFaultPath:
    def test_higher_half_handled_locally(self, booted):
        hrt = booted.hrt
        addr = HIGHER_BASE + booted.machine.phys_frames * PAGE_SIZE + 0x5000
        fault = FaultInfo(addr, AccessKind.WRITE, FaultReason.NOT_PRESENT)
        log_before = len(booted.log.entries)
        resolution = hrt.handle_page_fault(hrt.machine.hrt_core_ids[0], fault)
        assert resolution is FaultResolution.HANDLED_LOCAL
        assert not isinstance(
            translate(hrt.space, hrt.control_state(), addr, AccessKind.WRITE), FaultInfo
        )
        assert len(booted.log.entries) == log_before
        assert booted.channel.outstanding == []

    def test_higher_half_uses_private_frames(self, booted):
        hrt = booted.hrt
        addr = HIGHER_BASE + booted.machine.phys_frames * PAGE_SIZE
        hrt.handle_page_fault(hrt.machine.hrt_core_ids[0], FaultInfo(addr, AccessKind.WRITE, FaultReason.NOT_PRESENT))
        paddr = translate(hrt.space, hrt.control_state(), addr, AccessKind.READ)
        assert paddr // PAGE_SIZE >= booted.machine.ros_frames

    def test_first_lower_fault_forwards(self, booted):
        hrt = booted.hrt
        core = hrt.machine.hrt_core_ids[0]
        fault = FaultInfo(0x5000_0000, AccessKind.READ, FaultReason.NOT_PRESENT)
        assert hrt.handle_page_fault(core, fault) is FaultResolution.FORWARD
        assert hrt.cores[core].recent_fault == (0x5000_0000, AccessKind.READ)

    def test_duplicate_fault_triggers_local_remerge(self, booted):
        hrt, ros = booted.hrt, booted.ros
        core = hrt.machine.hrt_core_ids[0]
        # The other side installs a mapping under a brand-new root entry
        # after the merge, so the runtime's copy of the root is stale.
        addr = 0x0280_0000_0000  # 512 GiB slot 5, untouched so far
        fault = FaultInfo(addr, AccessKind.WRITE, FaultReason.NOT_PRESENT)
        assert hrt.handle_page_fault(core, fault) is FaultResolution.FORWARD
        frame = booted.machine.ros_frame_alloc.alloc()
        map_page(ros.proc.space, addr, frame)
        assert hrt.handle_page_fault(core, fault) is FaultResolution.RETRY_AFTER_REMERGE
        assert hrt.remerge_count == 1
        assert translate(hrt.space, hrt.control_state(), addr, AccessKind.WRITE) == frame * PAGE_SIZE
        remerges = [e for e in booted.log.entries if e.detail.startswith("remerge:")]
        assert len(remerges) == 1
        assert remerges[0].kind == EventKind.MERGE_REQUEST.value

    def test_distinct_faults_not_treated_as_duplicates(self, booted):
        hrt = booted.hrt
        core = hrt.machine.hrt_core_ids[0]
        f1 = FaultInfo(0x5000_0000, AccessKind.READ, FaultReason.NOT_PRESENT)
        f2 = FaultInfo(0x5000_1000, AccessKind.READ, FaultReason.NOT_PRESENT)
        assert hrt.handle_page_fault(core, f1) is FaultResolution.FORWARD
        assert hrt.handle_page_fault(core, f2) is FaultResolution.FORWARD
        assert hrt.remerge_count == 0


class TestSymbols:
    def test_cached_resolution_charges_hit(self, booted):
        hrt = booted.hrt
        start = booted.clock.now
        hrt.resolve_symbol("worker")
        assert booted.clock.now - start == booted.cost.symbol_lookup
        start = booted.clock.now
        hrt.resolve_symbol("worker")
        assert booted.clock.now - start == booted.cost.cache_hit

    def test_uncached_resolution_always_pays_lookup(self, booted):
        hrt = booted.hrt
        hrt.symbol_cache = None
        for _ in range(3):
            start = booted.clock.now
            hrt.resolve_symbol("worker")
            assert booted.clock.now - start == booted.cost.symbol_lookup

    def test_unknown_symbol(self, booted):
        with pytest.raises(SymbolError):
            booted.hrt.resolve_symbol("missing")
