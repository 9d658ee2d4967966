"""Regular-OS model tests: syscalls, demand paging, partners, join."""

import pytest

from hrtsim.channel import EventKind
from hrtsim.errors import FormatError, SymbolError, UsageError
from hrtsim.mem import PAGE_SIZE, AccessKind, FaultInfo, translate
from hrtsim.ros import (
    EINVAL,
    ENOSYS,
    MMAP_BASE,
    RosThreadRole,
    RosThreadStatus,
    init_runtime,
)

from conftest import make_fat


def mapped_pages(ros, base, length):
    """Page-presence bitmap oracle built from raw translations."""
    ctl = ros.control_state()
    return [
        not isinstance(translate(ros.proc.space, ctl, page, AccessKind.READ), FaultInfo)
        for page in range(base, base + length, PAGE_SIZE)
    ]


class TestMmap:
    def test_lazy_region_has_no_pages(self, system):
        base = system.ros.sys_mmap(4 * PAGE_SIZE)
        assert base == MMAP_BASE
        assert mapped_pages(system.ros, base, 4 * PAGE_SIZE) == [False] * 4

    def test_populate_maps_eagerly(self, system):
        base = system.ros.sys_mmap(4 * PAGE_SIZE, populate=True)
        assert mapped_pages(system.ros, base, 4 * PAGE_SIZE) == [True] * 4

    def test_zero_length_rejected(self, system):
        assert system.ros.sys_mmap(0) == EINVAL
        assert system.ros.sys_mmap(-4096) == EINVAL

    def test_length_rounded_to_pages(self, system):
        base = system.ros.sys_mmap(100)
        region = system.ros.region_at(base)
        assert region.length == PAGE_SIZE

    def test_bases_are_deterministic(self, system):
        first = system.ros.sys_mmap(2 * PAGE_SIZE)
        second = system.ros.sys_mmap(PAGE_SIZE)
        assert second == first + 2 * PAGE_SIZE


class TestMunmap:
    def test_full_unmap(self, system):
        ros = system.ros
        base = ros.sys_mmap(3 * PAGE_SIZE, populate=True)
        assert ros.sys_munmap(base, 3 * PAGE_SIZE) == 0
        assert mapped_pages(ros, base, 3 * PAGE_SIZE) == [False] * 3
        assert ros.region_at(base) is None

    def test_partial_unmap_splits_region(self, system):
        ros = system.ros
        base = ros.sys_mmap(5 * PAGE_SIZE, populate=True)
        # Punch out the middle page; both remainders must survive.
        assert ros.sys_munmap(base + 2 * PAGE_SIZE, PAGE_SIZE) == 0
        assert mapped_pages(ros, base, 5 * PAGE_SIZE) == [True, True, False, True, True]
        assert ros.region_at(base).length == 2 * PAGE_SIZE
        assert ros.region_at(base + 3 * PAGE_SIZE).base == base + 3 * PAGE_SIZE
        assert ros.region_at(base + 2 * PAGE_SIZE) is None

    def test_unaligned_base_rejected(self, system):
        base = system.ros.sys_mmap(PAGE_SIZE)
        assert system.ros.sys_munmap(base + 7, PAGE_SIZE) == EINVAL

    def test_range_beyond_region_rejected(self, system):
        base = system.ros.sys_mmap(PAGE_SIZE)
        assert system.ros.sys_munmap(base, 2 * PAGE_SIZE) == EINVAL

    def test_unmapped_base_rejected(self, system):
        assert system.ros.sys_munmap(0x9999_0000, PAGE_SIZE) == EINVAL


class TestSyscalls:
    def test_write_appends_output(self, system):
        assert system.ros.syscall("write", (1, 14)) == 14
        assert system.ros.proc.output == ["write(fd=1,n=14)"]

    def test_unknown_syscall(self, system):
        assert system.ros.syscall("getpid_unmodeled", ()) == ENOSYS

    def test_touch_demand_pages_once(self, system):
        ros = system.ros
        base = ros.sys_mmap(PAGE_SIZE)
        start = len(system.log.entries)
        assert ros.touch(base, AccessKind.WRITE, origin_tid=1)
        assert ros.touch(base, AccessKind.WRITE, origin_tid=1)
        faults = [
            e for e in system.log.entries[start:] if e.kind == EventKind.PAGE_FAULT.value
        ]
        assert len(faults) == 1
        assert faults[0].cost == system.cost.pagefault_base

    def test_touch_outside_any_region_fails(self, system):
        ros = system.ros
        assert not ros.touch(0x4242_0000, AccessKind.READ, origin_tid=1)
        assert ros.proc.failed
        assert "segfault" in ros.proc.fail_reason

    def test_write_to_readonly_region_fails(self, system):
        ros = system.ros
        base = ros.sys_mmap(PAGE_SIZE, writable=False)
        assert not ros.touch(base, AccessKind.WRITE, origin_tid=1)
        assert ros.proc.failed


class TestInitRuntime:
    def test_full_sequence(self, system):
        from hrtsim.hrt import CoreStatus
        from hrtsim.mem import lower_halves_consistent

        proc = init_runtime(system, make_fat())
        assert proc is system.ros.proc
        assert system.ros.signal_handlers_registered
        assert system.ros.exit_hook_registered
        assert system.channel.merged
        for core_id in system.machine.hrt_core_ids:
            assert system.hrt.cores[core_id].status is CoreStatus.IDLE_EVENT_LOOP
        assert lower_halves_consistent(system.hrt.space, system.ros.proc.space)

    def test_merge_charged_once(self, system):
        init_runtime(system, make_fat())
        merges = [
            e for e in system.log.entries if e.kind == EventKind.MERGE_REQUEST.value
        ]
        assert len(merges) == 1
        assert merges[0].cost == system.cost.merger

    def test_corrupt_image_propagates(self, system):
        blob = bytearray(make_fat())
        blob[0] ^= 0xFF
        with pytest.raises(FormatError):
            init_runtime(system, bytes(blob))


class TestSpawn:
    def test_spawn_creates_partner_and_twin(self, booted):
        ros = booted.ros
        partner = ros.spawn_hrt("worker")
        assert partner.hrt_thread in booted.hrt.threads
        assert booted.hrt.threads[partner.hrt_thread].partner == partner.tid
        assert booted.hrt.ancestor_partner(partner.hrt_thread) == partner.tid
        assert partner.tid in booted.channel.queues
        assert partner.stack_region is not None
        kinds = [e.kind for e in booted.log.entries]
        assert "AsyncCall" in kinds
        assert EventKind.THREAD_CREATE.value in kinds

    def test_spawn_charges_async_call(self, booted):
        start = booted.clock.now
        booted.ros.spawn_hrt("worker")
        assert booted.clock.now - start == booted.cost.async_call

    def test_spawn_unknown_symbol_changes_nothing(self, booted):
        threads_before = dict(booted.ros.threads)
        with pytest.raises(SymbolError):
            booted.ros.spawn_hrt("missing_fn")
        assert booted.ros.threads == threads_before

    def test_spawn_payload_names_twin(self, booted):
        seen = []
        handler = booted.channel.on_async_call
        booted.channel.on_async_call = lambda request: seen.append(request) or handler(request)
        partner = booted.ros.spawn_hrt("helper")
        (request,) = seen
        assert request.func_addr == booted.hrt.function_table.lookup("helper")[0]
        assert request.func_name == "helper"
        assert request.partner_tid == partner.tid
        assert request.superposition.tls_base == partner.stack_region.end - PAGE_SIZE
        twin = booted.hrt.threads[partner.hrt_thread]
        assert (twin.func_name, twin.superposition) == ("helper", request.superposition)


class TestForwardedService:
    def make_partner(self, booted):
        return booted.ros.spawn_hrt("worker")

    def test_forwarded_syscall_adds_base_cost(self, booted):
        partner = self.make_partner(booted)
        ev = booted.hrt.make_syscall_event(partner.hrt_thread, "write", (1, 8))
        booted.channel.forward_event(ev, partner.tid)
        booted.ros.serve_forwarded(partner, ev)
        assert ev.result == 8
        assert ev.cost == booted.cost.forward_overhead + booted.cost.syscall_base

    def test_forwarded_fault_maps_page(self, booted):
        partner = self.make_partner(booted)
        base = booted.ros.sys_mmap(PAGE_SIZE)
        fault = FaultInfo(base, AccessKind.WRITE, None)
        ev = booted.hrt.make_fault_event(partner.hrt_thread, fault)
        booted.channel.forward_event(ev, partner.tid)
        booted.ros.serve_forwarded(partner, ev)
        assert ev.result == 0
        assert mapped_pages(booted.ros, base, PAGE_SIZE) == [True]

    def test_forwarded_fault_outside_region_reports_efault(self, booted):
        from hrtsim.ros import EFAULT

        partner = self.make_partner(booted)
        fault = FaultInfo(0x4141_0000, AccessKind.WRITE, None)
        ev = booted.hrt.make_fault_event(partner.hrt_thread, fault)
        booted.channel.forward_event(ev, partner.tid)
        booted.ros.serve_forwarded(partner, ev)
        assert ev.result == EFAULT
        assert booted.ros.proc.failed

    def test_partner_step_serves_then_exits(self, booted):
        partner = self.make_partner(booted)
        exit_ev = booted.hrt.thread_exit(partner.hrt_thread)
        booted.channel.forward_event(exit_ev, partner.tid)
        assert booted.ros.partner_step(partner)  # serves the exit signal
        assert partner.exit_bit
        assert booted.ros.partner_step(partner)  # cleanup step
        assert partner.status is RosThreadStatus.EXITED
        assert partner.tid not in booted.channel.queues
        assert not booted.ros.partner_step(partner)

    def test_idle_partner_makes_no_progress(self, booted):
        partner = self.make_partner(booted)
        assert not booted.ros.partner_step(partner)


class TestJoin:
    def exited_partner(self, booted):
        partner = booted.ros.spawn_hrt("worker")
        exit_ev = booted.hrt.thread_exit(partner.hrt_thread)
        booted.channel.forward_event(exit_ev, partner.tid)
        booted.ros.partner_step(partner)
        booted.ros.partner_step(partner)
        return partner

    def test_join_after_exit_resumes_immediately(self, booted):
        partner = self.exited_partner(booted)
        booted.ros.join(booted.ros.main, partner.tid)
        assert booted.ros.main.status is RosThreadStatus.RUNNABLE
        assert partner.joined

    def test_join_before_exit_blocks(self, booted):
        partner = booted.ros.spawn_hrt("worker")
        booted.ros.join(booted.ros.main, partner.tid)
        assert booted.ros.main.status is RosThreadStatus.BLOCKED_JOIN
        assert not booted.ros.try_finish_join(booted.ros.main)

    def test_unblock_order_recorded(self, booted):
        partner = self.exited_partner(booted)
        booted.ros.join(booted.ros.main, partner.tid)
        labels = [label for _, label, tid in booted.ros.join_log if tid == partner.tid]
        assert labels == ["exit_bit", "partner_exit", "join_resume"]

    def test_local_thread_join(self, booted):
        ros = booted.ros
        local = ros._new_thread(RosThreadRole.LOCAL)
        ros.join(ros.main, local.tid)
        assert ros.main.status is RosThreadStatus.BLOCKED_JOIN
        local.status = RosThreadStatus.EXITED
        assert ros.try_finish_join(ros.main)
        assert local.joined

    def test_join_non_partner_rejected(self, booted):
        with pytest.raises(UsageError):
            booted.ros.join(booted.ros.main, booted.ros.main.tid)

    def test_double_join_rejected(self, booted):
        partner = self.exited_partner(booted)
        booted.ros.join(booted.ros.main, partner.tid)
        with pytest.raises(UsageError):
            booted.ros.join(booted.ros.main, partner.tid)

    def test_partner_cannot_join(self, booted):
        partner = booted.ros.spawn_hrt("worker")
        with pytest.raises(UsageError):
            booted.ros.join(partner, partner.tid)
