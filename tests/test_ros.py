"""Regular-OS model tests: syscalls, demand paging, partners, join."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hrtsim.mem
from hrtsim.channel import MERGE_REQUEST, PAGE_FAULT, SYSCALL, THREAD_CREATE, EventRecord, fault_detail, syscall_detail
from hrtsim.errors import AllocationError, InstallError, SymbolError, UsageError
from hrtsim.mem import PAGE_SIZE, READ, WRITE, translate
from hrtsim.ros import (
    DEFAULT_STACK_BYTES,
    EINVAL,
    ENOMEM,
    ENOSYS,
    MMAP_BASE,
    STACK_TOP,
    init_runtime,
)
from hrtsim.sim import Mode, Simulator, System, parse_workload

from conftest import make_image, record_joins, regions, rows, small_machine
from pagewalk import lower_halves_consistent, upper_entries, walk


def region_at(ros, addr):
    """Oracle: the live region containing addr, by linear scan, or None."""
    for region in regions(ros):
        base, length, _ = region
        if base <= addr < base + length:
            return region
    return None


def mapped_pages(ros, base, length):
    """Page-presence bitmap oracle built from raw translations."""
    return [
        translate(ros.proc.space, page, READ) is not None
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

    def test_populate_that_cannot_fit_changes_nothing(self, system):
        # ENOMEM on a 512-frame machine: no region is left behind, no frame
        # is spent, and the next mmap gets the base this one would have had.
        ros = system.ros
        frames = ros.machine.ros_frame_alloc
        assert frames.frames_left == 381
        assert ros.sys_mmap(512 * PAGE_SIZE, populate=True) == ENOMEM
        assert regions(ros) == []
        assert frames.frames_left == 381
        assert ros.sys_mmap(PAGE_SIZE) == MMAP_BASE

    def test_populate_that_just_fits_takes_every_frame(self, system):
        ros = system.ros
        frames = ros.machine.ros_frame_alloc
        pages = frames.frames_left - 2  # the region's level-2 table and its leaf table
        assert ros.sys_mmap((pages + 1) * PAGE_SIZE, populate=True) == ENOMEM
        assert ros.sys_mmap(pages * PAGE_SIZE, populate=True) == MMAP_BASE
        assert frames.frames_left == 0
        assert mapped_pages(ros, MMAP_BASE, pages * PAGE_SIZE) == [True] * pages

    def test_zero_length_rejected(self, system):
        assert system.ros.sys_mmap(0) == EINVAL
        assert system.ros.sys_mmap(-4096) == EINVAL

    def test_length_rounded_to_pages(self, system):
        base = system.ros.sys_mmap(100)
        assert region_at(system.ros, base) == (base, PAGE_SIZE, True)

    def test_bases_are_deterministic(self, system):
        first = system.ros.sys_mmap(2 * PAGE_SIZE)
        second = system.ros.sys_mmap(PAGE_SIZE)
        assert second == first + 2 * PAGE_SIZE

    def test_mmap_and_stack_areas_never_cross(self, system):
        # A region may fill the gap between the two areas exactly; one page
        # more is refused, from either side, and moves neither bump pointer.
        ros = system.ros
        stack = ros._alloc_region(PAGE_SIZE, populate=False, writable=True, stack=True)
        gap = stack - MMAP_BASE
        assert ros.sys_mmap(gap + PAGE_SIZE) == ENOMEM
        assert ros.sys_mmap(gap - PAGE_SIZE) == MMAP_BASE
        with pytest.raises(AllocationError):
            ros._alloc_region(2 * PAGE_SIZE, populate=False, writable=True, stack=True)
        assert ros.sys_mmap(PAGE_SIZE) == stack - PAGE_SIZE
        assert ros.sys_mmap(PAGE_SIZE) == ENOMEM
        with pytest.raises(AllocationError):
            ros._alloc_region(PAGE_SIZE, populate=False, writable=True, stack=True)
        assert regions(ros) == [
            (MMAP_BASE, gap - PAGE_SIZE, True),
            (stack - PAGE_SIZE, PAGE_SIZE, True),
            (stack, PAGE_SIZE, True),
        ]


class TestMunmap:
    def test_full_unmap(self, system):
        ros = system.ros
        base = ros.sys_mmap(3 * PAGE_SIZE, populate=True)
        assert ros.sys_munmap(base, 3 * PAGE_SIZE) == 0
        assert mapped_pages(ros, base, 3 * PAGE_SIZE) == [False] * 3
        assert region_at(ros, base) is None

    def test_partial_unmap_splits_region(self, system):
        ros = system.ros
        base = ros.sys_mmap(5 * PAGE_SIZE, populate=True)
        # Punch out the middle page; both remainders must survive.
        assert ros.sys_munmap(base + 2 * PAGE_SIZE, PAGE_SIZE) == 0
        assert mapped_pages(ros, base, 5 * PAGE_SIZE) == [True, True, False, True, True]
        assert region_at(ros, base) == (base, 2 * PAGE_SIZE, True)
        assert region_at(ros, base + 3 * PAGE_SIZE) == (base + 3 * PAGE_SIZE, 2 * PAGE_SIZE, True)
        assert region_at(ros, base + 2 * PAGE_SIZE) is None

    def test_unaligned_base_rejected(self, system):
        base = system.ros.sys_mmap(PAGE_SIZE)
        assert system.ros.sys_munmap(base + 7, PAGE_SIZE) == EINVAL

    def test_range_beyond_region_rejected(self, system):
        base = system.ros.sys_mmap(PAGE_SIZE)
        assert system.ros.sys_munmap(base, 2 * PAGE_SIZE) == EINVAL

    def test_unmapped_base_rejected(self, system):
        assert system.ros.sys_munmap(0x9999_0000, PAGE_SIZE) == EINVAL



# mmap (pages, stack, writable), munmap (region pick, first page, pages) or
# demand_fault (region pick, page, byte offset, write); picks and offsets are
# taken modulo what is live, so some unmaps split a region, some overrun it,
# and some faults land past their region's end.
REGION_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(1, 6), st.booleans(), st.booleans()),
        st.tuples(st.just("munmap"), st.integers(0, 99), st.integers(0, 6), st.integers(1, 6)),
        st.tuples(
            st.just("fault"), st.integers(0, 99), st.integers(0, 7), st.integers(0, 4095),
            st.booleans(),
        ),
    ),
    max_size=30,
)


class TestRegionIndex:
    @settings(max_examples=60, deadline=None)
    @given(REGION_OPS)
    @example(
        [
            ("mmap", 3, False, True),
            ("fault", 0, 0, 0, True),
            ("fault", 0, 1, 9, False),  # leaf table cached, leaf absent: not walked
            ("fault", 0, 1, 0, True),  # leaf present: the page keeps its frame
            ("mmap", 2, True, False),
            ("fault", 1, 0, 0, True),  # a write to a read-only region segfaults
            ("fault", 1, 1, 0, False),
            ("munmap", 0, 1, 1),
            ("fault", 0, 1, 0, False),  # unmapped but still in the region
        ]
    )
    def test_region_at_matches_linear_scan(self, ops):
        """Region lookup against a linear scan, and the demand-fault
        service against a page model: after every op, each first-touched
        page of a live region translates by a full walk, every other page
        in the op's range faults, and the regular OS has used one frame
        per first touch plus one per page table."""
        ros = System(machine=small_machine()).ros
        space = ros.proc.space
        live: set[int] = set()  # model: pages covered by some region
        touched: set[int] = set()  # model: live pages a fault has mapped
        first_touches = 0
        for op in ops:
            if op[0] == "mmap":
                _, pages, stack, writable = op
                base = ros._alloc_region(
                    pages * PAGE_SIZE, populate=False, writable=writable, stack=stack
                )
                span = range(base, base + pages * PAGE_SIZE, PAGE_SIZE)
                live.update(span)
            elif not ros.proc.vm_regions:
                continue
            elif op[0] == "munmap":
                _, pick, first, pages = op
                base = ros.proc.vm_regions.bases[pick % len(ros.proc.vm_regions)]
                base += first * PAGE_SIZE
                span = range(base, base + pages * PAGE_SIZE, PAGE_SIZE)
                if ros.sys_munmap(base, pages * PAGE_SIZE) == 0:
                    live.difference_update(span)
                    touched.difference_update(span)
            else:
                _, pick, page, offset, write = op
                base = ros.proc.vm_regions.bases[pick % len(ros.proc.vm_regions)]
                addr = base + page * PAGE_SIZE + offset
                access = WRITE if write else READ
                owner = region_at(ros, addr)  # maybe past the picked region
                served = ros.demand_fault(addr, access)
                assert served == (owner is not None and (owner[2] or not write))
                page_addr = addr - offset
                if served and page_addr not in touched:
                    touched.add(page_addr)
                    first_touches += 1
                span = range(page_addr - 2 * PAGE_SIZE, page_addr + 3 * PAGE_SIZE, PAGE_SIZE)
            live_regions = regions(ros)
            bases = [base for base, _, _ in live_regions]
            assert bases == sorted(bases)
            covered = {p for b, n, _ in live_regions for p in range(b, b + n, PAGE_SIZE)}
            assert covered == live
            for base, length, _ in live_regions:
                for page in range(base - PAGE_SIZE, base + length + 2 * PAGE_SIZE, PAGE_SIZE):
                    for addr in (page - 1, page, page + 1):
                        owner = region_at(ros, addr)
                        expected = None if owner is None else owner[2]
                        assert ros.proc.vm_regions.writable_at(addr) is expected
            for page in touched:
                assert walk(space, page, READ) is not None
            for page in span:
                if page not in touched:
                    assert walk(space, page, READ) is None
            frames = space.frame_alloc
            tables = 1 + len(upper_entries(space))  # the root, and one per upper entry
            assert frames.end - frames.start - frames.frames_left == first_touches + tables


# On a 512-frame machine the populate leaves one frame, and the touch
# lands in a fresh 2 MiB region: its page needs that frame and its leaf
# table one more.
STARVED_BODY = "  mmap 1548288 populate\n  mmap 4194304\n  touch last+2097152 w\n  exit\nend\n"
STARVED_ROS = "thread main ros\n" + STARVED_BODY
STARVED_HRT = "thread main ros\n  spawn w\n  join w\n  exit\nend\nthread w hrt\n" + STARVED_BODY
WRITE_ROS = "thread main ros\n  syscall write 1 14\n  exit\nend\n"
WRITE_HRT = (
    "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
    "thread w hrt\n  syscall write 1 14\n  exit\nend\n"
)


class TestSyscalls:
    @pytest.mark.parametrize(
        "text, mode, origin, forwarded",
        [(WRITE_ROS, Mode.VIRTUAL, 1, False), (WRITE_HRT, Mode.MULTIVERSE, 1000, True)],
        ids=["ros_side", "forwarded"],
    )
    def test_write_returns_count_and_is_logged(self, system, text, mode, origin, forwarded):
        assert system.ros.syscall("write", (1, 14)) == 14
        Simulator(system, parse_workload(text), mode).run()
        writes = [
            (detail, entry_origin, cost)
            for _, kind, entry_origin, detail, cost in rows(system.log)
            if kind == SYSCALL and detail.startswith("sys:write")
        ]
        cost = system.cost.syscall_base + forwarded * system.cost.forward_overhead
        assert writes == [("sys:write(1,14)", origin, cost)]
        # the write is the run's only system call, so it alone is tallied forwarded
        assert system.log.forwarded.get(SYSCALL, 0) == forwarded

    def test_unknown_syscall(self, system):
        assert system.ros.syscall("getpid_unmodeled", ()) == ENOSYS

    def test_touch_demand_pages_once(self, system):
        ros = system.ros
        base = ros.sys_mmap(PAGE_SIZE)
        start = len(rows(system.log))
        assert ros.touch(base, WRITE, origin_tid=1)
        assert ros.touch(base, WRITE, origin_tid=1)
        faults = [
            cost for _, kind, _, _, cost in rows(system.log)[start:]
            if kind == PAGE_FAULT
        ]
        assert faults == [system.cost.pagefault_base]

    def test_touch_outside_any_region_fails(self, system):
        ros = system.ros
        assert not ros.touch(0x4242_0000, READ, origin_tid=1)
        assert ros.proc.failed
        assert "segfault" in ros.proc.fail_reason

    @pytest.mark.parametrize("mode", [Mode.VIRTUAL, Mode.MULTIVERSE], ids=lambda m: m.value)
    @pytest.mark.parametrize("text", [STARVED_ROS, STARVED_HRT], ids=["ros_side", "kernel_mode"])
    def test_fault_without_frames_for_its_tables_is_a_segfault(self, system, mode, text):
        # The fault is refused with nothing changed, as a populate that
        # cannot fit is.
        report = Simulator(system, parse_workload(text), mode).run()
        addr = MMAP_BASE + 1548288 + 2097152
        assert (report.failed, report.fail_reason) == (True, f"segfault at 0x{addr:x}")
        assert system.machine.ros_frame_alloc.frames_left == 1
        assert mapped_pages(system.ros, addr, PAGE_SIZE) == [False]

    def test_fault_counts_tables_only_when_its_leaf_table_is_not_cached(
        self, system, monkeypatch
    ):
        counted, absent_tables = [], hrtsim.mem.absent_tables

        def counting(space, vaddr, length):
            counted.append(vaddr)
            return absent_tables(space, vaddr, length)

        monkeypatch.setattr(hrtsim.mem, "absent_tables", counting)
        ros = system.ros
        base = ros.sys_mmap(2 * PAGE_SIZE)
        assert ros.touch(base, WRITE, origin_tid=1)  # maps its leaf table
        assert ros.touch(base + PAGE_SIZE, WRITE, origin_tid=1)
        assert counted == [base]
        assert mapped_pages(ros, base, 2 * PAGE_SIZE) == [True, True]

    def test_write_to_readonly_region_fails(self, system):
        ros = system.ros
        base = ros.sys_mmap(PAGE_SIZE, writable=False)
        assert not ros.touch(base, WRITE, origin_tid=1)
        assert ros.proc.failed

    @pytest.mark.parametrize("refusal", ["outside_regions", "read_only", "no_frames_left"])
    def test_refused_demand_fault_marks_the_process_failed(self, system, refusal):
        # The kernel's own verdict, with no `touch` or partner around it.
        ros = system.ros
        frames = ros.machine.ros_frame_alloc
        base = ros.sys_mmap(PAGE_SIZE, writable=refusal != "read_only")
        addr = 0x4242_0000 if refusal == "outside_regions" else base + 8
        if refusal == "no_frames_left":
            frames.take(frames.frames_left)
        left = frames.frames_left
        assert not ros.demand_fault(addr, WRITE)
        assert (ros.proc.failed, ros.proc.fail_reason) == (True, f"segfault at 0x{addr:x}")
        assert frames.frames_left == left
        assert mapped_pages(ros, base, PAGE_SIZE) == [False]


class TestInitRuntime:
    def test_full_sequence(self, system):
        proc = init_runtime(system, make_image())
        assert proc is system.ros.proc
        assert system.hrt.ros_space is system.ros.proc.space
        assert sorted(system.hrt.cores) == system.machine.hrt_core_ids  # each booted
        for core in system.hrt.cores.values():
            assert (core.recent_fault, core.current_thread) == (None, None)
        assert lower_halves_consistent(system.hrt.space, system.ros.proc.space)

    def test_merge_charged_once(self, system):
        init_runtime(system, make_image())
        merges = [
            cost for _, kind, _, _, cost in rows(system.log)
            if kind == MERGE_REQUEST
        ]
        assert merges == [system.cost.merger]

    def test_refused_image_propagates(self, system):
        # Install refuses an image too large for the runtime's frames: its
        # error reaches the caller, and nothing is booted or merged.
        with pytest.raises(InstallError):
            init_runtime(system, make_image(payload_size=1 << 40))
        assert (system.hrt.image, system.hrt.cores, rows(system.log)) == (None, {}, [])


class TestSpawn:
    def test_spawn_creates_partner_and_twin(self, booted):
        ros = booted.ros
        partner = ros.spawn_hrt("worker")
        assert partner.hrt_thread in booted.hrt.threads
        twin = booted.hrt.threads[partner.hrt_thread]
        assert (twin.partner, twin.parent) == (partner.tid, None)
        assert partner.tid in booted.channel.queues
        stacks = [r for r in regions(ros) if r[0] + r[1] == STACK_TOP]  # the partner's
        assert stacks == [(STACK_TOP - DEFAULT_STACK_BYTES, DEFAULT_STACK_BYTES, True)]
        kinds = [kind for _, kind, _, _, _ in rows(booted.log)]
        assert "AsyncCall" in kinds
        assert THREAD_CREATE in kinds

    def test_spawn_charges_async_call(self, booted):
        start = booted.log.now
        booted.ros.spawn_hrt("worker")
        assert booted.log.now - start == booted.cost.async_call

    def test_spawn_unknown_symbol_changes_nothing(self, booted):
        threads_before = dict(booted.ros.threads)
        with pytest.raises(SymbolError):
            booted.ros.spawn_hrt("missing_fn")
        assert booted.ros.threads == threads_before

    def test_spawn_payload_names_twin(self, booted):
        ros = booted.ros
        before = regions(ros)
        partner = ros.spawn_hrt("helper")
        twin = booted.hrt.threads[partner.hrt_thread]
        assert (twin.partner, twin.parent) == (partner.tid, None)
        (stack,) = [r for r in regions(ros) if r not in before]
        assert stack == (STACK_TOP - DEFAULT_STACK_BYTES, DEFAULT_STACK_BYTES, True)
        create, call = rows(booted.log)[-2:]  # (cycle, kind, origin, detail, cost)
        assert create[1:4] == (
            THREAD_CREATE,
            partner.tid,
            f"create:helper:{twin.tid}",
        )
        addr = booted.hrt.symbol("helper")
        assert call[1:] == (
            "AsyncCall",
            ros.main.tid,
            f"func=0x{addr:x},parallel=0",
            booted.cost.async_call,
        )


class TestForwardedService:
    def make_partner(self, booted):
        return booted.ros.spawn_hrt("worker")

    @staticmethod
    def fault_event(partner, addr, access):
        """The event a kernel-mode thread forwards for a lower-half fault."""
        detail = fault_detail(addr, access)
        return EventRecord(PAGE_FAULT, partner.hrt_thread, detail, (addr, access))

    def test_forwarded_syscall_adds_base_cost(self, booted):
        partner = self.make_partner(booted)
        args = (1, 8)
        detail = syscall_detail("write", args)
        ev = EventRecord(SYSCALL, partner.hrt_thread, detail, ("write", args, 0))
        booted.channel.forward_event(ev, partner.tid)
        booted.ros.serve_forwarded(partner, ev)
        assert ev.result == 8
        assert ev.cost == booted.cost.forward_overhead + booted.cost.syscall_base

    def test_forwarded_fault_maps_page(self, booted):
        partner = self.make_partner(booted)
        base = booted.ros.sys_mmap(PAGE_SIZE)
        ev = self.fault_event(partner, base, WRITE)
        booted.channel.forward_event(ev, partner.tid)
        booted.ros.serve_forwarded(partner, ev)
        assert ev.result == 0
        assert mapped_pages(booted.ros, base, PAGE_SIZE) == [True]

    def test_forwarded_fault_outside_region_reports_efault(self, booted):
        from hrtsim.ros import EFAULT

        partner = self.make_partner(booted)
        ev = self.fault_event(partner, 0x4141_0000, WRITE)
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
        assert partner.exited
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
        assert booted.ros.main.join_target is None
        assert partner.joined

    def test_join_before_exit_blocks(self, booted):
        partner = booted.ros.spawn_hrt("worker")
        booted.ros.join(booted.ros.main, partner.tid)
        assert booted.ros.main.join_target == partner.tid
        assert not booted.ros.try_finish_join(booted.ros.main)

    def test_unblock_order_recorded(self, booted):
        join_log = record_joins(booted.ros)
        partner = self.exited_partner(booted)
        booted.ros.join(booted.ros.main, partner.tid)
        labels = [label for _, label, tid in join_log if tid == partner.tid]
        assert labels == ["exit_bit", "partner_exit", "join_resume"]

    def test_local_thread_join(self, booted):
        ros = booted.ros
        local = ros._new_thread()
        ros.join(ros.main, local.tid)
        assert ros.main.join_target == local.tid
        local.exited = True
        assert ros.try_finish_join(ros.main)
        assert ros.main.join_target is None
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
