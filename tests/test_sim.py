"""Run-driver tests: modes, forwarding, accounting, comparison, replay."""

import copy
import gc
import re
import weakref
from pathlib import Path

import pytest

import hrtsim.sim
from hrtsim import bundled_profiles_text
from hrtsim.channel import PAGE_FAULT, SYNC_INVOKE, SYSCALL, THREAD_CREATE, THREAD_EXIT_SIGNAL, EventLog
from hrtsim.cli import EXIT_FAILURE, main
from hrtsim.costs import CostModel
from hrtsim.errors import (
    DeadlockError,
    DoubleFaultError,
    ParseError,
    PartitionError,
    SimError,
    UsageError,
)
from hrtsim.machine import CoreKind, Machine
from hrtsim.ros import MMAP_BASE, RosKernel
from hrtsim.sim import (
    Mode,
    Simulator,
    System,
    compare,
    load_profiles,
    parse_workload,
    replay_benchmark,
    run,
)

from conftest import rows, small_machine
from test_golden import GOLDEN, PHYS_FRAMES
from test_schedule import MUTUAL_JOIN, Recorder, load_bench_workloads

W_FAULTS = """
thread main ros
  spawn worker
  join worker
  exit
end
thread worker hrt
  mmap 16384
  touch last w
  touch last+4096 w
  touch last+8192 w
  touch last+12288 w
  exit
end
"""

W_POPULATE = W_FAULTS.replace("mmap 16384", "mmap 16384 populate")

W_MMAP_LOOP = """
thread main ros
  spawn worker
  join worker
  exit
end
thread worker hrt
  repeat 5
    mmap 4096
    munmap last 4096
  end
  exit
end
"""

W_NESTED = """
thread main ros
  spawn worker
  join worker
  exit
end
thread worker hrt
  spawn_nested child
  compute 10
  exit
end
thread child hrt
  syscall write 1 4
  exit
end
"""

W_OVERRIDE = """
func fast cycles=100 returns=1
override legacy -> fast
thread main ros
  spawn worker
  join worker
  exit
end
thread worker hrt
  call_override legacy
  call_override legacy
  call_override legacy
  exit
end
"""


def mv(text, machine=None):
    return run(machine or small_machine(), text, Mode.MULTIVERSE)


def syscall_costs(report, detail):
    """Costs of the Syscall entries with this detail, in log order."""
    return [
        int(line.rsplit(" cost=", 1)[1])
        for line in report.log_text.splitlines()
        if " kind=Syscall " in line and f" detail={detail} " in line
    ]


def log_cost_sum(report):
    total = 0
    for line in report.log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        total += int(fields["cost"])
    return total


class TestForwarding:
    def test_lazy_touches_forward_faults(self):
        report = mv(W_FAULTS)
        assert report.forwarded_counts[PAGE_FAULT] == 4
        assert report.forwarded_counts[SYSCALL] == 1  # the mmap
        assert report.forwarded_counts[THREAD_EXIT_SIGNAL] == 1
        assert not report.failed

    def test_forwarded_fault_cost(self):
        report = mv(W_FAULTS)
        cost = CostModel()
        fault_costs = [
            int(dict(f.split("=", 1) for f in line.split())["cost"])
            for line in report.log_text.splitlines()
            if " kind=PageFault " in f" {line} "
        ]
        assert fault_costs == [cost.forward_overhead + cost.pagefault_base] * 4

    def test_populate_forwards_no_faults(self):
        report = mv(W_POPULATE)
        assert report.forwarded_counts.get(PAGE_FAULT, 0) == 0
        assert mv(W_POPULATE).total_cycles < mv(W_FAULTS).total_cycles

    def test_nested_thread_routes_through_ancestor(self):
        report = mv(W_NESTED)
        assert report.forwarded_counts[SYSCALL] == 1
        assert report.counts[THREAD_CREATE] == 2
        # Only the top-level exit raises a signal; nested exits are silent.
        assert report.forwarded_counts[THREAD_EXIT_SIGNAL] == 1
        assert not report.failed

    def test_syscall_result_efault_is_not_a_segfault(self):
        # -14 is an ordinary syscall result; only a forwarded page fault that
        # the regular OS cannot satisfy is a segfault.
        text = W_NESTED.replace("syscall write 1 4", "syscall write 1 -14")
        costs = {}
        for mode in Mode:
            report = run(small_machine(), text, mode)
            assert not report.failed, mode
            assert report.total_cycles == log_cost_sum(report)
            (costs[mode],) = [
                int(dict(f.split("=", 1) for f in line.split())["cost"])
                for line in report.log_text.splitlines()
                if "detail=sys:write(1,-14)" in line
            ]
        assert costs[Mode.MULTIVERSE] - costs[Mode.VIRTUAL] == CostModel().forward_overhead


def shared_page_threads(n):
    """n kernel-mode threads that fault on one lazy page in the same round."""
    text = "thread main ros\n  mmap 4096\n"
    text += "".join(f"  spawn w{i}\n" for i in range(n))
    text += "".join(f"  join w{i}\n" for i in range(n)) + "  exit\nend\n"
    for i in range(n):
        pad = "".join("  compute 10\n" for _ in range(n - i))
        text += f"thread w{i} hrt\n{pad}  touch 0x{MMAP_BASE:x} w\n  exit\nend\n"
    return text


class TestLastAfterSyscallMmap:
    """`last` follows every successful mmap, whichever action made it and on
    whichever side the thread runs."""

    KERNEL_MODE = (
        "thread main ros\n  spawn worker\n  join worker\n  exit\nend\n"
        "thread worker hrt\n  syscall mmap 4096\n  touch last w\n  exit\nend\n"
    )
    ROS_SIDE = "thread main ros\n  syscall mmap 4096\n  touch last w\n  exit\nend\n"
    FAILED_MMAP = (
        "thread main ros\n  mmap 4096\n  syscall mmap 0\n  touch last w\n  exit\nend\n"
    )

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("text", [KERNEL_MODE, ROS_SIDE, FAILED_MMAP])
    def test_touch_lands_on_the_mapped_region(self, text, mode):
        report = run(small_machine(), text, mode)
        assert not report.failed
        assert f"detail=pf:0x{MMAP_BASE:x}:w " in report.log_text


class TestConcurrentFaults:
    def ros_frames_used(self, n):
        machine = small_machine()
        report = mv(shared_page_threads(n), machine)
        assert not report.failed
        return report, machine.ros_frames - machine.ros_frame_alloc.frames_left

    def test_one_frame_per_page_however_many_threads_fault(self):
        report, five = self.ros_frames_used(5)
        assert report.forwarded_counts[PAGE_FAULT] == 5  # all concurrent
        _, one = self.ros_frames_used(1)
        assert five <= one


class TestModes:
    def test_multiverse_never_cheaper(self):
        for text in (W_FAULTS, W_POPULATE, W_MMAP_LOOP):
            virtual = run(small_machine(), text, Mode.VIRTUAL)
            assert mv(text).total_cycles >= virtual.total_cycles

    def test_fault_details_congruent_across_modes(self):
        def fault_details(report):
            return [
                dict(f.split("=", 1) for f in line.split())["detail"]
                for line in report.log_text.splitlines()
                if " kind=PageFault " in f" {line} "
            ]

        virtual = run(small_machine(), W_FAULTS, Mode.VIRTUAL)
        assert fault_details(virtual) == fault_details(mv(W_FAULTS))

    def test_run_accepts_strings(self):
        report = run(small_machine(), "thread main ros\n exit\nend\n", Mode.VIRTUAL)
        assert report.mode == "virtual"
        assert report.total_cycles == 0

    def test_spawn_nested_from_main_only_outside_multiverse(self):
        text = (
            "thread main ros\n  spawn_nested child\n  join child\n  exit\nend\n"
            "thread child ros\n  compute 5\n  exit\nend\n"
        )
        report = run(small_machine(), text, Mode.VIRTUAL)  # plain local thread
        assert not report.failed
        with pytest.raises(UsageError):
            mv(text)


class TestAccounting:
    def test_total_recomputable_from_log(self):
        for mode in Mode:
            report = run(small_machine(), W_FAULTS, mode)
            assert report.total_cycles == log_cost_sum(report)

    def test_deterministic_repetition(self):
        first = mv(W_NESTED)
        second = mv(W_NESTED)
        assert first.log_text == second.log_text
        assert first.total_cycles == second.total_cycles

    def test_wall_seconds(self):
        report = mv(W_FAULTS)
        assert report.wall_seconds == report.total_cycles / CostModel().clock_hz

    def test_metrics_lines(self):
        lines = mv(W_FAULTS).metrics_lines()
        assert "metric=mode value=multiverse" in lines
        assert any(line.startswith("metric=total_cycles value=") for line in lines)


def forwarded_rows(report, origin):
    """(kind, detail, cost) of each forwarded PageFault or Syscall entry of
    thread `origin`, in log order."""
    rows = []
    for line in report.log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        if fields["origin"] == str(origin) and fields["kind"] in ("PageFault", "Syscall"):
            rows.append((fields["kind"], fields["detail"], int(fields["cost"])))
    return rows


class TestEventSlot:
    """A kernel-mode thread forwards every event in one record it owns."""

    def test_one_record_per_kernel_mode_thread(self, monkeypatch):
        built = []
        original = hrtsim.sim.EventRecord

        def counted(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(hrtsim.sim, "EventRecord", counted)
        text = (GOLDEN / "workloads" / "bench_fwd_cold.txt").read_text()
        system = System(machine=Machine(phys_frames=8192))
        sim = Simulator(system, parse_workload(text), Mode.MULTIVERSE)
        report = sim.run()
        assert not report.failed
        kernel_mode = [c for c in sim.contexts if c.kind == "hrt_body"]
        forwarded = report.forwarded_counts["Syscall"] + report.forwarded_counts["PageFault"]
        assert forwarded == 128
        assert 0 < len(built) <= len(kernel_mode) == 8

    def test_a_refilled_record_carries_nothing_over(self):
        # A served fault, a fall-through call, a write, and a fault the
        # regular OS refuses, all forwarded by one thread in turn: each row
        # costs the forward plus its own service, and the last one fails
        # the run.
        text = (
            "func legacy cycles=700 returns=3\n"
            "thread main ros\n  mmap 4096\n  spawn w\n  join w\n  exit\nend\n"
            f"thread w hrt\n  touch 0x{MMAP_BASE:x} w\n  call_override legacy 1 2\n"
            "  syscall write 1 9\n  touch 0x4242000 w\n  exit\nend\n"
        )
        cost = CostModel()
        report = mv(text)
        assert forwarded_rows(report, 1000) == [
            ("PageFault", f"pf:0x{MMAP_BASE:x}:w", cost.forward_overhead + cost.pagefault_base),
            ("Syscall", "sys:call:legacy(1,2)", cost.forward_overhead + cost.syscall_base + 700),
            ("Syscall", "sys:write(1,9)", cost.forward_overhead + cost.syscall_base),
            ("PageFault", "pf:0x4242000:w", cost.forward_overhead),
        ]
        assert report.failed
        assert report.fail_reason == "segfault at 0x4242000"


class TestOverrides:
    def test_override_uses_cache_after_first_call(self):
        cost = CostModel()
        lookups = [
            int(dict(f.split("=", 1) for f in line.split())["cost"])
            for line in mv(W_OVERRIDE).log_text.splitlines()
            if " kind=SymbolLookup " in f" {line} "
        ]
        assert lookups == [cost.symbol_lookup, cost.cache_hit, cost.cache_hit]

    def test_override_charges_function_cycles(self):
        report = mv(W_OVERRIDE)
        overrides = [
            line for line in report.log_text.splitlines() if " kind=Override " in f" {line} "
        ]
        assert len(overrides) == 3
        assert all("override:legacy->fast" in line for line in overrides)

    def test_unoverridden_call_falls_through_to_forward(self):
        text = W_OVERRIDE.replace("override legacy -> fast\n", "")
        report = mv(text)
        assert any(" kind=Fallthrough " in f" {line} " for line in report.log_text.splitlines())
        assert any("sys:call:legacy" in line for line in report.log_text.splitlines())

    def test_fall_through_carries_its_function_body(self):
        # The partner runs the legacy function: its cycles on top of the
        # forwarded call, whose detail still reads `call:`.
        text = W_OVERRIDE.replace("override legacy -> fast\n", "func legacy cycles=500\n")
        cost = CostModel()
        calls = syscall_costs(mv(text), "sys:call:legacy()")
        assert calls == [cost.forward_overhead + cost.syscall_base + 500] * 3

    def test_system_call_named_like_a_call_runs_no_body(self):
        # A kernel-mode `syscall call:fast` is an unknown system call: it is
        # forwarded at the base cost, and `fast`'s body does not run.
        text = (
            "func fast cycles=500\nthread main ros\n  spawn worker\n  join worker\n"
            "  exit\nend\nthread worker hrt\n  syscall call:fast 1\n  exit\nend\n"
        )
        cost = CostModel()
        virtual = run(small_machine(), text, Mode.VIRTUAL)
        assert syscall_costs(virtual, "sys:call:fast(1)") == [cost.syscall_base]
        multiverse = syscall_costs(mv(text), "sys:call:fast(1)")
        assert multiverse == [cost.forward_overhead + cost.syscall_base] == [3000]

    def test_disabled_override_falls_through(self):
        text = W_OVERRIDE.replace("override legacy -> fast", "override legacy -> fast off")
        report = mv(text)
        assert any(" kind=Fallthrough " in f" {line} " for line in report.log_text.splitlines())


class TestSyncCalls:
    W_SYNC = "func fast cycles=0\nthread main ros\n  sync_call fast\n  exit\nend\n"

    def sync_cost(self, machine):
        report = run(machine, self.W_SYNC, Mode.MULTIVERSE)
        for line in report.log_text.splitlines():
            fields = dict(f.split("=", 1) for f in line.split())
            if fields["kind"] == SYNC_INVOKE:
                return int(fields["cost"])
        raise AssertionError("no SyncInvoke entry")

    def test_cross_socket_cost(self):
        # Default layout: ROS cores fill socket 0, HRT cores socket 1.
        assert self.sync_cost(small_machine()) == CostModel().sync_call_diff_socket

    def test_same_socket_cost(self):
        machine = Machine(
            cores=[CoreKind.ROS_CORE, CoreKind.HRT_CORE], phys_frames=512
        )
        assert self.sync_cost(machine) == CostModel().sync_call_same_socket

    @pytest.mark.parametrize("size", [0, -1])
    def test_socket_size_below_one_is_refused(self, size):
        # 0 used to divide by zero at the first sync call, -1 to number sockets below 0.
        with pytest.raises(PartitionError, match=f"socket size {size} is not positive"):
            Machine(socket_size=size)

    def test_the_regular_os_gets_three_quarters_of_memory(self):
        assert Machine(phys_frames=4096).ros_frames == 3072
        with pytest.raises(TypeError):
            Machine(ros_frames=1024)  # worked out from phys_frames, not set
        with pytest.raises(PartitionError, match="ROS frame prefix must be a proper subset"):
            Machine(phys_frames=1)  # no frame for the regular OS


class TestFunctionsWithoutFuncLine:
    """A name with no `func` line behaves as `FunctionBehavior()`: no cycles,
    result 0, no touches."""

    # `bare` is only an override target and `worker` only a thread body;
    # both are symbols of the multiverse image.
    TEXT = (
        "override legacy -> bare\n"
        "thread main ros\n  spawn worker\n  join worker\n  sync_call worker\n  exit\nend\n"
        "thread worker hrt\n  call_override legacy 1 2\n  exit\nend\n"
    )

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_runs_as_the_default_behaviour(self, mode):
        report = run(small_machine(), self.TEXT, mode)
        assert not report.failed
        explicit = run(small_machine(), "func bare\nfunc worker\n" + self.TEXT, mode)
        assert report.log_text == explicit.log_text
        lines = report.log_text.splitlines()
        assert not any("detail=func:" in line for line in lines)  # no callee Compute
        if mode is Mode.MULTIVERSE:
            assert any("detail=override:legacy->bare cost=0" in line for line in lines)
            assert any(" kind=SyncInvoke " in f" {line} " for line in lines)
        else:
            cost = CostModel().syscall_base
            assert any(f"detail=call:legacy cost={cost}" in line for line in lines)

    def test_sync_call_of_no_symbol_is_a_parse_error(self):
        # The parser rejects the name, so no mode runs it; a `func` line
        # makes it a symbol, and then every mode runs it.
        text = "thread main ros\n  sync_call ghost\n  exit\nend\n"
        with pytest.raises(ParseError) as info:
            parse_workload(text)
        assert info.value.line == 2
        for mode in Mode:
            assert not run(small_machine(), "func ghost\n" + text, mode).failed


class TestStep:
    """`Simulator.step()` is one round: each runnable context steps once, in
    creation order, and it returns True if any of them made progress."""

    SPAWNS = (
        "thread main ros\n  spawn a\n  spawn b\n  compute 1\n  join a\n  join b\n  exit\nend\n"
        "thread a ros\n  compute 1\n  compute 1\n  exit\nend\n"
        "thread b ros\n  compute 1\n  exit\nend\n"
    )

    def rounds(self, text):
        """The simulator, and (context names stepped, result) of each round
        of text in virtual mode until main is done or a round makes no
        progress; a context is named by the body it runs (`Simulator.spawned`)."""
        sim = Simulator(System(machine=small_machine()), parse_workload(text), Mode.VIRTUAL)
        recorder = Recorder(sim)
        sim.setup()
        rounds = []
        while not sim.main_ctx.done and (not rounds or rounds[-1][1]):
            start = len(recorder.steps)
            progressed = sim.step()
            names = {tid: name for name, tid in sim.spawned.items()}
            names[sim.main_ctx.tid] = "main"
            rounds.append(([names[tid] for tid in recorder.steps[start:]], progressed))
        return sim, rounds

    def test_each_runnable_context_steps_once_in_creation_order(self):
        sim, rounds = self.rounds(self.SPAWNS)
        assert rounds == [
            (["main"], True),  # spawns a, which first runs in the next round
            (["main", "a"], True),  # main spawns b
            (["main", "a", "b"], True),
            (["main", "a", "b"], True),  # main blocks joining a; a and b exit
            (["main"], True),  # main's join of a returns
            (["main"], True),  # b has exited: the join returns at once
            (["main"], True),  # main exits
        ]
        assert sim.main_ctx.done

    def test_a_round_without_progress_returns_false(self):
        sim, rounds = self.rounds(MUTUAL_JOIN)
        assert rounds == [
            (["main"], True),
            (["main", "a"], True),  # a blocks joining b, which main spawned before it
            (["main", "a", "b"], True),  # a's join makes no progress: a parks
            (["main", "b"], False),  # main and b park too
        ]
        assert all(ctx.parked for ctx in sim.contexts)
        with pytest.raises(DeadlockError, match="^no runnable context; outstanding events: none$"):
            sim.execute()


class TestDeadlock:
    def test_unserviced_event_is_reported(self):
        system = System(machine=small_machine())
        sim = Simulator(system, parse_workload(W_FAULTS), Mode.MULTIVERSE)
        sim.setup()
        sim.step()  # main executes the spawn
        sim.contexts = [c for c in sim.contexts if c.kind != "partner"]
        with pytest.raises(DeadlockError) as info:
            sim.execute()
        assert info.value.events  # the orphaned forwarded event is named


class TestDoubleFault:
    """A kernel-mode access that keeps faulting ends the run with
    `DoubleFaultError`, after a fixed number of walks and fault handlings."""

    ADDR = MMAP_BASE + 0x10
    TEXT = (
        "thread main ros\n  mmap 4096\n  spawn worker\n  join worker\n  exit\nend\n"
        f"thread worker hrt\n  touch 0x{ADDR:x} w\n  exit\nend\n"
    )

    def run_counted(self, monkeypatch, resolve=None):
        """Run TEXT in multiverse, counting the kernel-mode walks of ADDR
        and the runtime's fault handlings; `resolve` replaces the handler."""
        system = System(machine=small_machine())
        sim = Simulator(system, parse_workload(self.TEXT), Mode.MULTIVERSE)
        sim.setup()
        hrt = system.hrt
        calls = {"translate": 0, "handle_page_fault": 0}
        original_translate = hrtsim.sim.translate
        handle = resolve or hrt.handle_page_fault

        def counted_translate(space, addr, access):
            if space is hrt.space and addr == self.ADDR:
                calls["translate"] += 1
            return original_translate(space, addr, access)

        def counted_handle(core_id, addr, access):
            calls["handle_page_fault"] += 1
            return handle(core_id, addr, access)

        monkeypatch.setattr(hrtsim.sim, "translate", counted_translate)
        monkeypatch.setattr(hrt, "handle_page_fault", counted_handle)
        with pytest.raises(DoubleFaultError) as info:
            sim.execute()
        return sim, calls, str(info.value)

    def test_fault_that_local_handling_never_clears(self, monkeypatch):
        # A runtime that reports every fault handled locally but maps nothing.
        sim, calls, message = self.run_counted(
            monkeypatch, resolve=lambda core_id, addr, access: False
        )
        assert message == f"access 0x{self.ADDR:x} w cannot be satisfied"
        assert calls == {"translate": 4, "handle_page_fault": 4}
        assert "PageFault" not in sim.log.forwarded

    def test_fault_that_forwarding_never_clears(self, monkeypatch):
        # A regular OS that reports every forwarded fault served but maps
        # nothing: forward, re-merge, forward, re-merge, then give up on the
        # third forward.
        monkeypatch.setattr(RosKernel, "demand_fault", lambda self, addr, access: True)
        sim, calls, message = self.run_counted(monkeypatch)
        assert message == (
            f"access 0x{self.ADDR:x} w still faults after re-merge and re-forward"
        )
        assert calls == {"translate": 5, "handle_page_fault": 5}
        assert sim.log.forwarded["PageFault"] == 2
        assert sim.system.hrt.remerge_count == 2


READ_THEN_WRITE = "  mmap 4096 populate ro\n  touch last r\n  {write}\n  exit\nend\n"
SPAWN_W = "thread main ros\n  spawn w\n  join w\n  exit\nend\nthread w hrt\n"
KERNEL_MODE_PRELUDE = [
    "cycle=33000 kind=MergeRequest origin=1 detail=cr3=0 cost=33000",
    "cycle=58000 kind=ThreadCreate origin=2 detail=create:w:1000 cost=0",
]
FORWARDED_MMAP_RO = "cycle=61000 kind=Syscall origin=1000 detail=sys:mmap(4096,1,0) cost=3000"


class TestWriteAfterReadOfReadOnlyPage:
    """A read puts a read-only page in the read memo only.  The write that
    follows misses the write memo, so `translate` decides it: it faults
    with a write-protect fault, the regular OS refuses it, and the run
    fails.  A call site that checked the read memo for a write would let
    it through."""

    CASES = {
        "ros_touch": (
            Mode.VIRTUAL,
            "thread main ros\n" + READ_THEN_WRITE.format(write="touch last w"),
            ["cycle=1500 kind=Syscall origin=1 detail=sys:mmap(4096,1,0) cost=1500"],
        ),
        "hrt_touch": (
            Mode.MULTIVERSE,
            SPAWN_W + READ_THEN_WRITE.format(write="touch last w"),
            KERNEL_MODE_PRELUDE + [
                "cycle=58000 kind=AsyncCall origin=1 "
                "detail=func=0xffff800000200100,parallel=0 cost=25000",
                FORWARDED_MMAP_RO,
                "cycle=62500 kind=PageFault origin=1000 detail=pf:0x100000000000:w cost=1500",
            ],
        ),
        "override_target_write": (
            Mode.MULTIVERSE,
            f"func f touches=0x{MMAP_BASE:x}\noverride g -> f\n"
            + SPAWN_W + READ_THEN_WRITE.format(write="call_override g"),
            KERNEL_MODE_PRELUDE + [
                "cycle=58000 kind=AsyncCall origin=1 "
                "detail=func=0xffff800000200140,parallel=0 cost=25000",
                FORWARDED_MMAP_RO,
                "cycle=61200 kind=SymbolLookup origin=1000 detail=sym:f cost=200",
                "cycle=61200 kind=Override origin=1000 detail=override:g->f cost=0",
                "cycle=62700 kind=PageFault origin=1000 detail=pf:0x100000000000:w cost=1500",
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_write_still_faults(self, case):
        mode, text, log = self.CASES[case]
        report = run(small_machine(), text, mode)
        assert report.failed
        assert report.fail_reason == f"segfault at 0x{MMAP_BASE:x}"
        assert report.log_text.splitlines() == log


def test_hot_local_touches_rarely_walk(monkeypatch):
    """A kernel-mode touch whose page is in the memo of its access kind
    makes no call to `translate`: on bench hot_local at seed 1, under 1% of
    the kernel-mode touch actions walk (each of them did before)."""
    workload = load_bench_workloads()["hot_local"](1)
    program = parse_workload(workload.text)
    touches = sum(
        action.op == "touch"
        for body in program.bodies.values()
        if body.role == "hrt"
        for action in body.actions
    )
    walks = 0
    original = hrtsim.sim.translate

    def counted(*args):
        nonlocal walks
        walks += 1
        return original(*args)

    monkeypatch.setattr(hrtsim.sim, "translate", counted)
    system = System(machine=Machine(phys_frames=workload.phys_frames))
    assert not Simulator(system, program, Mode.MULTIVERSE).run().failed
    assert touches == 30720
    assert walks < 0.01 * touches, walks


class TestCompare:
    def test_per_call_delta_is_forward_overhead(self):
        result = compare(small_machine(), W_MMAP_LOOP)
        rows = {row.name: row for row in result.rows}
        for name in ("mmap", "munmap"):
            assert rows[name].calls_virtual == rows[name].calls_multiverse == 5
            assert rows[name].per_call_delta == CostModel().forward_overhead
        assert result.total_delta > 0
        assert "delta/call" in result.render()

    def test_finished_runs_need_no_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            for text in (W_FAULTS, W_MMAP_LOOP, W_NESTED, W_OVERRIDE):
                compare(None, text)
                assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt")))
    def test_each_mode_runs_on_a_fresh_machine(self, name):
        """Each report of compare() is what `run` gives in its mode on a
        fresh machine of the same size: the frame allocators and table
        store of a machine are run state, so no run starts where another ended."""
        text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
        frames = PHYS_FRAMES.get(name, 512)
        fresh = {mode: TestProgramReuse.outcome(frames, text, mode) for mode in Mode}
        try:
            result = compare(Machine(phys_frames=frames), text)
        except SimError as exc:  # the first mode to raise, in compare's order
            assert (type(exc).__name__, str(exc)) == next(o for o in fresh.values() if len(o) == 2)
            return
        for report in (result.virtual, result.multiverse):
            assert (report.log_text, report.total_cycles, report.failed, report.fail_reason) == (
                fresh[Mode(report.mode)]
            )


@pytest.mark.parametrize("name", sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt")))
def test_reports_end_no_line_in_whitespace(name):
    """`TraceReport.render()` in each mode and `Comparison.render()` pad
    no cell at the end of a line."""
    text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
    frames = PHYS_FRAMES.get(name, 512)
    rendered = []
    for mode in Mode:
        try:
            rendered.append(run(Machine(phys_frames=frames), text, mode).render())
        except SimError:
            pass
    try:
        rendered.append(compare(Machine(phys_frames=frames), text).render())
    except SimError:
        pass
    assert rendered
    for output in rendered:
        assert [line for line in output.splitlines() if line != line.rstrip()] == []


class TestRunTeardown:
    UNJOINED = (
        "thread main ros\n  spawn worker\n  compute 5\n  exit\nend\n"
        "thread worker hrt\n  compute 1\n  compute 1\n  compute 1\n  exit\nend\n"
    )
    SEGFAULT = (Path(__file__).parent / "golden" / "workloads" / "segfault_hrt.txt").read_text()

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("text", [UNJOINED, SEGFAULT], ids=["unjoined", "segfault_hrt"])
    def test_threads_left_suspended_hold_no_cycle(self, text, mode):
        # A suspended thread generator references its simulator; without
        # the cycle collector the simulator must still die with the run.
        gc.collect()
        gc.disable()
        system = System(machine=small_machine())
        try:
            sim = Simulator(system, parse_workload(text), mode)
            alive = weakref.ref(sim)
            sim.run()
            del sim
            assert alive() is None
        finally:
            gc.enable()


class TestRuntimeMisuse:
    """Misuse that only running can find raises `UsageError` in the step
    that meets it: the entries before it are logged as usual, and the CLI
    exits 3.  The text itself parses."""

    ROS = "thread main ros\n  compute 100\n  syscall write 1 8\n  {op}\n  exit\nend\n"
    HRT = (
        "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
        "thread w hrt\n  compute 100\n  syscall write 1 8\n  {op}\n  exit\nend\n"
    )
    ROS_LOG = [
        "cycle=100 kind=Compute origin=1 detail=compute cost=100",
        "cycle=1600 kind=Syscall origin=1 detail=sys:write(1,8) cost=1500",
    ]
    MERGE = "cycle=33000 kind=MergeRequest origin=1 detail=cr3=0 cost=33000"
    ROS_MV_LOG = [
        MERGE,
        "cycle=33100 kind=Compute origin=1 detail=compute cost=100",
        "cycle=34600 kind=Syscall origin=1 detail=sys:write(1,8) cost=1500",
    ]
    HRT_LOG = [
        MERGE,
        "cycle=58000 kind=ThreadCreate origin=2 detail=create:w:1000 cost=0",
        "cycle=58000 kind=AsyncCall origin=1 detail=func=0xffff800000200100,parallel=0 cost=25000",
        "cycle=58100 kind=Compute origin=1000 detail=compute cost=100",
        "cycle=61100 kind=Syscall origin=1000 detail=sys:write(1,8) cost=3000",
    ]
    LAST = "'last' used before any mmap in this thread"
    LEAF = "thread x hrt\n  exit\nend\n"  # a spawn target off every spawn cycle
    CASES = {
        "ros-touch-virtual": (ROS, "touch last w", Mode.VIRTUAL, LAST, ROS_LOG),
        "ros-touch-multiverse": (ROS, "touch last w", Mode.MULTIVERSE, LAST, ROS_MV_LOG),
        "ros-munmap-virtual": (ROS, "munmap last 4096", Mode.VIRTUAL, LAST, ROS_LOG),
        "ros-munmap-multiverse": (ROS, "munmap last+4096 4096", Mode.MULTIVERSE, LAST, ROS_MV_LOG),
        "hrt-touch": (HRT, "touch last+4096 r", Mode.MULTIVERSE, LAST, HRT_LOG),
        "hrt-munmap": (HRT, "munmap last 4096", Mode.MULTIVERSE, LAST, HRT_LOG),
        "hrt-thread-create-without-body": (
            HRT, "call_override pthread_create 0 0", Mode.MULTIVERSE,
            "thread-create override needs a thread body name", HRT_LOG,
        ),
        "hrt-spawn": (
            HRT + LEAF, "spawn x", Mode.MULTIVERSE,
            "spawn from a kernel-mode thread; use spawn_nested or an override", HRT_LOG,
        ),
        "hrt-join": (
            HRT, "join w", Mode.MULTIVERSE, "join is issued from the main thread", HRT_LOG,
        ),
        "hrt-sync-call": (
            HRT, "sync_call w", Mode.MULTIVERSE, "sync_call is issued from the ROS side", HRT_LOG,
        ),
        "ros-spawn-nested-multiverse": (
            ROS + LEAF, "spawn_nested x", Mode.MULTIVERSE,
            "spawn_nested is only valid in kernel-mode threads", ROS_MV_LOG,
        ),
        "ros-join-before-spawn": (
            ROS.replace("{op}", "{op}\n  spawn w") + "thread w ros\n  exit\nend\n",
            "join w", Mode.VIRTUAL, "join target 'w' was never spawned", ROS_LOG,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_in_its_step(self, case, tmp_path, capsys):
        template, op, mode, message, log = self.CASES[case]
        text = template.format(op=op)
        sim = Simulator(System(machine=small_machine()), parse_workload(text), mode)
        with pytest.raises(UsageError) as info:
            sim.run()
        assert str(info.value) == message
        assert sim.log.render().splitlines() == log
        path = tmp_path / "w.txt"
        path.write_text(text)
        assert main(["run", str(path), "--mode", mode.value]) == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: {message}\n"


class TestProgramReuse:
    """A parsed program keeps no run state: one parse, run under
    multiverse, then virtual, then through compare(), gives what a fresh
    parse gives each time, and the program is equal to itself before."""

    @staticmethod
    def outcome(frames, workload, mode):
        try:
            report = run(Machine(phys_frames=frames), workload, mode)
        except SimError as exc:
            return type(exc).__name__, str(exc)
        return report.log_text, report.total_cycles, report.failed, report.fail_reason

    @pytest.mark.parametrize("name", sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt")))
    def test_one_parse_runs_like_fresh_parses(self, name):
        text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
        frames = PHYS_FRAMES.get(name, 512)
        program = parse_workload(text)
        before = copy.deepcopy(program)
        for mode in (Mode.MULTIVERSE, Mode.VIRTUAL):
            assert self.outcome(frames, program, mode) == self.outcome(frames, text, mode)
        try:
            reused = compare(Machine(phys_frames=frames), program).render()
        except SimError as exc:
            reused = type(exc).__name__, str(exc)
        try:
            fresh = compare(Machine(phys_frames=frames), text).render()
        except SimError as exc:
            fresh = type(exc).__name__, str(exc)
        assert reused == fresh
        assert program == before

    # `w` runs twice in each run: each time it steps its whole body, with a
    # repeat nested in another and a block of two steps.
    TWICE = (
        "thread main ros\n  spawn w\n  join w\n  spawn w\n  join w\n  exit\nend\n"
        "thread w hrt\n  compute 1\n  repeat 2\n    compute 2\n    repeat 3\n      compute 3\n"
        "    end\n  end\n  repeat 4\n    compute 4\n    compute 5\n  end\n  exit\nend\n"
    )

    def test_each_run_of_a_body_steps_all_of_it(self):
        program = parse_workload(self.TWICE)
        once = ["1"] + ["2", "3", "3", "3"] * 2 + ["4", "5"] * 4

        def computes(report):
            return re.findall(r"kind=Compute .* cost=(\d+)$", report.log_text, re.M)

        for mode in Mode:
            assert computes(run(None, program, mode)) == once * 2
        result = compare(None, program)
        assert computes(result.virtual) == computes(result.multiverse) == once * 2


class TestReplay:
    def test_overhead_arithmetic(self):
        profiles = load_profiles(bundled_profiles_text())
        assert len(profiles) == 7
        cost = CostModel()
        for profile in profiles:
            report = replay_benchmark(profile, cost)
            assert report.overhead_cycles == profile.forwarded_events * cost.forward_overhead
            assert report.overhead_seconds == pytest.approx(
                report.overhead_cycles / cost.clock_hz
            )

    def test_linearity(self):
        profiles = load_profiles(bundled_profiles_text())
        cost = CostModel()
        reports = [replay_benchmark(p, cost) for p in profiles]
        for profile, report in zip(profiles, reports):
            assert report.overhead_cycles / max(profile.forwarded_events, 1) in (
                cost.forward_overhead,
                0,
            )

    def test_bad_column_count(self):
        with pytest.raises(ParseError) as info:
            load_profiles("ok 1 2.0 0.1 100 5 1 10\nbad 1 2\n")
        assert info.value.line == 2

    def test_bad_field_type(self):
        with pytest.raises(ParseError):
            load_profiles("name x 2.0 0.1 100 5 1 10\n")

    @pytest.mark.parametrize(
        "column, token",
        [(column, "x") for column in range(1, 8)]
        + [(column, "-1") for column in (1, 4, 5, 6, 7)]
        + [(column, t) for column in (2, 3) for t in ("nan", "inf", "-inf", "-2.0")],
    )
    def test_every_column_is_checked(self, column, token):
        # Replay reads only user_s and forwarded; every column is still parsed,
        # and no value may be negative, infinite or nan.
        parts = "ok 1 2.0 0.1 100 5 1 10".split()
        parts[column] = token
        with pytest.raises(ParseError) as info:
            load_profiles("ok 1 2.0 0.1 100 5 1 10\n" + " ".join(parts) + "\n")
        assert info.value.line == 2


class TestRecordLayout:
    """A run's per-event records are plain values: the log is one flat list
    of int and str cells, five an entry, with no object per row, and
    page-table entries and walk-memo values are ints.  Equal details and
    forwarded costs are one shared object each."""

    def test_cells_are_ints_and_strs_and_entries_ints_after_a_run(self):
        system = System(machine=small_machine())
        report = Simulator(system, parse_workload(W_FAULTS), Mode.MULTIVERSE).run()
        cells = system.log.cells
        assert cells and len(cells) % 5 == 0
        assert {type(cell) for cell in cells} == {int, str}
        store = system.machine.table_store
        assert all(type(entry) is int for table in store.values() for entry in table)
        leaves = [leaf for memo in store.memos for leaf in memo.values()]
        assert leaves and all(type(leaf) is int for leaf in leaves)
        assert report.log_text.endswith("\n") and not report.log_text.endswith("\n\n")

    def test_lookups_of_one_name_share_one_detail(self):
        system = System(machine=small_machine())
        Simulator(system, parse_workload(W_OVERRIDE), Mode.MULTIVERSE).run()
        details = [detail for _, kind, _, detail, _ in rows(system.log) if kind == "SymbolLookup"]
        assert len(details) == 3 and details[0] == "sym:fast"
        assert all(detail is details[0] for detail in details)

    def test_forwarded_writes_share_one_cost(self):
        text = W_NESTED.replace("  syscall write 1 4\n", "  syscall write 1 4\n" * 2)
        system = System(machine=small_machine())
        Simulator(system, parse_workload(text), Mode.MULTIVERSE).run()
        costs = [cost for _, kind, _, detail, cost in rows(system.log) if detail == "sys:write(1,4)"]
        assert len(costs) == 2 and costs[0] > 256  # beyond CPython's cache of small ints
        assert costs[1] is costs[0]

    def test_empty_log_renders_empty(self):
        assert EventLog().render() == ""


def per_row_render(entries):
    """The reference `EventLog.render` answers to: one f-string per row."""
    return "".join(
        f"cycle={cycle} kind={kind} origin={origin} detail={detail} cost={cost}\n"
        for cycle, kind, origin, detail, cost in entries
    )


class TestRender:
    """`EventLog.render` formats the whole log with one `%`; it must give
    the bytes of the per-row f-strings (the empty log:
    `TestRecordLayout.test_empty_log_renders_empty`)."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt")))
    def test_golden_logs_render_as_per_row(self, name):
        text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
        for mode in Mode:
            system = System(machine=Machine(phys_frames=PHYS_FRAMES.get(name, 512)))
            try:
                Simulator(system, parse_workload(text), mode).run()
            except SimError:
                pass  # the log up to the error still renders
            assert system.log.cells, (name, mode)
            assert system.log.render() == per_row_render(rows(system.log)), (name, mode)

    def test_details_with_format_characters(self):
        log = EventLog()
        for detail in ("100%", "%s", "%d%%", "%(x)s", "{}", "{0}", "%", "a % b {c}", "x" * 500):
            log.emit("Compute", 7, detail, 3)
        log.emit("Syscall", 0, "", 0, call="x")
        assert log.render() == per_row_render(rows(log))
        assert log.render().splitlines()[0] == "cycle=3 kind=Compute origin=7 detail=100% cost=3"
