"""Run-driver tests: modes, forwarding, accounting, comparison, replay."""

import pytest

from hrtsim import bundled_profiles_text
from hrtsim.channel import EventKind
from hrtsim.costs import CostModel
from hrtsim.errors import DeadlockError, ParseError, UsageError
from hrtsim.machine import CoreKind, Machine
from hrtsim.ros import MMAP_BASE
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

from conftest import small_machine

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


def mv(text, machine=None, **kw):
    return run(machine or small_machine(), text, Mode.MULTIVERSE, **kw)


def log_cost_sum(report):
    total = 0
    for line in report.log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        total += int(fields["cost"])
    return total


class TestForwarding:
    def test_lazy_touches_forward_faults(self):
        report = mv(W_FAULTS)
        assert report.forwarded_counts[EventKind.PAGE_FAULT.value] == 4
        assert report.forwarded_counts[EventKind.SYSCALL.value] == 1  # the mmap
        assert report.forwarded_counts[EventKind.THREAD_EXIT_SIGNAL.value] == 1
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
        assert report.forwarded_counts.get(EventKind.PAGE_FAULT.value, 0) == 0
        assert mv(W_POPULATE).total_cycles < mv(W_FAULTS).total_cycles

    def test_nested_thread_routes_through_ancestor(self):
        report = mv(W_NESTED)
        assert report.forwarded_counts[EventKind.SYSCALL.value] == 1
        assert report.counts[EventKind.THREAD_CREATE.value] == 2
        # Only the top-level exit raises a signal; nested exits are silent.
        assert report.forwarded_counts[EventKind.THREAD_EXIT_SIGNAL.value] == 1
        assert not report.failed


def shared_page_threads(n):
    """n kernel-mode threads that fault on one lazy page in the same round."""
    text = "thread main ros\n  mmap 4096\n"
    text += "".join(f"  spawn w{i}\n" for i in range(n))
    text += "".join(f"  join w{i}\n" for i in range(n)) + "  exit\nend\n"
    for i in range(n):
        pad = "".join("  compute 10\n" for _ in range(n - i))
        text += f"thread w{i} hrt\n{pad}  touch 0x{MMAP_BASE:x} w\n  exit\nend\n"
    return text


class TestConcurrentFaults:
    def ros_frames_used(self, n):
        machine = small_machine()
        report = mv(shared_page_threads(n), machine)
        assert not report.failed
        return report, machine.ros_frames - machine.ros_frame_alloc.frames_left

    def test_one_frame_per_page_however_many_threads_fault(self):
        report, five = self.ros_frames_used(5)
        assert report.forwarded_counts[EventKind.PAGE_FAULT.value] == 5  # all concurrent
        _, one = self.ros_frames_used(1)
        assert five <= one


class TestModes:
    def test_native_equals_virtual(self):
        machine = small_machine
        native = run(machine(), W_FAULTS, Mode.NATIVE)
        virtual = run(machine(), W_FAULTS, Mode.VIRTUAL)
        assert native.total_cycles == virtual.total_cycles
        assert native.counts == virtual.counts
        assert native.forwarded_total == virtual.forwarded_total == 0

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

        native = run(small_machine(), W_FAULTS, Mode.NATIVE)
        assert fault_details(native) == fault_details(mv(W_FAULTS))

    def test_run_accepts_strings(self):
        report = run(small_machine(), "thread main ros\n exit\nend\n", "native")
        assert report.mode == "native"
        assert report.total_cycles == 0

    def test_spawn_nested_from_main_only_outside_multiverse(self):
        text = (
            "thread main ros\n  spawn_nested child\n  join child\n  exit\nend\n"
            "thread child ros\n  compute 5\n  exit\nend\n"
        )
        report = run(small_machine(), text, Mode.NATIVE)  # plain local thread
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


class TestOverrides:
    def test_override_uses_cache_after_first_call(self):
        cost = CostModel()
        cached = mv(W_OVERRIDE, use_symbol_cache=True)
        uncached = mv(W_OVERRIDE, use_symbol_cache=False)
        saved = uncached.total_cycles - cached.total_cycles
        assert saved == 2 * (cost.symbol_lookup - cost.cache_hit)

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
            if fields["kind"] == EventKind.SYNC_INVOKE.value:
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


class TestDeadlock:
    def test_unserviced_event_is_reported(self):
        system = System(machine=small_machine())
        sim = Simulator(system, parse_workload(W_FAULTS), Mode.MULTIVERSE)
        sim.setup()
        sim.step(sim.main_ctx)  # executes the spawn
        sim.contexts = [c for c in sim.contexts if c.kind != "partner"]
        with pytest.raises(DeadlockError) as info:
            sim.execute()
        assert info.value.events  # the orphaned forwarded event is named


class TestCompare:
    def test_per_call_delta_is_forward_overhead(self):
        result = compare(small_machine(), W_MMAP_LOOP)
        rows = {row.name: row for row in result.rows}
        for name in ("mmap", "munmap"):
            assert rows[name].calls_virtual == rows[name].calls_multiverse == 5
            assert rows[name].per_call_delta == CostModel().forward_overhead
        assert result.total_delta > 0
        assert "delta/call" in result.render()


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
