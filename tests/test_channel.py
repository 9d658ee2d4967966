"""Event-channel protocol and cost-model tests."""

import math

import pytest

from hrtsim.channel import (
    MERGE_REQUEST,
    PAGE_FAULT,
    SYSCALL,
    EventChannel,
    EventLog,
    EventRecord,
)
from hrtsim.costs import CostModel, load_cost_model
from hrtsim.errors import BusyError, ParseError, ProtocolError
from hrtsim.sim import System

from conftest import rows, small_machine

# A system call's payload, as the simulator forwards it: (name, args, cycles).
WRITE = ("write", (1, 4), 0)


def make_channel() -> EventChannel:
    return EventChannel(CostModel(), EventLog())


def set_up_sync(channel: EventChannel, vaddr: int = 0x1000) -> None:
    def service() -> int:
        channel.sync_page = vaddr
        return 0

    channel.hypercall(1, "SetupSync", f"vaddr=0x{vaddr:x}", channel.cost.hypercall, service)


class TestHypercalls:
    def test_busy_while_not_idle(self):
        # A hypercall issued from inside another's service is refused: its
        # service never runs, and it charges and logs nothing.
        channel = make_channel()
        served = []

        def outer() -> int:
            assert channel.page_busy
            with pytest.raises(BusyError):
                channel.hypercall(1, "AsyncCall", "func=0x10", 100, lambda: served.append(1))
            return 7

        assert channel.hypercall(1, "MergeRequest", "cr3=5", 50, outer) == 7
        assert served == []
        assert channel.log.now == 50
        assert [kind for _, kind, _, _, _ in rows(channel.log)] == ["MergeRequest"]
        assert not channel.page_busy  # free again: the next request runs
        assert channel.hypercall(1, "AsyncCall", "func=0x10", 100, lambda: 3) == 3

    def test_merge_charges_merger_and_sets_flag(self):
        # The protocol charges first, then runs the service, then logs.
        channel = make_channel()
        seen = []

        def merge() -> int:
            seen.append((channel.log.now, len(rows(channel.log))))
            return 0

        cost = channel.cost.merger
        assert channel.hypercall(1, MERGE_REQUEST, "cr3=5", cost, merge) == 0
        assert seen == [(cost, 0)]  # the service ran once, after the charge, before the log
        assert channel.log.now == cost
        assert rows(channel.log)[-1] == (cost, "MergeRequest", 1, "cr3=5", cost)
        assert not channel.page_busy

    def test_async_call_cost(self):
        channel = make_channel()
        seen = []

        def create_twin() -> int:
            seen.append(channel.page_busy)
            return 99

        cost = channel.cost.async_call
        result = channel.hypercall(1, "AsyncCall", "func=0x10,parallel=0", cost, create_twin)
        assert result == 99
        assert seen == [True]
        assert channel.log.now == channel.cost.async_call
        _, kind, _, detail, entry_cost = rows(channel.log)[-1]
        assert (kind, detail, entry_cost) == ("AsyncCall", "func=0x10,parallel=0", cost)
        assert not channel.page_busy

    def test_failed_service_leaves_page_idle(self):
        channel = make_channel()

        def refuse() -> int:
            raise ProtocolError("service failed")

        with pytest.raises(ProtocolError):
            channel.hypercall(1, "AsyncCall", "func=0x10,parallel=0", 100, refuse)
        assert not channel.page_busy
        assert rows(channel.log) == []

    def test_setup_sync_before_merge(self):
        # The merged precondition is checked before anything is allocated or charged.
        system = System(machine=small_machine())
        regions = len(system.ros.proc.vm_regions)
        with pytest.raises(ProtocolError):
            system.ros.setup_sync(system.ros.main.tid)
        assert system.log.now == 0
        assert rows(system.log) == []
        assert system.channel.sync_page is None
        assert len(system.ros.proc.vm_regions) == regions

    def test_sync_invoke_costs_by_socket(self):
        channel = make_channel()
        set_up_sync(channel)
        assert channel.sync_page == 0x1000
        start = channel.log.now
        channel.sync_invoke(0x10, same_socket=True, service=lambda: None)
        assert channel.log.now - start == channel.cost.sync_call_same_socket
        start = channel.log.now
        channel.sync_invoke(0x10, same_socket=False, service=lambda: None)
        assert channel.log.now - start == channel.cost.sync_call_diff_socket

    def test_sync_invoke_inactive_endpoint(self):
        # A synchronous call before its setup is refused before any charge.
        channel = make_channel()
        called = []
        with pytest.raises(ProtocolError):
            channel.sync_invoke(0x10, same_socket=True, service=lambda: called.append(1))
        assert called == []
        assert channel.log.now == 0
        assert rows(channel.log) == []


class TestForwarding:
    def test_forward_without_endpoint(self):
        channel = make_channel()
        ev = EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
        with pytest.raises(ProtocolError):
            channel.forward_event(ev, endpoint_tid=2)

    def test_complete_stamps_and_charges(self):
        channel = make_channel()
        channel.register_endpoint(2)
        ev = EventRecord(PAGE_FAULT, origin=9, detail="pf:0x1000:r")
        channel.forward_event(ev, 2)
        assert ev.request_cycle == 0
        channel.complete_event(ev, 0)
        assert ev.complete_cycle is not None
        assert ev.complete_cycle - ev.request_cycle >= channel.cost.forward_overhead
        _, kind, origin, _, _ = rows(channel.log)[-1]
        assert (kind, origin) == ("PageFault", 9)
        assert channel.log.forwarded == {"PageFault": 1}

    def test_double_completion(self):
        channel = make_channel()
        channel.register_endpoint(2)
        ev = EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
        channel.forward_event(ev, 2)
        channel.complete_event(ev, 4)
        with pytest.raises(ProtocolError):
            channel.complete_event(ev, 4)

    def test_completed_syscall_is_tallied_by_name(self):
        channel = make_channel()
        channel.register_endpoint(2)
        ev = EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
        channel.forward_event(ev, 2)
        channel.complete_event(ev, 4)
        assert channel.log.syscalls == {"write": (1, channel.cost.forward_overhead)}

    def test_completion_by_identity(self):
        channel = make_channel()
        channel.register_endpoint(2)
        first, second = (
            EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
            for _ in range(2)
        )
        channel.forward_event(first, 2)
        channel.forward_event(second, 2)
        channel.complete_event(second, 4)
        assert len(channel.outstanding) == 1
        assert channel.outstanding[0] is first

    def test_reforwarding_a_completed_record_resets_it(self):
        # A kernel-mode thread refills one record for every event it
        # forwards: nothing of the last round trip stays behind.
        channel = make_channel()
        queue = channel.register_endpoint(2)
        ev = EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
        channel.forward_event(ev, 2)
        assert queue.popleft() is ev  # the partner takes the event it serves
        ev.cost += channel.cost.syscall_base
        channel.complete_event(ev, 4)
        assert channel.outstanding == []
        channel.log.emit("Compute", 9, "compute", 100)
        channel.forward_event(ev, 2)
        assert channel.outstanding == [ev]
        assert (ev.request_cycle, ev.cost) == (channel.log.now, channel.cost.forward_overhead)
        assert (ev.complete_cycle, ev.result) == (None, None)

    def test_completing_unknown_event(self):
        channel = make_channel()
        ev = EventRecord(SYSCALL, origin=9, detail="sys:write(1,4)", payload=WRITE)
        with pytest.raises(ProtocolError):
            channel.complete_event(ev, 0)


class TestCostModel:
    def test_latency_table_matches_measured_times(self):
        # 33 K -> 15 us, 25 K -> 11 us, 1060 -> 482 ns, 790 -> 359 ns at 2.2 GHz.
        table = CostModel().latency_table()
        expected = {
            "address_space_merger": 15e-6,
            "asynchronous_call": 11e-6,
            "synchronous_call_diff_socket": 482e-9,
            "synchronous_call_same_socket": 359e-9,
        }
        for name, target in expected.items():
            _, seconds = table[name]
            assert abs(seconds - target) / target < 0.05

    def test_cost_ordering_enforced(self):
        with pytest.raises(ValueError):
            CostModel(sync_call_same_socket=2000, sync_call_diff_socket=1000)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(forward_overhead=-1)

    @pytest.mark.parametrize("clock_hz", [0.0, -1.0, math.nan, math.inf])
    def test_clock_must_be_finite_and_positive(self, clock_hz):
        with pytest.raises(ValueError, match="clock_hz"):
            CostModel(clock_hz=clock_hz)

    @pytest.mark.parametrize("value", ["0", "0.0", "nan", "inf", "-inf", "1e400"])
    def test_load_clock_not_finite_and_positive(self, value):
        with pytest.raises(ParseError) as info:
            load_cost_model(f"merger = 40000\nclock_hz = {value}\n")
        assert info.value.line == 2

    def test_load_defaults(self):
        assert load_cost_model("") == CostModel()

    def test_load_override_one_field(self):
        model = load_cost_model("forward_overhead = 2000\n# comment\n")
        assert model.forward_overhead == 2000
        assert model.merger == CostModel().merger

    def test_load_negative(self):
        with pytest.raises(ParseError):
            load_cost_model("forward_overhead = -5")

    def test_load_unknown_key(self):
        with pytest.raises(ParseError) as info:
            load_cost_model("no_such_cost = 5")
        assert info.value.line == 1

    def test_load_bad_syntax(self):
        with pytest.raises(ParseError):
            load_cost_model("forward_overhead 2000")
