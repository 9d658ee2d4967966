"""Event-channel protocol and cost-model tests."""

import pytest

from hrtsim.channel import (
    Clock,
    EventChannel,
    EventKind,
    EventLog,
    EventRecord,
    Hypercall,
    HypercallKind,
    PageState,
    SharedDataPage,
    SpawnRequest,
)
from hrtsim.costs import CostModel, load_cost_model
from hrtsim.errors import BusyError, ParseError, ProtocolError
from hrtsim.hrt import Superposition

SPAWN = SpawnRequest(0x10, "worker", Superposition(("gdt", 1, 2), 0x7FFF_0000_0000), 2)


def make_channel() -> EventChannel:
    clock = Clock()
    return EventChannel(CostModel(), clock, EventLog())


class TestSharedPage:
    def test_legal_cycle(self):
        page = SharedDataPage()
        page.transition(PageState.REQUESTED)
        page.transition(PageState.IN_PROGRESS)
        page.complete(42)
        assert page.return_code == 42
        page.transition(PageState.IDLE)

    def test_illegal_transition(self):
        page = SharedDataPage()
        with pytest.raises(ProtocolError):
            page.transition(PageState.DONE)

    def test_return_code_only_when_done(self):
        page = SharedDataPage()
        with pytest.raises(ProtocolError):
            _ = page.return_code

    def test_arg_bound(self):
        SharedDataPage.check_args(tuple(range(6)))
        with pytest.raises(ProtocolError):
            SharedDataPage.check_args(tuple(range(7)))


class TestHypercalls:
    def test_busy_while_not_idle(self):
        channel = make_channel()
        channel.shared_page.transition(PageState.REQUESTED)
        with pytest.raises(BusyError):
            channel.hypercall(1, Hypercall(HypercallKind.ASYNC_CALL, SPAWN))

    def test_reboot_handled_internally(self):
        channel = make_channel()
        seen = []
        channel.on_reboot = lambda: seen.append(True)
        channel.hypercall(1, Hypercall(HypercallKind.REBOOT_HRT))
        assert seen == [True]
        assert channel.clock.now == channel.cost.hypercall

    def test_merge_charges_merger_and_sets_flag(self):
        channel = make_channel()
        merged = []
        channel.on_merge = merged.append
        channel.hypercall(1, Hypercall(HypercallKind.MERGE_ADDRESS_SPACE, 5))
        assert merged == [5]
        assert channel.merged
        assert channel.clock.now == channel.cost.merger
        assert channel.shared_page.state is PageState.IDLE

    def test_async_call_cost(self):
        channel = make_channel()
        seen = []
        channel.on_async_call = lambda request: seen.append(request) or 99
        result = channel.hypercall(1, Hypercall(HypercallKind.ASYNC_CALL, SPAWN))
        assert result == 99
        assert seen == [SPAWN]
        assert channel.clock.now == channel.cost.async_call
        entry = channel.log.entries[-1]
        assert (entry.kind, entry.detail, entry.cost) == (
            "AsyncCall",
            "func=0x10,parallel=0",
            channel.cost.async_call,
        )
        assert channel.shared_page.state is PageState.IDLE

    def test_failed_service_leaves_page_idle(self):
        channel = make_channel()
        with pytest.raises(ProtocolError):  # no handler installed
            channel.hypercall(1, Hypercall(HypercallKind.ASYNC_CALL, SPAWN))
        assert channel.shared_page.state is PageState.IDLE

    def test_setup_sync_before_merge(self):
        channel = make_channel()
        with pytest.raises(ProtocolError):
            channel.hypercall(1, Hypercall(HypercallKind.SETUP_SYNC, 0x1000))

    def test_sync_invoke_costs_by_socket(self):
        channel = make_channel()
        channel.on_merge = lambda cr3: None
        channel.on_sync_invoke = lambda f, a: 7
        channel.hypercall(1, Hypercall(HypercallKind.MERGE_ADDRESS_SPACE, 0))
        channel.hypercall(1, Hypercall(HypercallKind.SETUP_SYNC, 0x1000))
        endpoint = channel.sync_endpoint
        start = channel.clock.now
        assert channel.sync_invoke(endpoint, 0x10, (), same_socket=True) == 7
        assert channel.clock.now - start == channel.cost.sync_call_same_socket
        start = channel.clock.now
        channel.sync_invoke(endpoint, 0x10, (), same_socket=False)
        assert channel.clock.now - start == channel.cost.sync_call_diff_socket

    def test_sync_invoke_inactive_endpoint(self):
        channel = make_channel()
        channel.on_merge = lambda cr3: None
        channel.on_sync_invoke = lambda f, a: 0
        channel.hypercall(1, Hypercall(HypercallKind.MERGE_ADDRESS_SPACE, 0))
        channel.hypercall(1, Hypercall(HypercallKind.SETUP_SYNC, 0x1000))
        endpoint = channel.sync_endpoint
        channel.hypercall(1, Hypercall(HypercallKind.REBOOT_HRT))
        assert not endpoint.active
        with pytest.raises(ProtocolError):
            channel.sync_invoke(endpoint, 0x10, (), same_socket=True)


class TestForwarding:
    def test_forward_without_endpoint(self):
        channel = make_channel()
        ev = EventRecord(EventKind.SYSCALL, origin=9, detail="sys:write(1,4)")
        with pytest.raises(ProtocolError):
            channel.forward_event(ev, endpoint_tid=2)

    def test_complete_stamps_and_charges(self):
        channel = make_channel()
        channel.register_endpoint(2)
        ev = EventRecord(EventKind.PAGE_FAULT, origin=9, detail="pf:0x1000:r")
        channel.forward_event(ev, 2)
        assert ev.request_cycle == 0
        channel.complete_event(ev, 0)
        assert ev.completed
        assert ev.complete_cycle - ev.request_cycle >= channel.cost.forward_overhead
        assert channel.log.entries[-1].forwarded

    def test_double_completion(self):
        channel = make_channel()
        channel.register_endpoint(2)
        ev = EventRecord(EventKind.SYSCALL, origin=9, detail="sys:write(1,4)")
        channel.forward_event(ev, 2)
        channel.complete_event(ev, 4)
        with pytest.raises(ProtocolError):
            channel.complete_event(ev, 4)

    def test_completing_unknown_event(self):
        channel = make_channel()
        ev = EventRecord(EventKind.SYSCALL, origin=9, detail="sys:write(1,4)")
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
