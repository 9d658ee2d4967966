"""VMM-mediated event channels between the two kernels.

The channel is a passive state machine: the deterministic step loop in
the driver is the only mutator.  Requests from the regular OS travel as
hypercalls through a single shared data page (strictly sequential);
the one asynchronous call is a spawn, whose payload carries everything
the kernel-mode twin needs.  Events raised in kernel-mode threads are
forwarded the other way into their partner threads' injection queues
and answered with completions.
After an address-space merge, a memory-based synchronous endpoint can
bypass the VMM entirely.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .costs import CostModel
from .errors import BusyError, ProtocolError

if TYPE_CHECKING:
    from .hrt import Superposition
    from .mem import AccessKind


class Clock:
    """Global cycle accumulator; every charged cost advances it."""

    def __init__(self):
        self.now = 0

    def charge(self, cycles: int) -> None:
        assert cycles >= 0
        self.now += cycles


@dataclass(frozen=True)
class LogEntry:
    cycle: int
    kind: str
    origin: int
    detail: str
    cost: int
    forwarded: bool = False

    def render(self) -> str:
        return (
            f"cycle={self.cycle} kind={self.kind} origin={self.origin} "
            f"detail={self.detail} cost={self.cost}"
        )


class EventLog:
    """Ordered per-run event log; renders one record per line."""

    def __init__(self):
        self.entries: list[LogEntry] = []

    def emit(
        self,
        cycle: int,
        kind: str,
        origin: int,
        detail: str,
        cost: int,
        forwarded: bool = False,
    ) -> None:
        self.entries.append(LogEntry(cycle, kind, origin, detail, cost, forwarded))

    def render(self) -> str:
        return "\n".join(e.render() for e in self.entries) + ("\n" if self.entries else "")


def syscall_detail(name: str, args: tuple[int, ...]) -> str:
    """Log detail of a system call, identical in every mode."""
    return f"sys:{name}({','.join(str(a) for a in args)})"


def fault_detail(addr: int, access: AccessKind) -> str:
    """Log detail of a page fault, identical in every mode."""
    return f"pf:0x{addr:x}:{access.value}"


class EventKind(enum.Enum):
    SYSCALL = "Syscall"
    PAGE_FAULT = "PageFault"
    THREAD_CREATE = "ThreadCreate"
    THREAD_EXIT_SIGNAL = "ThreadExitSignal"
    MERGE_REQUEST = "MergeRequest"
    REBOOT = "Reboot"
    SYNC_INVOKE = "SyncInvoke"


class HypercallKind(enum.Enum):
    REBOOT_HRT = "reboot_hrt"
    MERGE_ADDRESS_SPACE = "merge_address_space"
    ASYNC_CALL = "async_call"
    SETUP_SYNC = "setup_sync"


@dataclass(frozen=True)
class Hypercall:
    kind: HypercallKind
    payload: Any = None


@dataclass(frozen=True)
class SpawnRequest:
    """Payload of an asynchronous call: start a top-level kernel-mode thread."""

    func_addr: int
    func_name: str
    superposition: Superposition
    partner_tid: int


class PageState(enum.Enum):
    IDLE = "idle"
    REQUESTED = "requested"
    IN_PROGRESS = "in_progress"
    DONE = "done"


_PAGE_TRANSITIONS = {
    PageState.IDLE: PageState.REQUESTED,
    PageState.REQUESTED: PageState.IN_PROGRESS,
    PageState.IN_PROGRESS: PageState.DONE,
    PageState.DONE: PageState.IDLE,
}


@dataclass
class SharedDataPage:
    """The one page both sides poll for sequential request/completion."""

    state: PageState = PageState.IDLE
    _return_code: int = 0

    MAX_ARGS = 6  # register-argument convention

    def transition(self, target: PageState) -> None:
        if _PAGE_TRANSITIONS[self.state] is not target:
            raise ProtocolError(f"bad page transition {self.state} -> {target}")
        self.state = target

    @classmethod
    def check_args(cls, args: tuple[int, ...]) -> None:
        if len(args) > cls.MAX_ARGS:
            raise ProtocolError(f"at most {cls.MAX_ARGS} call arguments")

    @property
    def return_code(self) -> int:
        if self.state is not PageState.DONE:
            raise ProtocolError("return code readable only when Done")
        return self._return_code

    def complete(self, code: int) -> None:
        self.transition(PageState.DONE)
        self._return_code = code


@dataclass(eq=False)  # outstanding events are found by identity
class EventRecord:
    kind: EventKind
    origin: int
    detail: str
    payload: Any = None
    request_cycle: int = 0
    complete_cycle: int | None = None
    result: int | None = None
    cost: int = 0

    @property
    def completed(self) -> bool:
        return self.complete_cycle is not None


@dataclass
class SyncEndpoint:
    active: bool = True


@dataclass
class EventChannel:
    """Channel state: shared page, injection queues, outstanding events, log."""

    cost: CostModel
    clock: Clock
    log: EventLog
    shared_page: SharedDataPage = field(default_factory=SharedDataPage)
    queues: dict[int, deque[EventRecord]] = field(default_factory=dict)
    outstanding: list[EventRecord] = field(default_factory=list)
    sync_endpoint: SyncEndpoint | None = None
    merged: bool = False
    # Hooks installed by the driver; called while servicing hypercalls.
    on_reboot: Callable[[], None] | None = None
    on_merge: Callable[[int], None] | None = None
    on_async_call: Callable[[SpawnRequest], int] | None = None
    on_sync_invoke: Callable[[int, tuple[int, ...]], int] | None = None

    def register_endpoint(self, partner_tid: int) -> None:
        self.queues.setdefault(partner_tid, deque())

    def drop_endpoint(self, partner_tid: int) -> None:
        self.queues.pop(partner_tid, None)

    # -- ROS -> HRT direction -------------------------------------------------

    def hypercall(self, caller: int, call: Hypercall) -> int:
        """Validate and service one sequential request; returns its ack/result."""
        page = self.shared_page
        if page.state is not PageState.IDLE:
            raise BusyError(f"request while shared page is {page.state.value}")

        if call.kind is HypercallKind.REBOOT_HRT:
            # Handled inside the VMM, no HRT round trip.
            self.clock.charge(self.cost.hypercall)
            if self.on_reboot:
                self.on_reboot()
            if self.sync_endpoint:
                self.sync_endpoint.active = False
                self.sync_endpoint = None
            self.log.emit(
                self.clock.now, EventKind.REBOOT.value, caller, "reboot", self.cost.hypercall
            )
            return 0

        page.transition(PageState.REQUESTED)
        page.transition(PageState.IN_PROGRESS)
        try:
            if call.kind is HypercallKind.MERGE_ADDRESS_SPACE:
                cr3 = int(call.payload)
                self.clock.charge(self.cost.merger)
                if self.on_merge:
                    self.on_merge(cr3)
                self.merged = True
                self.log.emit(
                    self.clock.now,
                    EventKind.MERGE_REQUEST.value,
                    caller,
                    f"cr3={cr3}",
                    self.cost.merger,
                )
                result = 0
            elif call.kind is HypercallKind.ASYNC_CALL:
                request: SpawnRequest = call.payload
                self.clock.charge(self.cost.async_call)
                if self.on_async_call is None:
                    raise ProtocolError("no async-call handler installed")
                result = self.on_async_call(request)
                self.log.emit(
                    self.clock.now,
                    "AsyncCall",
                    caller,
                    f"func=0x{request.func_addr:x},parallel=0",
                    self.cost.async_call,
                )
            elif call.kind is HypercallKind.SETUP_SYNC:
                if not self.merged:
                    raise ProtocolError("synchronous setup requires a merged address space")
                self.clock.charge(self.cost.hypercall)
                self.sync_endpoint = SyncEndpoint()
                self.log.emit(
                    self.clock.now,
                    "SetupSync",
                    caller,
                    f"vaddr=0x{int(call.payload):x}",
                    self.cost.hypercall,
                )
                result = 0
            else:  # pragma: no cover - enum is exhaustive
                raise ProtocolError(f"unhandled hypercall {call.kind}")
            page.complete(result)
            return page.return_code
        finally:
            if page.state is PageState.IN_PROGRESS:  # the service raised
                page.complete(0)
            page.transition(PageState.IDLE)

    def sync_invoke(
        self, endpoint: SyncEndpoint, func_ptr: int, args: tuple[int, ...], same_socket: bool
    ) -> int:
        """Memory-protocol call that skips the VMM; round trip cost only."""
        SharedDataPage.check_args(args)
        if endpoint is not self.sync_endpoint or not endpoint.active:
            raise ProtocolError("synchronous endpoint not active")
        cycles = (
            self.cost.sync_call_same_socket
            if same_socket
            else self.cost.sync_call_diff_socket
        )
        self.clock.charge(cycles)
        if self.on_sync_invoke is None:
            raise ProtocolError("no sync-invoke handler installed")
        result = self.on_sync_invoke(func_ptr, args)
        self.log.emit(
            self.clock.now,
            EventKind.SYNC_INVOKE.value,
            0,
            f"func=0x{func_ptr:x},socket={'same' if same_socket else 'diff'}",
            cycles,
        )
        return result

    # -- HRT -> ROS direction -------------------------------------------------

    def forward_event(self, ev: EventRecord, endpoint_tid: int) -> None:
        """Queue an HRT-raised event for injection into its partner thread."""
        if endpoint_tid not in self.queues:
            raise ProtocolError(f"no partner endpoint {endpoint_tid}")
        ev.request_cycle = self.clock.now
        ev.cost += self.cost.forward_overhead
        self.outstanding.append(ev)
        self.queues[endpoint_tid].append(ev)

    def complete_event(self, ev: EventRecord, result: int) -> None:
        if ev not in self.outstanding:
            raise ProtocolError("completing a non-outstanding event")
        self.outstanding.remove(ev)
        self.clock.charge(ev.cost)
        ev.result = result
        ev.complete_cycle = self.clock.now
        self.log.emit(
            ev.complete_cycle,
            ev.kind.value,
            ev.origin,
            ev.detail,
            ev.cost,
            forwarded=True,
        )
