"""VMM-mediated event channels between the two kernels.

The event log is the run's time: every cycle is charged by the log entry
that records it, through `EventLog.emit`, or through `EventLog.emit_around`
for a call that runs a service inside its own time.  The log is one flat
list of cells, five an entry: cycle, kind, origin, detail, cost, each an
int or a str.  No entry is an object of its own, so a long log costs no
tuple per row and gives the garbage collector nothing to track.  Callers
pass one shared object for equal details and costs
(`HrtKernel.resolve_symbol`, `EventChannel.complete_event`), so a
repeated cell costs one pointer.

The channel is passive: the deterministic step loop in the driver is the
only mutator.  Requests from the regular OS travel as hypercalls through
a single shared data page, one at a time: a request while another is in
progress is refused.  Each request carries its own service
(address-space merge, the asynchronous call that creates a kernel-mode
twin, synchronous-call setup), which the hypercall charges, runs and
logs.  The channel keeps no record of what a service did: the merge's
result lives in the runtime (`HrtKernel.ros_space`).  Events raised in
kernel-mode threads are forwarded the other way into their partner threads'
injection queues and answered with completions; a forwarded system call's
payload is `(name, args, cycles)`, the cycles its service adds to the
syscall base, and a page fault's `(addr, access)`, its log detail
rendered once by the sender.  A record is outstanding from
`forward_event`, which resets it, until `complete_event` logs it; a
kernel-mode thread refills one record for all its events.  The channel
keeps no list of them: a partner pops an event from its queue and
completes it in one step, so the queued records are every event in
flight.  After an address-space merge, a memory-based synchronous
call, which takes no arguments, can bypass the VMM entirely.

An entry's kind is one of the twelve `str` constants below, defined
here and nowhere else: every writer names its constant, and the log
stores the string itself.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .costs import CostModel
from .errors import BusyError, ProtocolError


ROW_FORMAT = "cycle=%s kind=%s origin=%s detail=%s cost=%s\n"  # one log entry

# The log's entry kinds; the first three are the kinds forwarded to a partner.
SYSCALL = "Syscall"
PAGE_FAULT = "PageFault"
THREAD_EXIT_SIGNAL = "ThreadExitSignal"
THREAD_CREATE = "ThreadCreate"
MERGE_REQUEST = "MergeRequest"
SYNC_INVOKE = "SyncInvoke"
COMPUTE = "Compute"
FALLTHROUGH = "Fallthrough"
OVERRIDE = "Override"
SYMBOL_LOOKUP = "SymbolLookup"
ASYNC_CALL = "AsyncCall"
SETUP_SYNC = "SetupSync"


class EventLog:
    """Ordered per-run event log, which also keeps the run's time: `now`
    advances only by the cost of the entry that records it, so the costs
    of the entries sum to `now`.  Renders one `ROW_FORMAT` line per entry."""

    def __init__(self):
        self.now = 0
        self.cells: list[int | str] = []  # five per entry: cycle, kind, origin, detail, cost
        self.syscalls: dict[str, tuple[int, int]] = {}  # call name -> (calls, cycles)
        self.forwarded: dict[str, int] = {}  # kind -> forwarded entries, by `complete_event`

    def emit(
        self, kind: str, origin: int, detail: str, cost: int = 0, call: str | None = None
    ) -> None:
        """Charge cost and record it in one entry, stamped after the charge.
        A system call's entry names its call, which tallies it in `syscalls`."""
        assert cost >= 0
        self.now += cost
        self.cells.extend((self.now, kind, origin, detail, cost))
        if call is not None:
            calls, cycles = self.syscalls.get(call, (0, 0))
            self.syscalls[call] = (calls + 1, cycles + cost)

    def emit_around(
        self, kind: str, origin: int, detail: str, cost: int, service: Callable[[], int | None]
    ) -> int | None:
        """Charge cost, run service inside that time, then record the call
        stamped after everything the service charged; return its result.
        The service's own entries come first, with their own stamps.  A
        service that raises ends the run before the call is recorded."""
        assert cost >= 0
        self.now += cost
        result = service()
        self.cells.extend((self.now, kind, origin, detail, cost))
        return result

    def render(self) -> str:
        """One `ROW_FORMAT` line per entry, formatted by one `%` in C: `%s`
        of an int or a str is its `str()`, and a `%` in a detail is an
        argument, never read as a directive."""
        cells = self.cells
        return ROW_FORMAT * (len(cells) // 5) % tuple(cells)

    def counts(self, kinds: tuple[str, ...]) -> dict[str, int]:
        """Entries per kind of kinds, counted in C over the kind cells."""
        return {kind: n for kind, n in Counter(self.cells[1::5]).items() if kind in kinds}


def syscall_detail(name: str, args: tuple[int, ...]) -> str:
    """Log detail of a system call, identical in every mode."""
    return f"sys:{name}({','.join([str(a) for a in args])})"


def fault_detail(addr: int, access: str) -> str:
    """Log detail of a page fault, identical in every mode."""
    return f"pf:0x{addr:x}:{access}"


@dataclass(eq=False, slots=True)  # a record is refilled: compared by identity
class EventRecord:
    kind: str  # the entry kind the log writes: SYSCALL, PAGE_FAULT or THREAD_EXIT_SIGNAL
    origin: int
    detail: str
    payload: Any = None
    request_cycle: int | None = None  # None until forwarded
    complete_cycle: int | None = None  # None until the partner has served it
    result: int | None = None
    cost: int = 0


@dataclass
class EventChannel:
    """Channel state: shared-page flag, injection queues, log."""

    cost: CostModel
    log: EventLog
    page_busy: bool = field(default=False, init=False)  # a hypercall is in progress
    queues: dict[int, deque[EventRecord]] = field(default_factory=dict)
    sync_page: int | None = None  # set-up synchronous-call page, by virtual address
    shared_costs: dict[int, int] = field(default_factory=dict)  # one int per forwarded cost

    @property
    def outstanding(self) -> list[EventRecord]:
        """The events forwarded and not yet completed, in endpoint order."""
        return [ev for queue in self.queues.values() for ev in queue if ev.complete_cycle is None]

    def register_endpoint(self, partner_tid: int) -> deque[EventRecord]:
        return self.queues.setdefault(partner_tid, deque())

    def drop_endpoint(self, partner_tid: int) -> None:
        self.queues.pop(partner_tid, None)

    # -- ROS -> HRT direction -------------------------------------------------

    def hypercall(
        self, caller: int, kind: str, detail: str, cycles: int, service: Callable[[], int | None]
    ) -> int | None:
        """One request through the shared page: charge its cycles, run its
        service, log it, and return the service's result.  A request made
        while another is in progress (from inside its service) is refused."""
        if self.page_busy:
            raise BusyError("hypercall while another is in progress")
        self.page_busy = True
        try:
            return self.log.emit_around(kind, caller, detail, cycles, service)
        finally:
            self.page_busy = False

    def sync_invoke(self, func_ptr: int, same_socket: bool, service: Callable[[], None]) -> None:
        """Memory-protocol call that skips the VMM: charge the round trip,
        run the callee and log the call."""
        if self.sync_page is None:
            raise ProtocolError("synchronous call before its setup")
        cycles = (
            self.cost.sync_call_same_socket
            if same_socket
            else self.cost.sync_call_diff_socket
        )
        self.log.emit_around(
            SYNC_INVOKE,
            0,
            f"func=0x{func_ptr:x},socket={'same' if same_socket else 'diff'}",
            cycles,
            service,
        )

    # -- HRT -> ROS direction -------------------------------------------------

    def forward_event(self, ev: EventRecord, endpoint_tid: int) -> None:
        """Queue an HRT-raised event for injection into its partner thread,
        outstanding from now on: nothing of an earlier round trip stays."""
        queue = self.queues.get(endpoint_tid)
        if queue is None:
            raise ProtocolError(f"no partner endpoint {endpoint_tid}")
        ev.request_cycle = self.log.now
        ev.cost = self.cost.forward_overhead
        ev.complete_cycle = ev.result = None
        queue.append(ev)

    def complete_event(self, ev: EventRecord, result: int) -> None:
        if ev.request_cycle is None or ev.complete_cycle is not None:
            raise ProtocolError("completing a non-outstanding event")
        ev.result = result
        kind = ev.kind
        call = ev.payload[0] if kind is SYSCALL else None  # (name, args, cycles)
        cost = ev.cost
        cost = self.shared_costs.setdefault(cost, cost)  # equal costs log one int object
        forwarded = self.log.forwarded
        forwarded[kind] = forwarded.get(kind, 0) + 1
        # By position, as keywords cost ~0.2 µs.
        self.log.emit(kind, ev.origin, ev.detail, cost, call)
        ev.complete_cycle = self.log.now
