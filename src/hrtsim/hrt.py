"""The kernel-mode runtime: boot state machine, threads, fault and syscall paths.

All application threads on this side execute in ring 0.  Anything the
runtime cannot satisfy locally (lower-half page faults, system calls,
exit notifications) is packaged as an event and forwarded to the partner
thread on the other side.  A per-core record of the most recent fault
detects the duplicate that follows a stale root table and triggers a
local re-merge instead of a second forward.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .channel import (
    Clock,
    EventChannel,
    EventKind,
    EventLog,
    EventRecord,
    fault_detail,
    syscall_detail,
)
from .costs import CostModel
from .errors import (
    BootError,
    InstallError,
    LifecycleError,
    PartitionError,
    ProtocolError,
    SymbolError,
)
from .machine import CoreKind, Machine
from .mem import (
    HIGHER_BASE,
    PAGE_SIZE,
    AccessKind,
    ControlState,
    FaultInfo,
    Half,
    PageTableHierarchy,
    Ring,
    addr_half,
    identity_map_higher_half,
    map_page,
    merge_lower_half,
)
from .toolchain import AeroKernelImage, SymbolCache


class CoreStatus(enum.Enum):
    OFFLINE = "offline"
    IDLE_EVENT_LOOP = "idle_event_loop"
    RUNNING = "running"


@dataclass
class HrtCoreState:
    core_id: int
    status: CoreStatus = CoreStatus.OFFLINE
    recent_fault: tuple[int, AccessKind] | None = None
    current_thread: int | None = None

    def reset(self, status: CoreStatus) -> None:
        """Enter `status` with no current thread and no remembered fault."""
        self.status = status
        self.recent_fault = None
        self.current_thread = None


class ThreadKind(enum.Enum):
    TOP_LEVEL = "top_level"
    NESTED = "nested"


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_ON_EVENT = "blocked_on_event"
    EXITED = "exited"


@dataclass(frozen=True)
class Superposition:
    """Mirrored ROS-side state carried by a top-level thread."""

    gdt_snapshot: tuple
    tls_base: int


@dataclass
class HrtThread:
    tid: int
    kind: ThreadKind
    func_name: str
    core_id: int
    parent: int | None = None
    superposition: Superposition | None = None
    partner: int | None = None
    status: ThreadStatus = ThreadStatus.RUNNABLE


@dataclass(frozen=True)
class FunctionBehavior:
    """Declarative body of a simulated kernel-side function."""

    cycles: int = 0
    returns: int = 0
    touches: tuple[int, ...] = ()


class FunctionTable:
    """Name -> (higher-half address, behavior descriptor)."""

    def __init__(self):
        self._entries: dict[str, tuple[int, FunctionBehavior]] = {}

    def register(self, name: str, behavior: FunctionBehavior, addr: int) -> None:
        if addr < HIGHER_BASE:
            raise ValueError(f"function address must be in the higher half: 0x{addr:x}")
        self._entries[name] = (addr, behavior)

    def set_behavior(self, name: str, behavior: FunctionBehavior) -> None:
        addr, _ = self.lookup(name)
        self._entries[name] = (addr, behavior)

    def lookup(self, name: str) -> tuple[int, FunctionBehavior]:
        try:
            return self._entries[name]
        except KeyError:
            raise SymbolError(f"unknown symbol {name!r}") from None

    def by_addr(self, addr: int) -> tuple[str, FunctionBehavior]:
        for name, (a, behavior) in self._entries.items():
            if a == addr:
                return name, behavior
        raise SymbolError(f"no symbol at 0x{addr:x}")

    def __contains__(self, name: str) -> bool:
        return name in self._entries


class FaultResolution(enum.Enum):
    HANDLED_LOCAL = "handled_local"
    FORWARD = "forward"
    RETRY_AFTER_REMERGE = "retry_after_remerge"


@dataclass
class HrtKernel:
    machine: Machine
    cost: CostModel
    clock: Clock
    log: EventLog
    channel: EventChannel
    image: AeroKernelImage | None = None
    space: PageTableHierarchy | None = None
    ros_space: PageTableHierarchy | None = None
    cores: dict[int, HrtCoreState] = field(default_factory=dict)
    threads: dict[int, HrtThread] = field(default_factory=dict)
    function_table: FunctionTable = field(default_factory=FunctionTable)
    symbol_cache: SymbolCache | None = None
    remerge_count: int = 0
    _next_tid: int = 1000
    _next_core_rr: int = 0

    def __post_init__(self):
        for core_id in self.machine.hrt_core_ids:
            self.cores[core_id] = HrtCoreState(core_id)

    # -- boot state machine ---------------------------------------------------

    def install_image(self, image: AeroKernelImage) -> None:
        if self.image is not None:
            raise InstallError("an image is already installed; reboot first")
        if any(c.status is not CoreStatus.OFFLINE for c in self.cores.values()):
            raise InstallError("cores must be offline to install")
        frames_needed = max(1, -(-image.payload_size // PAGE_SIZE))
        if frames_needed > self.machine.hrt_frame_alloc.frames_left:
            raise InstallError(
                f"image needs {frames_needed} frames, "
                f"{self.machine.hrt_frame_alloc.frames_left} available"
            )
        self.machine.hrt_frame_alloc.alloc_many(frames_needed)
        self.image = image
        for name in image.symbol_table:
            self.function_table.register(name, FunctionBehavior(), image.symbol_table[name])

    def boot(self, core_ids: list[int]) -> None:
        if self.image is None:
            raise BootError("no image installed")
        for core_id in core_ids:
            if self.machine.cores[core_id] is not CoreKind.HRT_CORE:
                raise PartitionError(f"core {core_id} is not in the HRT partition")
        if self.space is None:
            self.space = PageTableHierarchy(
                self.machine.table_store, self.machine.hrt_frame_alloc
            )
            identity_map_higher_half(self.space, self.machine.phys_frames)
        for core_id in core_ids:
            self.cores[core_id].reset(CoreStatus.IDLE_EVENT_LOOP)

    def reboot(self) -> None:
        """Return every booted core to its idle event loop and drop threads."""
        self.threads.clear()
        if self.space is not None:
            root = self.space.root()
            for i in range(256):
                root[i] = None
        for core in self.cores.values():
            if core.status is not CoreStatus.OFFLINE:
                core.reset(CoreStatus.IDLE_EVENT_LOOP)
        self.channel.merged = False

    def shutdown(self) -> None:
        self.threads.clear()
        for core in self.cores.values():
            core.reset(CoreStatus.OFFLINE)

    def booted_cores(self) -> list[int]:
        return [
            cid
            for cid, c in self.cores.items()
            if c.status in (CoreStatus.IDLE_EVENT_LOOP, CoreStatus.RUNNING)
        ]

    def control_state(self) -> ControlState:
        assert self.space is not None
        return ControlState(cr0_wp=True, cr3=self.space.cr3, ring=Ring.RING0)

    # -- threads --------------------------------------------------------------

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _pick_core(self) -> int:
        booted = self.booted_cores()
        if not booted:
            raise BootError("no booted HRT core")
        core_id = booted[self._next_core_rr % len(booted)]
        self._next_core_rr += 1
        return core_id

    def create_top_level_thread(
        self, func_name: str, superposition: Superposition, partner_tid: int
    ) -> HrtThread:
        if not self.channel.merged:
            raise ProtocolError("address spaces must be merged before thread creation")
        if func_name not in self.function_table:
            raise SymbolError(f"unknown symbol {func_name!r}")
        core_id = self._pick_core()
        thread = HrtThread(
            tid=self._alloc_tid(),
            kind=ThreadKind.TOP_LEVEL,
            func_name=func_name,
            core_id=core_id,
            superposition=superposition,
            partner=partner_tid,
        )
        self.threads[thread.tid] = thread
        core = self.cores[core_id]
        core.status = CoreStatus.RUNNING
        core.current_thread = thread.tid
        return thread

    def create_nested_thread(self, parent_tid: int, func_name: str) -> HrtThread:
        parent = self.threads.get(parent_tid)
        if parent is None:
            raise LifecycleError(f"no such thread {parent_tid}")
        if parent.status is ThreadStatus.EXITED:
            raise LifecycleError(f"parent thread {parent_tid} has exited")
        if func_name not in self.function_table:
            raise SymbolError(f"unknown symbol {func_name!r}")
        thread = HrtThread(
            tid=self._alloc_tid(),
            kind=ThreadKind.NESTED,
            func_name=func_name,
            core_id=self._pick_core(),
            parent=parent_tid,
        )
        self.threads[thread.tid] = thread
        return thread

    def ancestor_partner(self, tid: int) -> int:
        """Partner id of the top-level ancestor; the channel endpoint."""
        thread = self.threads[tid]
        while thread.kind is ThreadKind.NESTED:
            assert thread.parent is not None
            thread = self.threads[thread.parent]
        assert thread.partner is not None
        return thread.partner

    # -- fault and syscall paths ----------------------------------------------

    def handle_page_fault(self, core_id: int, fault: FaultInfo) -> FaultResolution:
        """Classify and locally handle one fault raised on an HRT core.

        Higher-half faults are satisfied from HRT-only frames with no
        event traffic.  A lower-half fault identical to the core's most
        recent one means the other side changed a root-level entry: the
        root is re-merged locally and the access retried before any
        second forward.
        """
        assert self.space is not None
        if addr_half(fault.addr) is Half.HIGHER:
            frame = self.machine.hrt_frame_alloc.alloc()
            map_page(self.space, fault.addr & ~(PAGE_SIZE - 1), frame, writable=True)
            return FaultResolution.HANDLED_LOCAL
        core = self.cores[core_id]
        key = (fault.addr, fault.access)
        if core.recent_fault == key:
            if self.ros_space is None:
                raise ProtocolError("no ROS space to re-merge from")
            merge_lower_half(self.space, self.ros_space)
            self.remerge_count += 1
            core.recent_fault = None
            self.log.emit(
                self.clock.now,
                EventKind.MERGE_REQUEST.value,
                core.current_thread or 0,
                f"remerge:0x{fault.addr:x}",
                0,
            )
            return FaultResolution.RETRY_AFTER_REMERGE
        core.recent_fault = key
        return FaultResolution.FORWARD

    def make_fault_event(self, tid: int, fault: FaultInfo) -> EventRecord:
        return EventRecord(
            kind=EventKind.PAGE_FAULT,
            origin=tid,
            detail=fault_detail(fault.addr, fault.access),
            payload=fault,
        )

    def make_syscall_event(self, tid: int, name: str, args: tuple[int, ...]) -> EventRecord:
        return EventRecord(
            kind=EventKind.SYSCALL,
            origin=tid,
            detail=syscall_detail(name, args),
            payload=(name, args),
        )

    def thread_exit(self, tid: int) -> EventRecord | None:
        """Mark a thread exited; top-level exits produce a signal event."""
        thread = self.threads.get(tid)
        if thread is None:
            raise LifecycleError(f"no such thread {tid}")
        if thread.status is ThreadStatus.EXITED:
            raise LifecycleError(f"thread {tid} already exited")
        thread.status = ThreadStatus.EXITED
        core = self.cores[thread.core_id]
        if core.current_thread == tid:
            core.current_thread = None
            core.status = CoreStatus.IDLE_EVENT_LOOP
        if thread.kind is ThreadKind.TOP_LEVEL:
            return EventRecord(
                kind=EventKind.THREAD_EXIT_SIGNAL,
                origin=tid,
                detail=f"exit:{thread.tid}",
            )
        return None

    def resolve_symbol(self, name: str) -> int:
        """Find a function's address, charging lookup or cache-hit cycles."""
        if self.symbol_cache is not None:
            cached = self.symbol_cache.lookup(name)
            if cached is not None:
                self.clock.charge(self.cost.cache_hit)
                return cached
        addr, _ = self.function_table.lookup(name)
        self.clock.charge(self.cost.symbol_lookup)
        if self.symbol_cache is not None:
            self.symbol_cache.insert(name, addr)
        return addr
