"""The kernel-mode runtime: boot state machine, threads, the fault path.

All application threads on this side execute in ring 0.  Anything the
runtime cannot satisfy locally (lower-half page faults, system calls,
exit notifications) is packaged as an event and forwarded to the partner
thread on the other side.  A per-core record of the most recent fault
detects the duplicate that follows a stale root table and triggers a
local re-merge instead of a second forward.  The fault path answers one
question, whether the regular OS must serve a fault; a re-merge shows in
its `MergeRequest` log entry and in `remerge_count`.

Each thread records the partner that serves its forwarded events, fixed
at creation: a nested thread copies its parent's.  A thread mirrors no
regular-OS state: its partner's stack is a region of the process.  A
core has a state only once booted, and keeps only its re-merge state
there (the most recent fault and the thread it ran).  The runtime has no
exit hook: nothing reads its state once a run has ended.

The installed image's symbol table is the runtime's only record of the
functions it can run: thread creation and symbol resolution read it.
What a function does lives in the workload's `func` lines.  The lower
half counts as merged once the merge hypercall has set `ros_space`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import (
    MERGE_REQUEST,
    SYMBOL_LOOKUP,
    THREAD_CREATE,
    THREAD_EXIT_SIGNAL,
    EventLog,
    EventRecord,
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
    PAGE_SIZE,
    PageTableHierarchy,
    identity_map_higher_half,
    map_page,
    merge_lower_half,
)
from .toolchain import AeroKernelImage, SymbolCache


@dataclass
class HrtCoreState:
    recent_fault: tuple[int, str] | None = None  # (address, access kind)
    current_thread: int | None = None  # origin of a re-merge entry


@dataclass
class HrtThread:
    tid: int
    core_id: int
    partner: int  # the partner tid that serves this thread's forwarded events
    parent: int | None = None  # None for a top-level thread
    exited: bool = False


@dataclass
class HrtKernel:
    machine: Machine
    cost: CostModel
    log: EventLog
    image: AeroKernelImage | None = None
    space: PageTableHierarchy | None = None
    ros_space: PageTableHierarchy | None = None
    cores: dict[int, HrtCoreState] = field(default_factory=dict)
    threads: dict[int, HrtThread] = field(default_factory=dict)
    symbol_cache: SymbolCache = field(default_factory=SymbolCache)
    sym_details: dict[str, str] = field(default_factory=dict)  # name -> its one lookup detail
    remerge_count: int = 0
    _next_tid: int = 1000
    _next_core_rr: int = 0

    # -- boot state machine ---------------------------------------------------

    def install_image(self, image: AeroKernelImage) -> None:
        if self.image is not None:
            raise InstallError("an image is already installed")
        frames_needed = max(1, -(-image.payload_size // PAGE_SIZE))
        frame_alloc = self.machine.hrt_frame_alloc
        if frames_needed > frame_alloc.frames_left:
            raise InstallError(
                f"image needs {frames_needed} frames, {frame_alloc.frames_left} available"
            )
        frame_alloc.take(frames_needed)
        self.image = image

    def symbol(self, name: str) -> int:
        """Address of `name` in the installed image's symbol table."""
        if self.image is None or name not in self.image.symbol_table:
            raise SymbolError(f"unknown symbol {name!r}")
        return self.image.symbol_table[name]

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
            self.cores[core_id] = HrtCoreState()

    def booted_cores(self) -> list[int]:
        return sorted(self.cores)

    # -- threads --------------------------------------------------------------

    def _new_thread(self, func_name: str, partner: int, parent: int | None = None) -> HrtThread:
        """Register a thread running func_name on the next booted core,
        round robin."""
        self.symbol(func_name)
        booted = self.booted_cores()
        if not booted:
            raise BootError("no booted HRT core")
        core_id = booted[self._next_core_rr % len(booted)]
        self._next_core_rr += 1
        thread = HrtThread(self._next_tid, core_id, partner, parent)
        self._next_tid += 1
        self.threads[thread.tid] = thread
        return thread

    def create_top_level_thread(self, func_name: str, partner_tid: int) -> HrtThread:
        if self.ros_space is None:
            raise ProtocolError("address spaces must be merged before thread creation")
        thread = self._new_thread(func_name, partner_tid)
        self.cores[thread.core_id].current_thread = thread.tid
        return thread

    def create_nested_thread(self, parent_tid: int, func_name: str) -> HrtThread:
        """A thread served by its parent's partner; logs its creation."""
        parent = self.threads.get(parent_tid)
        if parent is None:
            raise LifecycleError(f"no such thread {parent_tid}")
        if parent.exited:
            raise LifecycleError(f"parent thread {parent_tid} has exited")
        thread = self._new_thread(func_name, parent.partner, parent=parent_tid)
        self.log.emit(THREAD_CREATE, thread.tid, f"create_nested:{func_name}")
        return thread

    # -- fault path -----------------------------------------------------------

    def handle_page_fault(self, core_id: int, addr: int, access: str) -> bool:
        """Handle one fault raised on an HRT core locally if it can; True
        means the regular OS must serve it.

        Higher-half faults are satisfied from HRT-only frames with no
        event traffic.  A lower-half fault identical to the core's most
        recent one means the other side changed a root-level entry: the
        root is re-merged locally and the access retried before any
        second forward.
        """
        assert self.space is not None
        if addr >> 47 & 1:  # the higher half
            frame = self.machine.hrt_frame_alloc.take(1)
            map_page(self.space, addr & ~(PAGE_SIZE - 1), frame, writable=True)
            return False
        core = self.cores[core_id]
        key = (addr, access)
        if core.recent_fault == key:
            if self.ros_space is None:
                raise ProtocolError("no ROS space to re-merge from")
            merge_lower_half(self.space, self.ros_space)
            self.remerge_count += 1
            core.recent_fault = None
            self.log.emit(MERGE_REQUEST, core.current_thread or 0, f"remerge:0x{addr:x}")
            return False
        core.recent_fault = key
        return True

    def thread_exit(self, tid: int) -> EventRecord | None:
        """Mark a thread exited; top-level exits produce a signal event."""
        thread = self.threads.get(tid)
        if thread is None:
            raise LifecycleError(f"no such thread {tid}")
        if thread.exited:
            raise LifecycleError(f"thread {tid} already exited")
        thread.exited = True
        core = self.cores[thread.core_id]
        if core.current_thread == tid:
            core.current_thread = None
        if thread.parent is None:
            return EventRecord(THREAD_EXIT_SIGNAL, tid, f"exit:{tid}")
        return None

    def resolve_symbol(self, name: str, origin: int) -> int:
        """Find a function's address for thread `origin`, and log one
        `SymbolLookup` entry that charges a cache hit or a full lookup."""
        addr = self.symbol_cache.lookup(name)
        if addr is None:
            addr = self.symbol(name)
            self.symbol_cache.insert(name, addr)
            cost = self.cost.symbol_lookup
        else:
            cost = self.cost.cache_hit
        detail = self.sym_details.get(name)
        if detail is None:
            detail = self.sym_details[name] = f"sym:{name}"
        self.log.emit(SYMBOL_LOOKUP, origin, detail, cost)
        return addr
