"""The regular-OS model: process, demand-paged syscalls, partner threads.

The process owns the lower half of the address space.  mmap regions come
from a deterministic bump allocator; partner stacks and other internal
allocations come down from the top of the lower half so that workload
addresses are identical across run modes.  Partner threads service the
events their kernel-mode twins forward and carry the exit bit.  Partners
and local threads (those spawned outside the hybrid mode) are the join
targets.
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
    Hypercall,
    HypercallKind,
    SpawnRequest,
    fault_detail,
)
from .costs import CostModel
from .errors import AllocationError, UsageError
from .hrt import HrtKernel, Superposition
from .machine import Machine
from .mem import (
    PAGE_SIZE,
    AccessKind,
    ControlState,
    FaultInfo,
    PageTableHierarchy,
    Ring,
    ensure_root_entry,
    map_page,
    translate,
    unmap_page,
)

EINVAL = -22
ENOMEM = -12
EFAULT = -14
ENOSYS = -38

MMAP_BASE = 0x0000_1000_0000_0000
STACK_TOP = 0x0000_7FFF_FFFF_0000
DEFAULT_STACK_BYTES = 64 * 1024


@dataclass
class Region:
    base: int
    length: int
    populated: bool
    writable: bool

    @property
    def end(self) -> int:
        return self.base + self.length

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class RosThreadRole(enum.Enum):
    MAIN = "main"
    PARTNER = "partner"
    LOCAL = "local"  # spawned outside the hybrid mode; runs its body on this side


class RosThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_JOIN = "blocked_join"
    EXITED = "exited"


@dataclass
class RosThread:
    tid: int
    role: RosThreadRole
    core_id: int
    status: RosThreadStatus = RosThreadStatus.RUNNABLE
    # Partner-only state.
    hrt_thread: int | None = None
    exit_bit: bool = False
    stack_region: Region | None = None
    # Join state: `joined` on the target, `join_target` on the joiner.
    joined: bool = False
    join_target: int | None = None


@dataclass
class RosProcess:
    pid: int
    space: PageTableHierarchy
    vm_regions: list[Region] = field(default_factory=list)
    threads: list[int] = field(default_factory=list)
    output: list[str] = field(default_factory=list)
    failed: bool = False
    fail_reason: str = ""


class RosKernel:
    """Syscall model, demand paging, and partner-thread lifecycle."""

    def __init__(
        self,
        machine: Machine,
        cost: CostModel,
        clock: Clock,
        log: EventLog,
        channel: EventChannel,
        hrt: HrtKernel,
    ):
        self.machine = machine
        self.cost = cost
        self.clock = clock
        self.log = log
        self.channel = channel
        self.hrt = hrt
        self.proc = RosProcess(
            pid=1,
            space=PageTableHierarchy(machine.table_store, machine.ros_frame_alloc),
        )
        # The mmap and stack areas have live root entries from process start.
        ensure_root_entry(self.proc.space, MMAP_BASE)
        ensure_root_entry(self.proc.space, STACK_TOP - PAGE_SIZE)
        self.threads: dict[int, RosThread] = {}
        self._next_tid = 1
        self._next_mmap = MMAP_BASE
        self._next_stack = STACK_TOP
        self._core_rr = 0
        self.signal_handlers_registered = False
        self.exit_hook_registered = False
        self.legacy_funcs: dict[str, object] = {}
        self.main = self._new_thread(RosThreadRole.MAIN)
        # Unblock order bookkeeping for join-safety checks.
        self.join_log: list[tuple[int, str, int]] = []

    # -- threads --------------------------------------------------------------

    def _new_thread(self, role: RosThreadRole) -> RosThread:
        core_ids = self.machine.ros_core_ids
        thread = RosThread(
            tid=self._next_tid,
            role=role,
            core_id=core_ids[self._core_rr % len(core_ids)],
        )
        self._core_rr += 1
        self._next_tid += 1
        self.threads[thread.tid] = thread
        self.proc.threads.append(thread.tid)
        return thread

    # -- address space --------------------------------------------------------

    def control_state(self) -> ControlState:
        return ControlState(cr0_wp=True, cr3=self.proc.space.cr3, ring=Ring.RING3)

    def region_at(self, addr: int) -> Region | None:
        for region in self.proc.vm_regions:
            if region.contains(addr):
                return region
        return None

    def _alloc_region(
        self, length: int, populate: bool, writable: bool, stack: bool = False
    ) -> Region:
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        if stack:
            self._next_stack -= length
            base = self._next_stack
        else:
            base = self._next_mmap
            self._next_mmap += length
        region = Region(base, length, populate, writable)
        self.proc.vm_regions.append(region)
        if populate:
            for page in range(base, base + length, PAGE_SIZE):
                frame = self.machine.ros_frame_alloc.alloc()
                map_page(self.proc.space, page, frame, writable=writable)
        return region

    # -- syscall model --------------------------------------------------------

    def sys_mmap(self, length: int, populate: bool = False, writable: bool = True) -> int:
        """New region at the next free base; populate maps pages eagerly."""
        if length <= 0:
            return EINVAL
        try:
            return self._alloc_region(length, populate, writable).base
        except AllocationError:
            return ENOMEM

    def sys_munmap(self, base: int, length: int) -> int:
        if length <= 0 or base % PAGE_SIZE:
            return EINVAL
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        region = self.region_at(base)
        if region is None or base + length > region.end:
            return EINVAL
        for page in range(base, base + length, PAGE_SIZE):
            unmap_page(self.proc.space, page)
        self.proc.vm_regions.remove(region)
        if region.base < base:
            self.proc.vm_regions.append(
                Region(region.base, base - region.base, region.populated, region.writable)
            )
        if base + length < region.end:
            self.proc.vm_regions.append(
                Region(
                    base + length,
                    region.end - (base + length),
                    region.populated,
                    region.writable,
                )
            )
        return 0

    def syscall(self, name: str, args: tuple[int, ...]) -> int:
        if name == "write":
            fd = args[0] if args else 1
            count = args[1] if len(args) > 1 else 0
            self.proc.output.append(f"write(fd={fd},n={count})")
            return count
        if name == "mmap":
            length = args[0] if args else 0
            populate = bool(args[1]) if len(args) > 1 else False
            writable = bool(args[2]) if len(args) > 2 else True
            return self.sys_mmap(length, populate, writable)
        if name == "munmap":
            if len(args) < 2:
                return EINVAL
            return self.sys_munmap(args[0], args[1])
        if name.startswith("call:"):
            behavior = self.legacy_funcs.get(name[5:])
            if behavior is not None:
                return behavior.returns
        return ENOSYS

    def demand_fault(self, addr: int, access: AccessKind) -> bool:
        """Replicate a faulting access; False means an unrecoverable segfault.

        A page an earlier forwarded fault already mapped is kept, so
        concurrent faults on one page allocate one frame.
        """
        region = self.region_at(addr)
        if region is None:
            return False
        if access is AccessKind.WRITE and not region.writable:
            return False
        result = translate(self.proc.space, self.control_state(), addr, access)
        if not isinstance(result, FaultInfo):
            return True
        try:
            frame = self.machine.ros_frame_alloc.alloc()
        except AllocationError:
            return False
        map_page(self.proc.space, addr & ~(PAGE_SIZE - 1), frame, writable=region.writable)
        return True

    def touch(self, addr: int, access: AccessKind, origin_tid: int) -> bool:
        """Local access by a ROS thread, demand-paging as needed.

        Charges and logs one page-fault event per first touch; returns
        False on segfault (workload marked failed).
        """
        result = translate(self.proc.space, self.control_state(), addr, access)
        if not isinstance(result, FaultInfo):
            return True
        if not self.demand_fault(addr, access):
            self.proc.failed = True
            self.proc.fail_reason = f"segfault at 0x{addr:x}"
            return False
        self.clock.charge(self.cost.pagefault_base)
        self.log.emit(
            self.clock.now,
            EventKind.PAGE_FAULT.value,
            origin_tid,
            fault_detail(addr, access),
            self.cost.pagefault_base,
        )
        return True

    # -- forwarded-event service ----------------------------------------------

    def serve_forwarded(self, partner: RosThread, ev: EventRecord) -> int:
        """Service one injected event and complete it on the channel."""
        if ev.kind is EventKind.PAGE_FAULT:
            fault: FaultInfo = ev.payload
            if self.demand_fault(fault.addr, fault.access):
                ev.cost += self.cost.pagefault_base
                result = 0
            else:
                self.proc.failed = True
                self.proc.fail_reason = f"segfault at 0x{fault.addr:x}"
                result = EFAULT
        elif ev.kind is EventKind.SYSCALL:
            name, args = ev.payload
            ev.cost += self.cost.syscall_base
            if name.startswith("call:"):
                behavior = self.legacy_funcs.get(name[5:])
                if behavior is not None:
                    ev.cost += behavior.cycles
            result = self.syscall(name, args)
        elif ev.kind is EventKind.THREAD_EXIT_SIGNAL:
            partner.exit_bit = True
            self.join_log.append((self.clock.now, "exit_bit", partner.tid))
            result = 0
        else:
            raise UsageError(f"partner cannot serve {ev.kind}")
        self.channel.complete_event(ev, result)
        return result

    def partner_step(self, partner: RosThread) -> bool:
        """One scheduler step of a partner thread; True if it made progress."""
        if partner.status is RosThreadStatus.EXITED:
            return False
        queue = self.channel.queues.get(partner.tid)
        if queue:
            self.serve_forwarded(partner, queue.popleft())
            return True
        if partner.exit_bit:
            # Cleanup after its twin has exited.
            partner.status = RosThreadStatus.EXITED
            self.channel.drop_endpoint(partner.tid)
            self.join_log.append((self.clock.now, "partner_exit", partner.tid))
            return True
        return False

    # -- spawn / join ---------------------------------------------------------

    def spawn_hrt(self, func_name: str) -> RosThread:
        """Create a partner and request a top-level twin running func_name."""
        addr, _ = self.hrt.function_table.lookup(func_name)  # SymbolError if unknown
        partner = self._new_thread(RosThreadRole.PARTNER)
        self.channel.register_endpoint(partner.tid)
        stack = self._alloc_region(
            DEFAULT_STACK_BYTES, populate=False, writable=True, stack=True
        )
        partner.stack_region = stack
        superposition = Superposition(
            gdt_snapshot=("gdt", self.proc.pid, partner.tid),
            tls_base=stack.end - PAGE_SIZE,
        )
        request = SpawnRequest(addr, func_name, superposition, partner.tid)
        partner.hrt_thread = self.channel.hypercall(
            self.main.tid, Hypercall(HypercallKind.ASYNC_CALL, request)
        )
        return partner

    def async_call_handler(self, request: SpawnRequest) -> int:
        """Channel hook for the asynchronous call: create the requested
        top-level twin and return its thread id."""
        thread = self.hrt.create_top_level_thread(
            request.func_name, request.superposition, request.partner_tid
        )
        self.log.emit(
            self.clock.now,
            EventKind.THREAD_CREATE.value,
            request.partner_tid,
            f"create:{request.func_name}:{thread.tid}",
            0,
        )
        return thread.tid

    def join(self, joiner: RosThread, target_tid: int) -> None:
        """Block the joiner until the target partner or local thread has exited."""
        if joiner.role is RosThreadRole.PARTNER:
            raise UsageError("partner threads do not join")
        target = self.threads.get(target_tid)
        if target is None or target.role is RosThreadRole.MAIN:
            raise UsageError(f"{target_tid} is not a partner or local thread")
        if target.joined:
            raise UsageError(f"thread {target_tid} already joined")
        joiner.status = RosThreadStatus.BLOCKED_JOIN
        joiner.join_target = target_tid
        self.try_finish_join(joiner)

    def try_finish_join(self, joiner: RosThread) -> bool:
        """Resume the joiner if its target has exited; no lost wakeups."""
        if joiner.status is not RosThreadStatus.BLOCKED_JOIN:
            return False
        target = self.threads[joiner.join_target]
        if target.status is RosThreadStatus.EXITED:
            target.joined = True
            joiner.status = RosThreadStatus.RUNNABLE
            joiner.join_target = None
            self.join_log.append((self.clock.now, "join_resume", target.tid))
            return True
        return False


def init_runtime(system, fat_bytes: bytes) -> RosProcess:
    """Program-start hook sequence: handlers, exit hook, linkage, install,
    boot, merge.  Any sub-step failure propagates as that step's error."""
    from .toolchain import parse_fat_binary

    ros: RosKernel = system.ros
    hrt: HrtKernel = system.hrt
    app, image = parse_fat_binary(fat_bytes)
    ros.signal_handlers_registered = True
    ros.exit_hook_registered = True
    # Function linkage happens as part of image installation: every
    # embedded symbol becomes resolvable through the function table.
    hrt.install_image(image)
    hrt.boot(system.machine.hrt_core_ids)
    system.channel.hypercall(
        ros.main.tid,
        Hypercall(HypercallKind.MERGE_ADDRESS_SPACE, ros.proc.space.cr3),
    )
    return ros.proc
