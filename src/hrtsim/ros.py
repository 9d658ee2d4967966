"""The regular-OS model: process, demand-paged syscalls, partner threads.

The process owns the lower half of the address space.  mmap regions come
from a deterministic bump allocator; partner stacks and other internal
allocations come down from the top of the lower half so that workload
addresses are identical across run modes.  The two areas never cross: a
region that would take one past the other raises `AllocationError`,
which `sys_mmap` returns as ENOMEM, and so does a populated region whose
pages and new page tables the free frames cannot cover; neither changes
anything.  A demand fault that the free frames cannot cover the same way
is a segfault, with nothing changed.  Partner threads service the events
their kernel-mode twins forward and carry the exit bit.  A forwarded
system call brings everything its service needs, `(name, args, cycles)`:
the cycles are those a fall-through's legacy function adds to the
syscall base, 0 for any other call, and every call goes to the syscall
model, which answers a fall-through ENOSYS.  No field names a thread's
kind: main is `RosKernel.main`, a partner is a thread with a `queue`,
and any other thread is local, spawned outside the hybrid mode to run
its body on this side.  Partners and local threads are the join
targets, and a joiner is blocked exactly while its `join_target` is set.
This side issues every hypercall.  Only `RegionList` reads the regions
(`writable_at`, `carve`), and a demand fault that a region allows goes to
`mem.fault_in`, the owner of the page tables and the free frames.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from .channel import (
    ASYNC_CALL,
    MERGE_REQUEST,
    PAGE_FAULT,
    SETUP_SYNC,
    SYSCALL,
    THREAD_CREATE,
    THREAD_EXIT_SIGNAL,
    EventChannel,
    EventLog,
    EventRecord,
    fault_detail,
)
from .costs import CostModel
from .errors import AllocationError, ProtocolError, UsageError
from .hrt import HrtKernel
from .machine import Machine
from .mem import (
    PAGE_SIZE,
    WRITE,
    PageTableHierarchy,
    absent_tables,
    ensure_root_entry,
    fault_in,
    map_page,
    merge_lower_half,
    translate,
    unmap_page,
)
from .toolchain import AeroKernelImage

EINVAL = -22
ENOMEM = -12
EFAULT = -14
ENOSYS = -38

MMAP_BASE = 0x0000_1000_0000_0000
STACK_TOP = 0x0000_7FFF_FFFF_0000
DEFAULT_STACK_BYTES = 64 * 1024


class RegionList(list):
    """The live regions' writable flags, in base order, so `len()` counts
    the regions; regions never overlap.  Region i is pages [bases[i],
    bases[i] + lengths[i]), writable if self[i]: three parallel lists, so an
    mmap builds no record and a lookup bisects a plain list of ints.  The
    slots keep the two attribute reads of a lookup as fast as on a plain
    class.  `add` and `carve` are the mutators, and both keep the three in
    step."""

    __slots__ = ("bases", "lengths")

    def __init__(self):
        super().__init__()
        self.bases: list[int] = []
        self.lengths: list[int] = []

    def add(self, base: int, length: int, writable: bool) -> None:
        i = bisect_right(self.bases, base)
        self.bases.insert(i, base)
        self.lengths.insert(i, length)
        self.insert(i, writable)

    def writable_at(self, addr: int) -> bool | None:
        """Whether the region containing addr is writable; None if no region does."""
        i = bisect_right(self.bases, addr) - 1
        if i >= 0 and addr < self.bases[i] + self.lengths[i]:
            return self[i]
        return None

    def carve(self, base: int, stop: int) -> bool:
        """Remove pages [base, stop) from the one region that holds them
        all; its parts below base and from stop on stay, each a region of
        its own.  False, with nothing changed, when no region holds them."""
        bases = self.bases
        i = bisect_right(bases, base) - 1
        if i < 0:
            return False
        start, writable = bases[i], self[i]
        end = start + self.lengths[i]
        if stop > end:  # also when base is past the region, as stop > base
            return False
        del bases[i], self.lengths[i], self[i]
        if start < base:
            self.add(start, base - start, writable)
        if stop < end:
            self.add(stop, end - stop, writable)
        return True


@dataclass
class RosThread:
    tid: int
    core_id: int
    exited: bool = False
    # Partner-only state.
    hrt_thread: int | None = None
    exit_bit: bool = False
    queue: deque[EventRecord] | None = None  # its endpoint's injection queue, bound at spawn
    # Join state: `joined` on the target, `join_target` on the joiner.
    joined: bool = False
    join_target: int | None = None


@dataclass
class RosProcess:
    space: PageTableHierarchy
    vm_regions: RegionList = field(default_factory=RegionList)
    failed: bool = False
    fail_reason: str = ""


class RosKernel:
    """Syscall model, demand paging, and partner-thread lifecycle."""

    def __init__(
        self,
        machine: Machine,
        cost: CostModel,
        log: EventLog,
        channel: EventChannel,
        hrt: HrtKernel,
    ):
        self.machine = machine
        self.cost = cost
        self.log = log
        self.channel = channel
        self.hrt = hrt
        self.proc = RosProcess(PageTableHierarchy(machine.table_store, machine.ros_frame_alloc))
        # The mmap and stack areas have live root entries from process start.
        ensure_root_entry(self.proc.space, MMAP_BASE)
        ensure_root_entry(self.proc.space, STACK_TOP - PAGE_SIZE)
        self.threads: dict[int, RosThread] = {}
        self._next_tid = 1
        self._next_mmap = MMAP_BASE
        self._next_stack = STACK_TOP
        self._core_rr = 0
        self.main = self._new_thread()

    # -- threads --------------------------------------------------------------

    def _new_thread(self) -> RosThread:
        core_ids = self.machine.ros_core_ids
        thread = RosThread(self._next_tid, core_ids[self._core_rr % len(core_ids)])
        self._core_rr += 1
        self._next_tid += 1
        self.threads[thread.tid] = thread
        return thread

    # -- address space --------------------------------------------------------

    def _alloc_region(
        self, length: int, populate: bool, writable: bool, stack: bool = False
    ) -> int:
        """Add a region of length bytes, rounded up to whole pages; its base."""
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        if self._next_stack - self._next_mmap < length:  # the two areas never cross
            raise AllocationError(f"no room for a 0x{length:x}-byte region")
        base = self._next_stack - length if stack else self._next_mmap
        if populate:  # refused, with nothing changed, unless its pages and new tables fit
            space, frames = self.proc.space, self.machine.ros_frame_alloc
            spare = frames.frames_left - length // PAGE_SIZE
            if spare < 0 or spare < absent_tables(space, base, length):
                raise AllocationError(f"no frames to populate a 0x{length:x}-byte region")
            for page in range(base, base + length, PAGE_SIZE):
                map_page(space, page, frames.take(1), writable=writable)
        if stack:
            self._next_stack = base
        else:
            self._next_mmap = base + length
        self.proc.vm_regions.add(base, length, writable)
        return base

    # -- syscall model --------------------------------------------------------

    def sys_mmap(self, length: int, populate: bool = False, writable: bool = True) -> int:
        """New region at the next free base; populate maps pages eagerly."""
        if length <= 0:
            return EINVAL
        try:
            return self._alloc_region(length, populate, writable)
        except AllocationError:
            return ENOMEM

    def sys_munmap(self, base: int, length: int) -> int:
        if length <= 0 or base % PAGE_SIZE:
            return EINVAL
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        if not self.proc.vm_regions.carve(base, base + length):
            return EINVAL
        unmap_page(self.proc.space, base, length)
        return 0

    def syscall(self, name: str, args: tuple[int, ...]) -> int:
        if name == "write":
            return args[1] if len(args) > 1 else 0
        if name == "mmap":  # absent flags: not populated, writable
            n = len(args)
            return self.sys_mmap(
                args[0] if n else 0, n > 1 and args[1] != 0, n < 3 or args[2] != 0
            )
        if name == "munmap":
            return self.sys_munmap(args[0], args[1]) if len(args) > 1 else EINVAL
        return ENOSYS

    def demand_fault(self, addr: int, access: str) -> bool:
        """Replicate a faulting access; False means an unrecoverable
        segfault, which marks the process failed.  A fault outside every
        region or a write to a read-only one is refused here, and any other
        goes to `mem.fault_in`; a refusal changes nothing else."""
        writable = self.proc.vm_regions.writable_at(addr)  # None outside every region
        if writable is not None and (writable or access is not WRITE):
            if fault_in(self.proc.space, addr, access, writable):
                return True
        self.proc.failed = True
        self.proc.fail_reason = f"segfault at 0x{addr:x}"
        return False

    def touch(self, addr: int, access: str, origin_tid: int) -> bool:
        """Local access by a ROS thread, demand-paging as needed.

        Charges and logs one page-fault event per first touch; returns
        False on segfault (workload marked failed).  A page in the memo of
        its access kind is not walked (see `mem`).
        """
        space = self.proc.space
        if addr >> 12 in (space.wmemo if access is WRITE else space.memo):
            return True
        if translate(space, addr, access) is not None:
            return True
        if not self.demand_fault(addr, access):
            return False
        self.log.emit(
            PAGE_FAULT, origin_tid, fault_detail(addr, access), self.cost.pagefault_base
        )
        return True

    # -- forwarded-event service ----------------------------------------------

    def serve_forwarded(self, partner: RosThread, ev: EventRecord) -> None:
        """Service one injected event and complete it on the channel."""
        kind = ev.kind
        if kind is SYSCALL:
            name, args, extra = ev.payload
            ev.cost += self.cost.syscall_base + extra
            result = self.syscall(name, args)
        elif kind is PAGE_FAULT:
            addr, access = ev.payload
            if self.demand_fault(addr, access):
                ev.cost += self.cost.pagefault_base
                result = 0
            else:
                result = EFAULT
        elif kind is THREAD_EXIT_SIGNAL:
            partner.exit_bit = True
            result = 0
        else:
            raise UsageError(f"partner cannot serve {kind}")
        self.channel.complete_event(ev, result)

    def partner_step(self, partner: RosThread) -> bool:
        """One scheduler step of a partner thread; True if it made progress."""
        if partner.exited:
            return False
        queue = partner.queue
        if queue:
            self.serve_forwarded(partner, queue.popleft())
            return True
        if partner.exit_bit:
            # Cleanup after its twin has exited.
            partner.exited = True
            self.channel.drop_endpoint(partner.tid)
            return True
        return False

    # -- spawn / join ---------------------------------------------------------

    def spawn_hrt(self, func_name: str) -> RosThread:
        """Create a partner and request a top-level twin running func_name."""
        addr = self.hrt.symbol(func_name)  # SymbolError if unknown
        partner = self._new_thread()
        partner.queue = self.channel.register_endpoint(partner.tid)
        # The partner's stack: every later stack-side address is below it.
        self._alloc_region(DEFAULT_STACK_BYTES, populate=False, writable=True, stack=True)

        def create_twin() -> int:
            twin = self.hrt.create_top_level_thread(func_name, partner.tid)
            self.log.emit(THREAD_CREATE, partner.tid, f"create:{func_name}:{twin.tid}")
            return twin.tid

        detail = f"func=0x{addr:x},parallel=0"
        partner.hrt_thread = self.channel.hypercall(
            self.main.tid, ASYNC_CALL, detail, self.cost.async_call, create_twin
        )
        return partner

    def spawn_local(self, name: str) -> RosThread:
        """Create a thread spawned outside the hybrid mode; it runs its body
        on this side."""
        thread = self._new_thread()
        self.log.emit(THREAD_CREATE, thread.tid, f"create:{name}")
        return thread

    def setup_sync(self, tid: int) -> None:
        """Set up the synchronous-call page with one hypercall from thread
        tid; the address spaces must be merged first."""
        if self.hrt.ros_space is None:
            raise ProtocolError("synchronous setup requires a merged address space")
        page = self._alloc_region(PAGE_SIZE, populate=True, writable=True, stack=True)

        def set_up() -> None:
            self.channel.sync_page = page

        self.channel.hypercall(tid, SETUP_SYNC, f"vaddr=0x{page:x}", self.cost.hypercall, set_up)

    def join(self, joiner: RosThread, target_tid: int) -> None:
        """Block the joiner until the target partner or local thread has exited."""
        if joiner.queue is not None:
            raise UsageError("partner threads do not join")
        target = self.threads.get(target_tid)
        if target is None or target is self.main:
            raise UsageError(f"{target_tid} is not a partner or local thread")
        if target.joined:
            raise UsageError(f"thread {target_tid} already joined")
        joiner.join_target = target_tid
        self.try_finish_join(joiner)

    def try_finish_join(self, joiner: RosThread) -> bool:
        """Resume the joiner if its target has exited; no lost wakeups."""
        if joiner.join_target is None:
            return False
        target = self.threads[joiner.join_target]
        if target.exited:
            target.joined = True
            joiner.join_target = None
            return True
        return False


def init_runtime(system, image: AeroKernelImage) -> RosProcess:
    """Program-start sequence: install, boot, merge.  Function linkage is
    image installation: every symbol of the image resolves through the
    installed image's symbol table.  Any sub-step failure propagates as
    that step's error."""
    ros: RosKernel = system.ros
    hrt: HrtKernel = system.hrt
    channel: EventChannel = system.channel
    hrt.install_image(image)
    hrt.boot(system.machine.hrt_core_ids)
    cr3 = ros.proc.space.cr3

    def merge() -> None:
        hrt.ros_space = ros.proc.space
        merge_lower_half(hrt.space, ros.proc.space)

    channel.hypercall(ros.main.tid, MERGE_REQUEST, f"cr3={cr3}", system.cost.merger, merge)
    return ros.proc
