"""A plain interpreter of a parsed workload: the oracle the driver answers to.

`Reference(machine, program, mode).run()` runs a `WorkloadProgram` in
"virtual" or "multiverse" mode.  It imports nothing from `hrtsim.sim`
and shares none of the driver's code: it builds the kernels and the
channel itself, calls the model operations of `ros`, `hrt`, `channel`
and `mem` directly, and runs each thread body in a generator of its own.
It leaves out each fast path of the driver, on purpose:

- every round steps every context that is not done, once, in creation
  order; a context added in a round first runs in the next one.  Nothing
  parks, and there is no run list;
- a step runs one action of the body's unrolled `ThreadBody.actions`;
- every access walks: the address space's `memo`, `wmemo` and
  `leaf_tables` are cleared before each access, and the regular OS's
  before each partner step, which may serve a fault;
- each system call and fault that a kernel-mode thread forwards is a
  fresh `EventRecord`.

A step that makes no progress changes nothing, so the steps that do, and
with them the log, must be the driver's.  `progress` records each of
them as `(tid, name, done)`: the context's thread id; its name (`main`,
a body's name, `partner:NAME` for the partner of top-level thread NAME,
and `NAME#TID` for a nested thread); and whether the context ended in
that step.  A run ends when main exits, when the regular OS marks the
workload failed (a refused demand fault), or with the error a step
raises; a round in which no context makes progress is a `DeadlockError`.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from hrtsim.channel import (
    COMPUTE,
    FALLTHROUGH,
    OVERRIDE,
    PAGE_FAULT,
    SYSCALL,
    EventChannel,
    EventLog,
    EventRecord,
    fault_detail,
    syscall_detail,
)
from hrtsim.costs import CostModel
from hrtsim.errors import DeadlockError, DoubleFaultError, UsageError
from hrtsim.hrt import HrtKernel
from hrtsim.machine import Machine
from hrtsim.mem import HIGHER_BASE, WRITE, PageTableHierarchy, translate
from hrtsim.ros import EFAULT, RosKernel, init_runtime
from hrtsim.toolchain import AeroKernelImage
from hrtsim.workload import ThreadBody, WorkloadProgram

Steps = Generator[bool, None, None]  # one `next()` a step: True if it made progress


class _Halt(Exception):
    """The regular OS has marked the workload failed: the run ends."""


@dataclass(eq=False)
class Context:
    tid: int
    name: str
    thread: Steps
    done: bool = False


def kernel_image(program: WorkloadProgram) -> AeroKernelImage:
    """One symbol for each name the program exports, 0x40 apart from
    2 MiB into the higher half, in name order."""
    names = sorted(program.symbols())
    symbols = {name: HIGHER_BASE + 0x0020_0000 + i * 0x40 for i, name in enumerate(names)}
    entry = names[0] if names else "main"
    return AeroKernelImage(entry, symbols, 64 * 1024 + 0x40 * len(symbols))


def forget_walks(space: PageTableHierarchy) -> None:
    """Clear the space's walk memos and cached leaf tables: its next
    access walks from the root."""
    space.memo.clear()
    space.wmemo.clear()
    space.leaf_tables.clear()


def from_last(last: int | None, offset: int) -> int:
    if last is None:
        raise UsageError("'last' used before any mmap in this thread")
    return last + offset


def system_call(last: int | None, payload: tuple, detail: str | None) -> tuple[tuple, str]:
    """A lowered system call's payload `(name, args, cycles)` and its log
    detail; `munmap last+N`, lowered with N as its base and no detail,
    gets its base from the thread's last mmap."""
    if detail is not None:
        return payload, detail
    name, (offset, length), cycles = payload
    args = (from_last(last, offset), length)
    return (name, args, cycles), syscall_detail(name, args)


class Reference:
    def __init__(self, machine: Machine, program: WorkloadProgram, mode: str):
        self.machine, self.program = machine, program
        self.multiverse = mode == "multiverse"
        self.cost = CostModel()
        self.log = EventLog()
        self.channel = EventChannel(self.cost, self.log)
        self.hrt = HrtKernel(machine, self.cost, self.log)
        self.ros = RosKernel(machine, self.cost, self.log, self.channel, self.hrt)
        self.contexts: list[Context] = []
        self.spawned: dict[str, int] = {}  # body name -> the tid a join of it waits on
        self.progress: list[tuple[int, str, bool]] = []
        self.ended = False  # main has exited

    def run(self) -> None:
        """Set up, then run rounds until the run ends; a step's error
        propagates, and the log holds every entry up to it."""
        if self.multiverse:  # install the image, boot, merge
            init_runtime(self, kernel_image(self.program))
        main = self.ros.main.tid
        body = self.program.bodies["main"]
        self.contexts.append(Context(main, "main", self._ros_body(main, body)))
        try:
            while not self.ended:
                self._round()
        except _Halt:
            pass
        finally:
            for ctx in self.contexts:
                ctx.thread.close()

    def _round(self) -> None:
        progressed = False
        for ctx in list(self.contexts):
            if ctx.done or self.ended:
                continue
            try:
                stepped = next(ctx.thread)
            except StopIteration:
                ctx.done = stepped = True
            if stepped:
                progressed = True
                self.progress.append((ctx.tid, ctx.name, ctx.done))
        if not progressed:
            events = self.channel.outstanding
            dump = ", ".join(f"{e.kind} origin={e.origin} detail={e.detail}" for e in events)
            raise DeadlockError(
                f"no runnable context; outstanding events: {dump or 'none'}", events=events
            )

    def _spawn(self, name: str) -> None:
        """In multiverse a partner and its kernel-mode twin, else a thread
        of the regular OS."""
        body = self.program.bodies[name]
        if not self.multiverse:
            tid = self.spawned[name] = self.ros.spawn_local(name).tid
            self.contexts.append(Context(tid, name, self._ros_body(tid, body)))
            return
        partner = self.ros.spawn_hrt(name)
        self.spawned[name] = partner.tid
        twin = partner.hrt_thread
        self.contexts.append(Context(partner.tid, f"partner:{name}", self._partner(partner)))
        self.contexts.append(Context(twin, name, self._hrt_body(twin, body)))

    # -- the regular OS --------------------------------------------------------

    def _ros_body(self, tid: int, body: ThreadBody) -> Steps:
        """Main, and in virtual every spawned body."""
        ros, log, base = self.ros, self.log, self.cost.syscall_base
        last = None  # the thread's last successful mmap
        for op, a, b, c in body.actions:
            if op == "touch":
                forget_walks(ros.proc.space)
                if not ros.touch(a if c is not None else from_last(last, a), b, tid):
                    raise _Halt
            elif op == "compute":
                log.emit(COMPUTE, tid, "compute", a)
            elif op == "call_override":  # an ordinary library call here
                log.emit(SYSCALL, tid, a.call, base + a.legacy_cycles, call=a.call)
            elif op in ("mmap", "munmap", "syscall"):
                (name, args, _), detail = system_call(last, a, b)
                result = ros.syscall(name, args)
                log.emit(SYSCALL, tid, detail, base, call=name)
                if name == "mmap" and result >= 0:
                    last = result
            elif op == "spawn":
                self._spawn(a)
            elif op == "spawn_nested":
                if self.multiverse:
                    raise UsageError("spawn_nested is only valid in kernel-mode threads")
                self._spawn(a)
            elif op == "join":
                if a not in self.spawned:
                    raise UsageError(f"join target {a!r} was never spawned")
                joiner = ros.threads[tid]
                ros.join(joiner, self.spawned[a])
                if joiner.join_target is not None:  # the target runs on
                    yield True
                    while not ros.try_finish_join(joiner):
                        yield False
            elif op == "sync_call":
                self._sync_call(tid, a)
            else:  # exit
                ros.threads[tid].exited = True
                if tid == ros.main.tid:  # main's exit ends every thread
                    self.ended = True
                return
            yield True

    def _sync_call(self, tid: int, name: str) -> None:
        behavior = self.program.funcs.get(name)
        cycles = behavior.cycles if behavior is not None else 0

        def callee(origin: int) -> None:
            if cycles:
                self.log.emit(COMPUTE, origin, f"func:{name}", cycles)

        if not self.multiverse:
            callee(tid)
            return
        if self.channel.sync_page is None:
            self.ros.setup_sync(tid)
        addr = self.hrt.symbol(name)
        socket = self.machine.socket_of
        same = socket(self.ros.threads[tid].core_id) == socket(self.hrt.booted_cores()[0])
        self.channel.sync_invoke(addr, same, lambda: callee(0))

    def _partner(self, partner) -> Steps:
        """Serves its twin's and the twin's nested threads' events until
        its cleanup step, after the twin's exit."""
        while True:
            forget_walks(self.ros.proc.space)
            progressed = self.ros.partner_step(partner)
            if partner.exited:
                return
            yield progressed

    # -- kernel mode -----------------------------------------------------------

    def _hrt_body(self, tid: int, body: ThreadBody) -> Steps:
        hrt, log = self.hrt, self.log
        thread = hrt.threads[tid]
        last = None  # the thread's last successful mmap
        for op, a, b, c in body.actions:
            if op == "touch":
                yield from self._access(thread, a if c is not None else from_last(last, a), b)
                continue
            touches = ()  # the writes of an enabled override's target
            if op == "compute":
                log.emit(COMPUTE, tid, "compute", a)
            elif op == "call_override" and a.target is None:  # falls through: forwarded
                log.emit(FALLTHROUGH, tid, a.call)
                yield from self._forward(thread, EventRecord(SYSCALL, tid, a.detail, a.payload))
            elif op == "call_override" and a.creates:  # thread creation is a spawn
                if a.spawn is None:
                    raise UsageError("thread-create override needs a thread body name")
                self._spawn(a.spawn)
            elif op == "call_override":  # runs in place; its writes follow, one step each
                hrt.resolve_symbol(a.target, tid)
                log.emit(OVERRIDE, tid, a.detail, a.behavior.cycles)
                touches = a.behavior.touches
            elif op in ("mmap", "munmap", "syscall"):
                payload, detail = system_call(last, a, b)
                ev = EventRecord(SYSCALL, tid, detail, payload)
                result = yield from self._forward(thread, ev)
                if payload[0] == "mmap" and result >= 0:
                    last = result
            elif op == "spawn_nested":
                nested = hrt.create_nested_thread(tid, a).tid
                self.contexts.append(
                    Context(nested, f"{a}#{nested}", self._hrt_body(nested, self.program.bodies[a]))
                )
            elif op == "exit":
                signal = hrt.thread_exit(tid)
                if signal is not None:  # a top-level thread's exit
                    self.channel.forward_event(signal, thread.partner)
                return
            elif op == "spawn":
                raise UsageError("spawn from a kernel-mode thread; use spawn_nested or an override")
            elif op == "join":
                raise UsageError("join is issued from the main thread")
            else:  # sync_call
                raise UsageError("sync_call is issued from the ROS side")
            yield True
            for addr in touches:
                yield from self._access(thread, addr, WRITE)

    def _forward(self, thread, ev: EventRecord) -> Generator[bool, None, int]:
        """Forward ev to the thread's partner: the step that forwards it,
        then one step without progress a round until it is served; the
        step that finds it served goes on, with its result."""
        self.channel.forward_event(ev, thread.partner)
        yield True
        while ev.complete_cycle is None:
            yield False
        return ev.result

    def _access(self, thread, addr: int, access: str) -> Steps:
        """One access, one step, walked after each fault: the runtime
        handles a fault locally, re-merges, or has it forwarded and served.
        Four local resolutions in a row, or a third forward, is a double
        fault."""
        space, local, forwards = self.hrt.space, 0, 0
        while True:
            forget_walks(space)
            if translate(space, addr, access) is not None:
                break
            if not self.hrt.handle_page_fault(thread.core_id, addr, access):
                local += 1
                if local == 4:
                    raise DoubleFaultError(f"access 0x{addr:x} {access} cannot be satisfied")
            elif forwards == 2:
                raise DoubleFaultError(
                    f"access 0x{addr:x} {access} still faults after re-merge and re-forward"
                )
            else:
                local, forwards = 0, forwards + 1
                ev = EventRecord(PAGE_FAULT, thread.tid, fault_detail(addr, access), (addr, access))
                if (yield from self._forward(thread, ev)) == EFAULT:
                    raise _Halt
        yield True
