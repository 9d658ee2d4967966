"""Deterministic run driver: modes, stepping, benchmark replay, comparison.

Each simulated thread runs as a generator, and one `next()` of it is one
scheduler step: a thread body advances by one action per step, and a
thread blocked on a forwarded event or a join yields without progress.
A body is lowered once, at parse time, to its `steps` (exact tuples laid
out as `workload.Action`), so a step unpacks one predecoded tuple: its
operands, and any log detail that does not depend on the run, are final.
Only a `last+N` address and its detail are computed in the step.
In multiverse, set-up builds the kernel image the workload needs
(`kernel_image`) and hands it to `init_runtime`, which installs it, boots
the runtime and merges the address spaces; no fat binary is encoded or
decoded on the way.
Contexts are stepped strict round-robin in creation order (regular OS
threads before kernel-mode threads).  One call of `Simulator.step()` is one
round: it steps each runnable context once, with the `next()` inline, and
`execute` calls it until main is done.  Every cost is charged by the
event-log entry that records it (see `EventLog`), so the run total is
the sum of the exported log's costs.

A step that makes no progress parks its context, and the round skips a
parked context until one of three wakers in this module clears the flag:
  - forwarding an event (a blocked access or call, or a kernel-mode
    thread's exit) wakes the partner that serves it;
  - a partner step that made progress wakes the contexts the partner
    serves: its twin and the twin's nested threads;
  - the exit of a partner or of a local thread wakes the regular-OS
    bodies, which may be joining it.
A partner that has served its last queued event, with no exit bit set,
parks at once.  Since a step that makes no progress changes nothing,
the steps that do make progress, and so the log, are exactly those of
stepping every context every round; a round in which no context makes
progress is a deadlock either way.

Rounds keep a run list: the contexts that are not parked, in creation
order.  One stale flag says that a context parked, woke or was added in
this round.  It is set by each park of a step that made no progress, a
partner's park when its queue drains, the two forward wakes of a call or
a fault in `_hrt_thread`, `_add`, and each `StopIteration` in `step`.  The
last also covers the wakes of an exit, which are made in the step that
ends its generator: the exit signal's forward and `_wake_joiners`.  A
round that starts with the flag set clears it, drops the list, and steps
a copy of every context.  The first round that starts clean builds the
list, and each later clean round steps it without a copy.

A clean round is exact: at its start every context that is not parked
is in the list, as the round before parked, woke and added nothing.
Within it, a forward wakes a partner, which was created before every
thread it serves, so it runs next round either way.  A partner's
progress finds none of the contexts it serves parked: the partner also
made progress in the round before, which woke them, and nothing has
parked since, so this wake sets no flag.  Only an exit wakes a context
created after the waker, which must run in this round: `_wake_joiners`
inserts it into the list by creation index.

A run ends when main exits (teardown marks every context done), when a
thread finds its workload failed and raises `_Halt`, which `execute`
catches once around the round loop, or in a `DeadlockError`.  A context
is parked once done, and no waker unparks it (a partner's progress sets
`parked` to `done`, `_wake_joiners` leaves a done body parked, and an
exited partner refuses a forward), so the round never steps a done
context: `step` has no `done` test.

A kernel-mode access runs inline in its thread's step: it looks its page
up in the memo of its access kind, and only a miss goes on to the fault
path at the end of the step, which walks and resolves each fault.  A
kernel-mode thread owns one event record and refills its kind, detail and
payload for each system call, fall-through call or fault it forwards (a
fault's payload is its `(addr, access)`); `forward_event` resets the rest.
It then waits in its own frame until the partner has served it: it never
has two events outstanding.
"""

from __future__ import annotations

import enum
import math
from bisect import insort
from collections.abc import Generator
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .channel import (
    COMPUTE,
    FALLTHROUGH,
    OVERRIDE,
    PAGE_FAULT,
    SYNC_INVOKE,
    SYSCALL,
    THREAD_CREATE,
    THREAD_EXIT_SIGNAL,
    EventChannel,
    EventLog,
    EventRecord,
    fault_detail,
)
from .costs import CostModel
from .errors import DeadlockError, DoubleFaultError, ParseError, UsageError, text_lines
from .hrt import HrtKernel
from .machine import Machine
from .mem import HIGHER_BASE, WRITE, translate
from .ros import EFAULT, RosKernel, init_runtime
from .toolchain import AeroKernelImage
from .workload import DEFAULT_BEHAVIOR, FunctionBehavior, ThreadBody, WorkloadProgram, parse_workload

__all__ = [
    "Mode",
    "System",
    "TraceReport",
    "BenchmarkProfile",
    "run",
    "compare",
    "replay_benchmark",
    "load_profiles",
    "parse_workload",
]


class Mode(enum.Enum):
    VIRTUAL = "virtual"
    MULTIVERSE = "multiverse"


# Bound once for per-step code: on Python 3.11 the enum metaclass defines
# __getattr__, so `Mode.MULTIVERSE` inside a function is an unspecialised
# class-attribute load.
MULTIVERSE = Mode.MULTIVERSE

REPORT_KINDS = (SYSCALL, PAGE_FAULT, THREAD_CREATE, THREAD_EXIT_SIGNAL, SYNC_INVOKE)


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    """Each row as a line: cells left-justified to their column's widest, two
    spaces apart; the last cell is not padded, so no line ends in a space."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    widths[-1] = 0
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]


@dataclass
class TraceReport:
    mode: str
    counts: dict[str, int]
    forwarded_counts: dict[str, int]
    total_cycles: int
    clock_hz: float
    failed: bool = False
    fail_reason: str = ""
    log_text: str = ""
    syscalls: dict[str, tuple[int, int]] = field(default_factory=dict)  # name -> (calls, cycles)

    @property
    def forwarded_total(self) -> int:
        return sum(self.forwarded_counts.values())

    @property
    def wall_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    def metrics_lines(self) -> list[str]:
        lines = [f"metric=mode value={self.mode}"]
        for kind in REPORT_KINDS:
            lines.append(f"metric=count_{kind} value={self.counts.get(kind, 0)}")
            lines.append(
                f"metric=forwarded_{kind} value={self.forwarded_counts.get(kind, 0)}"
            )
        lines.append(f"metric=forwarded_total value={self.forwarded_total}")
        lines.append(f"metric=total_cycles value={self.total_cycles}")
        lines.append(f"metric=wall_seconds value={self.wall_seconds:.9f}")
        lines.append(f"metric=failed value={int(self.failed)}")
        return lines

    def render(self) -> str:
        rows = [("event kind", "count", "forwarded")]
        for kind in REPORT_KINDS:
            rows.append(
                (kind, str(self.counts.get(kind, 0)), str(self.forwarded_counts.get(kind, 0)))
            )
        out = [f"mode: {self.mode}", *_columns(rows)]
        out.append(f"forwarded events total: {self.forwarded_total}")
        out.append(f"total cycles:           {self.total_cycles}")
        out.append(f"wall seconds:           {self.wall_seconds:.9f}")
        if self.failed:
            out.append(f"workload FAILED: {self.fail_reason}")
        return "\n".join(out)


class System:
    """One machine + both kernels + the channel between them."""

    def __init__(self, machine: Machine | None = None, cost: CostModel | None = None):
        self.machine = machine or Machine()
        self.cost = cost or CostModel()
        self.log = EventLog()
        self.channel = EventChannel(self.cost, self.log)
        self.hrt = HrtKernel(self.machine, self.cost, self.log)
        self.ros = RosKernel(self.machine, self.cost, self.log, self.channel, self.hrt)


def kernel_image(workload: WorkloadProgram) -> AeroKernelImage:
    """The kernel image a workload needs, one symbol per name in
    `workload.symbols()`.  Set-up installs it as it is; the toolchain's
    container (`toolchain.embed`) carries the same image."""
    names = sorted(workload.symbols())
    symbols = {
        name: HIGHER_BASE + 0x0020_0000 + i * 0x40
        for i, name in enumerate(names)
    }
    return AeroKernelImage(
        entry=names[0] if names else "main",
        symbol_table=symbols,
        payload_size=64 * 1024 + 0x40 * len(symbols),
    )


@dataclass
class _Ctx:
    """Scheduler bookkeeping for one simulated thread; each `next()` of its
    generator is one scheduler step and yields whether the step made progress."""

    kind: str  # "ros_body" | "partner" | "hrt_body"
    tid: int
    index: int  # creation order: the context's position in `Simulator.contexts`
    done: bool = False
    parked: bool = False  # skipped by the round loop until a waker clears it
    thread: Generator[bool, None, None] | None = None
    served: list[_Ctx] = field(default_factory=list)  # partner: twin and nested


_NO_LAST = "'last' used before any mmap in this thread"  # a `last+N` with no base


def _call_payload(last: int | None, call: tuple) -> tuple[tuple, str]:
    """A `munmap last+N`'s payload, with its base, and `syscall_detail`'s bytes."""
    name, (offset, length), _ = call
    if last is None:
        raise UsageError(_NO_LAST)
    base = last + offset
    return (name, (base, length), 0), f"sys:{name}({base},{length})"


class _Halt(Exception):
    """Raised by a thread whose workload the regular OS has marked failed
    (`RosProcess.failed`, with its reason); `execute` catches it: the run ends."""


class Simulator:
    """Round-robin interpreter for one workload under one mode."""

    def __init__(self, system: System, workload: WorkloadProgram, mode: Mode):
        self.system = system
        self.workload = workload
        self.mode = mode
        self.cost = system.cost
        self.log = system.log
        self.contexts: list[_Ctx] = []
        self.partners: dict[int, _Ctx] = {}  # partner ROS tid -> its context
        self.spawned: dict[str, int] = {}  # body name -> ROS tid a join waits on
        self.main_ctx: _Ctx | None = None
        self.stale = True  # a context parked, woke or was added this round
        self.running: list[_Ctx] | None = None  # the run list of clean rounds

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        ros = self.system.ros
        if self.mode is Mode.MULTIVERSE:
            init_runtime(self.system, kernel_image(self.workload))
        self.main_ctx = self._add("ros_body", ros.main.tid, self.workload.bodies["main"])

    def _add(self, kind: str, tid: int, body: ThreadBody | None = None) -> _Ctx:
        """A context that first runs in the round after this one.  A partner
        starts parked: nothing is queued for it yet."""
        ctx = _Ctx(kind, tid, len(self.contexts), parked=kind == "partner")
        if kind == "partner":
            ctx.thread = self._partner(ctx)
            self.partners[tid] = ctx
        elif kind == "hrt_body":
            ctx.thread = self._hrt_thread(ctx, body)
            self.partners[self.system.hrt.threads[tid].partner].served.append(ctx)
        else:
            ctx.thread = self._ros_thread(ctx, body)
        self.contexts.append(ctx)
        self.stale = True
        return ctx

    # -- main loop -----------------------------------------------------------

    def run(self) -> TraceReport:
        self.setup()
        return self.execute()

    def execute(self) -> TraceReport:
        """Drive the round loop to the end of the run; setup() must have run."""
        step, main = self.step, self.main_ctx
        try:
            while not main.done:
                if not step():
                    dump = [
                        f"{e.kind} origin={e.origin} detail={e.detail}"
                        for e in self.system.channel.outstanding
                    ]
                    raise DeadlockError(
                        "no runnable context; outstanding events: " + (", ".join(dump) or "none"),
                        events=list(self.system.channel.outstanding),
                    )
        except _Halt:
            pass
        finally:
            # A suspended generator's frame holds this simulator: close and
            # drop them all, so that reference counting frees the run, and
            # the frames are gone before the log is rendered.
            for ctx in self.contexts:
                ctx.thread.close()
                ctx.thread = None
        return self.report()

    def report(self) -> TraceReport:
        proc = self.system.ros.proc
        return TraceReport(
            mode=self.mode.value,
            counts=self.log.counts(REPORT_KINDS),  # its Counter is freed before the render
            forwarded_counts=dict(self.log.forwarded),  # every forwarded kind is a report kind
            total_cycles=self.log.now,
            clock_hz=self.cost.clock_hz,
            failed=proc.failed,
            fail_reason=proc.fail_reason,
            log_text=self.log.render(),
            syscalls=dict(self.log.syscalls),
        )

    # -- stepping ------------------------------------------------------------

    def step(self) -> bool:
        """One round: each runnable context steps once, in creation order, by
        one `next()` of its generator; True if any made progress.  A step
        without progress parks its context; a context is done, and stays
        parked, in the step whose generator returns.  A context added in the
        round first runs in the next one."""
        if self.stale:  # scan every context, as the run list may be wrong
            self.stale, self.running = False, None
            contexts = list(self.contexts)
        elif self.running is None:  # the first clean round lists the runnable
            contexts = self.running = [c for c in self.contexts if not c.parked]
        else:
            contexts = self.running
        progressed = False
        for ctx in contexts:
            if ctx.parked:  # in a clean round: parked in it, or at teardown
                continue
            try:
                if next(ctx.thread):
                    progressed = True
                else:
                    ctx.parked = self.stale = True
            except StopIteration:
                ctx.done = ctx.parked = self.stale = True
                progressed = True
        return progressed

    def _partner(self, ctx: _Ctx) -> Generator[bool, None, None]:
        """A partner serves its twin's forwarded events until the exit bit
        lets it go.  Each event it serves may unblock any context it serves;
        with its queue drained and no exit bit it parks at once."""
        ros = self.system.ros
        partner = ros.threads[ctx.tid]
        queue = partner.queue
        while True:
            progressed = ros.partner_step(partner)
            if partner.exited:
                self._wake_joiners(ctx)
                return
            if progressed:
                for served in ctx.served:
                    served.parked = served.done
                if not queue and not partner.exit_bit:
                    ctx.parked = self.stale = True
            yield progressed

    def _wake_joiners(self, waker: _Ctx) -> None:
        """`waker`, a partner or local thread, exits in its step: any regular-OS
        body may be joining it.  A body created after the waker runs in this
        round, as in a scan of every context, so a clean round's run list,
        which holds only the bodies that were runnable, takes it in."""
        running = self.running  # None in a round that scans every context
        for ctx in self.contexts:
            if ctx.kind == "ros_body" and ctx.parked and not ctx.done:
                ctx.parked = False
                if running is not None and ctx.index > waker.index:
                    insort(running, ctx, key=attrgetter("index"))

    def _ros_thread(self, ctx: _Ctx, body: ThreadBody) -> Generator[bool, None, None]:
        """Run a body on the regular OS, one lowered action per step: main, and
        in virtual every spawned thread.  A joiner blocks here on its target."""
        ros, log, tid, syscall_base = self.system.ros, self.log, ctx.tid, self.cost.syscall_base
        last = None  # base of this thread's most recent successful mmap
        for op, a, b, c in body.steps:  # exact tuples, operands by op: see `Action`
            if op == "touch":
                if c is None:  # last+N
                    if last is None:
                        raise UsageError(_NO_LAST)
                    a += last
                if not ros.touch(a, b, tid):
                    raise _Halt
            elif op == "compute":
                log.emit(COMPUTE, tid, "compute", a)
            elif op == "call_override":  # a plain library/OS call
                log.emit(SYSCALL, tid, a.call, syscall_base + a.legacy_cycles, a.call)
            elif op in ("mmap", "munmap", "syscall"):  # served in place
                if b is None:
                    a, b = _call_payload(last, a)
                name, args, _ = a
                result = ros.syscall(name, args)
                log.emit(SYSCALL, tid, b, syscall_base, name)  # `call` by position, as in channel
                if name == "mmap" and result >= 0:
                    last = result
            elif op == "spawn":
                self._spawn(a)
            elif op == "spawn_nested":  # outside the hybrid mode, an ordinary local thread
                if self.mode is MULTIVERSE:
                    raise UsageError("spawn_nested is only valid in kernel-mode threads")
                self._spawn(a)
            elif op == "join":
                if a not in self.spawned:
                    raise UsageError(f"join target {a!r} was never spawned")
                joiner = ros.threads[tid]
                ros.join(joiner, self.spawned[a])
                if joiner.join_target is not None:
                    yield True
                    while not ros.try_finish_join(joiner):
                        yield False
            elif op == "sync_call":
                self._sync_call(tid, a)
            elif op == "exit":
                ros.threads[tid].exited = True
                self._wake_joiners(ctx)
                if ctx is self.main_ctx:  # process teardown ends every thread
                    for other in self.contexts:
                        other.done = other.parked = True
                return
            yield True

    def _hrt_thread(self, ctx: _Ctx, body: ThreadBody) -> Generator[bool, None, None]:
        """Run a body kernel-mode, one lowered action per step.  The thread
        blocks here on each event it forwards in `ev`, the one record it owns."""
        hrt, log, tid = self.system.hrt, self.log, ctx.tid
        space, hrt_thread = hrt.space, hrt.threads[tid]  # all fixed from boot on
        memo, wmemo, core_id = space.memo, space.wmemo, hrt_thread.core_id
        channel, partner_tid = self.system.channel, hrt_thread.partner
        partner = self.partners[partner_tid]  # its context
        ev = EventRecord(SYSCALL, tid, "")  # never two outstanding: each is awaited
        write = WRITE  # a local: the memo-hit touch below is the hottest test
        last = None  # base of this thread's most recent successful mmap
        for op, a, b, c in body.steps:  # exact tuples, operands by op: see `Action`
            if op == "touch":
                if c is None:  # last+N
                    if last is None:
                        raise UsageError(_NO_LAST)
                    a += last
                    c = a >> 12
                if c in (wmemo if b is write else memo):
                    yield True
                    continue
                touches, access = (a,), b  # walked on the fault path below
            else:
                call = None  # payload (name, args, cycles) of the system call this action forwards
                touches = ()  # the writes of an enabled override's target
                if op == "compute":
                    log.emit(COMPUTE, tid, "compute", a)
                elif op == "call_override":
                    if a.target is None:  # forwarded with the legacy function's cycles, if any
                        log.emit(FALLTHROUGH, tid, a.call)
                        call, detail = a.payload, a.detail
                    elif a.creates:  # interposed thread creation behaves exactly like a spawn
                        if a.spawn is None:
                            raise UsageError("thread-create override needs a thread body name")
                        self._spawn(a.spawn)
                    else:  # an enabled override runs in place; its writes follow, one step each
                        hrt.resolve_symbol(a.target, tid)
                        log.emit(OVERRIDE, tid, a.detail, a.behavior.cycles)
                        touches, access = a.behavior.touches, write
                elif op in ("mmap", "munmap", "syscall"):
                    call, detail = (a, b) if b is not None else _call_payload(last, a)
                elif op == "spawn_nested":
                    nested = hrt.create_nested_thread(tid, a).tid
                    self._add("hrt_body", nested, self.workload.bodies[a])
                elif op == "exit":
                    signal = hrt.thread_exit(tid)
                    if signal is not None:  # a record of its own: this thread ends here
                        channel.forward_event(signal, partner_tid)
                        partner.parked = False
                    return
                elif op == "spawn":  # the side rules: runtime misuse until the parser checks them
                    raise UsageError(
                        "spawn from a kernel-mode thread; use spawn_nested or an override"
                    )
                elif op == "join":
                    raise UsageError("join is issued from the main thread")
                else:  # sync_call
                    raise UsageError("sync_call is issued from the ROS side")
                if call is not None:  # forwarded: served by the partner, awaited here
                    ev.kind, ev.detail, ev.payload = SYSCALL, detail, call
                    channel.forward_event(ev, partner_tid)
                    partner.parked = False
                    self.stale = True
                    yield True
                    while ev.complete_cycle is None:
                        yield False
                    if call[0] == "mmap" and ev.result >= 0:
                        last = ev.result
                yield True
                if not touches:
                    continue
            # The fault path, one step per access: the runtime handles each
            # fault locally, re-merges, or has it forwarded and served, and the
            # access is walked again after each.  Four local resolutions in a
            # row, or a third forward, is a double fault.
            for addr in touches:
                local = forwards = 0
                while translate(space, addr, access) is None:
                    if not hrt.handle_page_fault(core_id, addr, access):
                        local += 1
                        if local == 4:
                            raise DoubleFaultError(
                                f"access 0x{addr:x} {access} cannot be satisfied"
                            )
                    elif forwards == 2:
                        raise DoubleFaultError(
                            f"access 0x{addr:x} {access} still faults after re-merge "
                            "and re-forward"
                        )
                    else:
                        local, forwards = 0, forwards + 1
                        ev.kind, ev.detail = PAGE_FAULT, fault_detail(addr, access)
                        ev.payload = addr, access
                        channel.forward_event(ev, partner_tid)
                        partner.parked = False
                        self.stale = True
                        yield True
                        while ev.complete_cycle is None:
                            yield False
                        if ev.result == EFAULT:
                            raise _Halt
                yield True

    def _sync_call(self, tid: int, name: str) -> None:
        behavior = self.workload.funcs.get(name, DEFAULT_BEHAVIOR)
        if self.mode is not MULTIVERSE:
            self._callee(tid, name, behavior)
            return
        channel, ros, hrt = self.system.channel, self.system.ros, self.system.hrt
        if channel.sync_page is None:
            ros.setup_sync(tid)
        addr = hrt.symbol(name)
        caller_core = ros.threads[tid].core_id
        target_core = hrt.booted_cores()[0]
        socket_of = self.system.machine.socket_of
        same_socket = socket_of(caller_core) == socket_of(target_core)
        channel.sync_invoke(addr, same_socket, lambda: self._callee(0, name, behavior))

    def _callee(self, origin: int, name: str, behavior: FunctionBehavior) -> None:
        """Run a synchronously called function's body."""
        if behavior.cycles:
            self.log.emit(COMPUTE, origin, f"func:{name}", behavior.cycles)

    # -- thread creation -------------------------------------------------------

    def _spawn(self, tname: str) -> None:
        """In multiverse a partner and its kernel-mode twin, else a local thread."""
        ros, body = self.system.ros, self.workload.bodies[tname]
        if self.mode is not MULTIVERSE:
            self.spawned[tname] = tid = ros.spawn_local(tname).tid
            self._add("ros_body", tid, body)
            return
        partner = ros.spawn_hrt(tname)
        self.spawned[tname] = partner.tid
        self._add("partner", partner.tid)
        self._add("hrt_body", partner.hrt_thread, body)


def run(
    machine: Machine | None,
    workload: WorkloadProgram | str,
    mode: Mode,
    cost: CostModel | None = None,
) -> TraceReport:
    """Run one workload under one mode on a fresh system."""
    if isinstance(workload, str):
        workload = parse_workload(workload)
    return Simulator(System(machine=machine, cost=cost), workload, mode).run()


# -- comparison ---------------------------------------------------------------


@dataclass
class SyscallRow:
    name: str
    calls_virtual: int
    per_call_virtual: float
    calls_multiverse: int
    per_call_multiverse: float

    @property
    def per_call_delta(self) -> float:
        return self.per_call_multiverse - self.per_call_virtual


@dataclass
class Comparison:
    virtual: TraceReport
    multiverse: TraceReport
    rows: list[SyscallRow]

    @property
    def total_delta(self) -> int:
        return self.multiverse.total_cycles - self.virtual.total_cycles

    def render(self) -> str:
        table = [
            ("syscall", "virt calls", "virt cyc/call", "mv calls", "mv cyc/call", "delta/call")
        ]
        for row in self.rows:
            table.append(
                (
                    row.name,
                    str(row.calls_virtual),
                    f"{row.per_call_virtual:.1f}",
                    str(row.calls_multiverse),
                    f"{row.per_call_multiverse:.1f}",
                    f"{row.per_call_delta:.1f}",
                )
            )
        out = _columns(table)
        out.append("")
        out.append(f"virtual total cycles:    {self.virtual.total_cycles}")
        out.append(f"multiverse total cycles: {self.multiverse.total_cycles}")
        out.append(f"total delta:             {self.total_delta}")
        failed = [r for r in (self.virtual, self.multiverse) if r.failed]
        out += [f"{r.mode} FAILED: {r.fail_reason}" for r in failed]
        return "\n".join(out)


def compare(
    machine: Machine | None,
    workload: WorkloadProgram | str,
    cost: CostModel | None = None,
) -> Comparison:
    """Run Virtual and Multiverse and tabulate per-syscall cost deltas.
    Each run gets its own copy of `machine`, whose frame allocators and
    table store are run state."""
    if isinstance(workload, str):
        workload = parse_workload(workload)
    virtual = run(machine and replace(machine), workload, Mode.VIRTUAL, cost)
    multiverse = run(machine and replace(machine), workload, Mode.MULTIVERSE, cost)
    v_stats, m_stats = virtual.syscalls, multiverse.syscalls
    rows = []
    for name in sorted(set(v_stats) | set(m_stats)):
        vc, vt = v_stats.get(name, (0, 0))
        mc, mt = m_stats.get(name, (0, 0))
        rows.append(
            SyscallRow(
                name=name,
                calls_virtual=vc,
                per_call_virtual=vt / vc if vc else 0.0,
                calls_multiverse=mc,
                per_call_multiverse=mt / mc if mc else 0.0,
            )
        )
    return Comparison(virtual=virtual, multiverse=multiverse, rows=rows)


# -- benchmark replay ---------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkProfile:
    """Measured per-benchmark counters driving the overhead arithmetic."""

    name: str
    base_user_seconds: float
    forwarded_events: int


# The columns after the name, each with its type; each value must be
# finite and >= 0.
_PROFILE_COLUMNS = (
    ("syscalls", int), ("user_s", float), ("sys_s", float), ("max_rss_kb", int),
    ("page_faults", int), ("context_switches", int), ("forwarded_events", int),
)


def load_profiles(text: str) -> list[BenchmarkProfile]:
    """Whitespace table: name syscalls user_s sys_s rss_kb faults ctxsw forwarded.
    Every column is checked; replay reads only user_s and forwarded."""
    profiles = []
    for lineno, line in text_lines(text):
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"expected 8 columns, got {len(parts)}", lineno)
        values = {}
        for (column, kind), token in zip(_PROFILE_COLUMNS, parts[1:]):
            try:
                values[column] = kind(token)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if not 0 <= values[column] < math.inf:  # also false for nan
                raise ParseError(f"{column} must be finite and >= 0, got {token!r}", lineno)
        profiles.append(BenchmarkProfile(parts[0], values["user_s"], values["forwarded_events"]))
    return profiles


@dataclass(frozen=True)
class OverheadReport:
    name: str
    forwarded_events: int
    overhead_cycles: int
    overhead_seconds: float
    relative_overhead: float

    def render(self) -> str:
        return (
            f"{self.name}: {self.forwarded_events} forwarded events "
            f"-> {self.overhead_cycles} cycles "
            f"({self.overhead_seconds * 1e3:.1f} ms, "
            f"{self.relative_overhead * 100:.2f}% of base user time)"
        )


def replay_benchmark(profile: BenchmarkProfile, cost: CostModel) -> OverheadReport:
    """Forwarding overhead implied by a profile's event count."""
    cycles = profile.forwarded_events * cost.forward_overhead
    seconds = cost.seconds(cycles)
    relative = seconds / profile.base_user_seconds if profile.base_user_seconds else 0.0
    return OverheadReport(
        name=profile.name,
        forwarded_events=profile.forwarded_events,
        overhead_cycles=cycles,
        overhead_seconds=seconds,
        relative_overhead=relative,
    )
