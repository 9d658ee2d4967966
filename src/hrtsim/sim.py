"""Deterministic run driver: modes, stepping, benchmark replay, comparison.

One simulated thread body advances by exactly one action per scheduler
step; contexts are stepped strict round-robin in creation order (regular
OS threads before kernel-mode threads).  All costs are charged through a
single clock, and every charge has a matching event-log entry, so the
run total is recomputable from the exported log.
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
    syscall_detail,
)
from .costs import CostModel
from .errors import DeadlockError, DoubleFaultError, ParseError, UsageError
from .hrt import (
    FaultResolution,
    FunctionBehavior,
    HrtKernel,
    ThreadStatus,
)
from .machine import Machine
from .mem import HIGHER_BASE, PAGE_SIZE, AccessKind, FaultInfo, merge_lower_half, translate
from .ros import (
    EFAULT,
    RosKernel,
    RosThreadRole,
    RosThreadStatus,
    init_runtime,
)
from .toolchain import AeroKernelImage, AppDescriptor, OverrideEntry, SymbolCache, embed
from .workload import Action, ThreadBody, WorkloadProgram, parse_workload

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
    NATIVE = "native"
    VIRTUAL = "virtual"
    MULTIVERSE = "multiverse"


REPORT_KINDS = (
    EventKind.SYSCALL.value,
    EventKind.PAGE_FAULT.value,
    EventKind.THREAD_CREATE.value,
    EventKind.THREAD_EXIT_SIGNAL.value,
    EventKind.SYNC_INVOKE.value,
)


@dataclass
class TraceReport:
    mode: str
    counts: dict[str, int]
    forwarded_counts: dict[str, int]
    forwarded_total: int
    total_cycles: int
    clock_hz: float
    failed: bool = False
    fail_reason: str = ""
    log_text: str = ""

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
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        out = [f"mode: {self.mode}"]
        for r in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        out.append(f"forwarded events total: {self.forwarded_total}")
        out.append(f"total cycles:           {self.total_cycles}")
        out.append(f"wall seconds:           {self.wall_seconds:.9f}")
        if self.failed:
            out.append(f"workload FAILED: {self.fail_reason}")
        return "\n".join(out)


class System:
    """One machine + both kernels + the channel wiring between them."""

    def __init__(
        self,
        machine: Machine | None = None,
        cost: CostModel | None = None,
        use_symbol_cache: bool = True,
    ):
        self.machine = machine or Machine()
        self.cost = cost or CostModel()
        self.clock = Clock()
        self.log = EventLog()
        self.channel = EventChannel(self.cost, self.clock, self.log)
        self.hrt = HrtKernel(self.machine, self.cost, self.clock, self.log, self.channel)
        if use_symbol_cache:
            self.hrt.symbol_cache = SymbolCache()
        self.ros = RosKernel(
            self.machine, self.cost, self.clock, self.log, self.channel, self.hrt
        )
        self.channel.on_reboot = self.hrt.reboot
        self.channel.on_merge = self._handle_merge
        self.channel.on_async_call = self.ros.async_call_handler
        self.channel.on_sync_invoke = self._handle_sync_invoke

    def close(self) -> None:
        """Unwire the channel hooks.  They are bound methods of objects that
        hold the channel, so only then does reference counting free the system."""
        self.channel.on_reboot = self.channel.on_merge = None
        self.channel.on_async_call = self.channel.on_sync_invoke = None

    def _handle_merge(self, cr3: int) -> None:
        if cr3 != self.ros.proc.space.cr3:
            raise UsageError(f"merge payload cr3={cr3} is not the process root")
        assert self.hrt.space is not None
        self.hrt.ros_space = self.ros.proc.space
        merge_lower_half(self.hrt.space, self.ros.proc.space)

    def _handle_sync_invoke(self, func_ptr: int, args: tuple[int, ...]) -> int:
        name, behavior = self.hrt.function_table.by_addr(func_ptr)
        if behavior.cycles:
            self.clock.charge(behavior.cycles)
            self.log.emit(self.clock.now, "Compute", 0, f"func:{name}", behavior.cycles)
        return behavior.returns


def build_fat_binary(workload: WorkloadProgram, app_name: str = "app") -> bytes:
    """Package the kernel image a workload needs: every thread body, every
    declared function, and every override target becomes a symbol."""
    names = set(workload.bodies) | set(workload.funcs)
    for entry in workload.overrides.values():
        names.add(entry.aero_name)
    symbols = {
        name: HIGHER_BASE + 0x0020_0000 + i * 0x40
        for i, name in enumerate(sorted(names))
    }
    entry_name = sorted(names)[0] if names else "main"
    image = AeroKernelImage(
        entry=entry_name,
        symbol_table=symbols,
        payload_size=64 * 1024 + 0x40 * len(symbols),
    )
    return embed(AppDescriptor(name=app_name, workload=""), image)


@dataclass
class _Ctx:
    """Scheduler bookkeeping for one simulated thread."""

    name: str
    kind: str  # "ros_body" | "partner" | "hrt_body"
    tid: int
    body: ThreadBody | None = None
    pc: int = 0
    queue: list[Action] = field(default_factory=list)  # expanded sub-actions
    last_mmap: int | None = None
    done: bool = False
    waiting_event: EventRecord | None = None
    resume_retry: bool = False
    fault_forwards: int = 0


class Simulator:
    """Round-robin interpreter for one workload under one mode."""

    def __init__(self, system: System, workload: WorkloadProgram, mode: Mode):
        self.system = system
        self.workload = workload
        self.mode = mode
        self.cost = system.cost
        self.clock = system.clock
        self.log = system.log
        self.contexts: list[_Ctx] = []
        self.spawned: dict[str, int] = {}  # body name -> ROS tid a join waits on
        self.main_ctx: _Ctx | None = None
        self.halted = False
        self.fail_reason = ""

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        ros = self.system.ros
        if self.mode is Mode.MULTIVERSE:
            init_runtime(self.system, build_fat_binary(self.workload))
            for name, behavior in self.workload.funcs.items():
                self.system.hrt.function_table.set_behavior(name, behavior)
        ros.legacy_funcs = dict(self.workload.funcs)
        self.main_ctx = _Ctx(
            name="main", kind="ros_body", tid=ros.main.tid, body=self.workload.bodies["main"]
        )
        self.contexts.append(self.main_ctx)

    # -- main loop -----------------------------------------------------------

    def run(self) -> TraceReport:
        self.setup()
        return self.execute()

    def execute(self) -> TraceReport:
        """Drive the step loop to completion; setup() must have run."""
        while not self.halted:
            progressed = False
            for ctx in list(self.contexts):
                if self.halted:
                    break
                if self.step(ctx):
                    progressed = True
            if self.halted:
                break
            if all(c.done for c in self.contexts):
                break
            if not progressed:
                dump = [
                    f"{e.kind.value} origin={e.origin} detail={e.detail}"
                    for e in self.system.channel.outstanding
                ]
                raise DeadlockError(
                    "no runnable context; outstanding events: " + (", ".join(dump) or "none"),
                    events=list(self.system.channel.outstanding),
                )
        if self.mode is Mode.MULTIVERSE and self.system.ros.exit_hook_registered:
            self.system.hrt.shutdown()
        return self.report()

    def report(self) -> TraceReport:
        counts: dict[str, int] = {}
        fwd: dict[str, int] = {}
        for entry in self.log.entries:
            if entry.kind in REPORT_KINDS:
                counts[entry.kind] = counts.get(entry.kind, 0) + 1
                if entry.forwarded:
                    fwd[entry.kind] = fwd.get(entry.kind, 0) + 1
        failed = self.system.ros.proc.failed or self.halted
        return TraceReport(
            mode=self.mode.value,
            counts=counts,
            forwarded_counts=fwd,
            forwarded_total=sum(fwd.values()),
            total_cycles=self.clock.now,
            clock_hz=self.cost.clock_hz,
            failed=failed,
            fail_reason=self.system.ros.proc.fail_reason or self.fail_reason,
            log_text=self.log.render(),
        )

    # -- stepping ------------------------------------------------------------

    def _current_action(self, ctx: _Ctx) -> Action | None:
        if ctx.queue:
            return ctx.queue[0]
        assert ctx.body is not None
        if ctx.pc >= len(ctx.body.actions):
            return None
        return ctx.body.actions[ctx.pc]

    def _finish_action(self, ctx: _Ctx) -> None:
        ctx.fault_forwards = 0
        if ctx.queue:
            ctx.queue.pop(0)
        else:
            ctx.pc += 1

    def step(self, ctx: _Ctx) -> bool:
        if ctx.done:
            return False
        if ctx.kind == "partner":
            partner = self.system.ros.threads[ctx.tid]
            progressed = self.system.ros.partner_step(partner)
            if partner.status is RosThreadStatus.EXITED:
                ctx.done = True
            return progressed
        if ctx.kind == "hrt_body":
            return self._step_hrt(ctx)
        return self._step_ros(ctx)

    # -- regular-OS threads ---------------------------------------------------

    def _step_ros(self, ctx: _Ctx) -> bool:
        ros = self.system.ros
        thread = ros.threads[ctx.tid]
        if thread.status is RosThreadStatus.BLOCKED_JOIN:
            if ros.try_finish_join(thread):
                self._finish_action(ctx)
                return True
            return False
        action = self._current_action(ctx)
        if action is None:
            ctx.done = True
            return False
        self._exec_ros_action(ctx, action)
        return True

    def _exec_ros_action(self, ctx: _Ctx, action: Action) -> None:
        ros = self.system.ros
        op = action.op
        if op == "compute":
            (cycles,) = action.args
            self.clock.charge(cycles)
            self.log.emit(self.clock.now, "Compute", ctx.tid, "compute", cycles)
            self._finish_action(ctx)
        elif op == "mmap":
            length, populate, writable = action.args
            base = ros.sys_mmap(length, populate, writable)
            self._charge_local_syscall(ctx, "mmap", (length, int(populate), int(writable)))
            if base >= 0:
                ctx.last_mmap = base
            self._finish_action(ctx)
        elif op == "munmap":
            expr, length = action.args
            base = expr.resolve(ctx.last_mmap)
            ros.sys_munmap(base, length)
            self._charge_local_syscall(ctx, "munmap", (base, length))
            self._finish_action(ctx)
        elif op == "syscall":
            name, args = action.args
            ros.syscall(name, args)
            self._charge_local_syscall(ctx, name, args)
            self._finish_action(ctx)
        elif op == "touch":
            expr, access = action.args
            addr = expr.resolve(ctx.last_mmap)
            ok = ros.touch(addr, access, ctx.tid)
            if not ok:
                self._halt(f"segfault at 0x{addr:x} in {ctx.name}")
                return
            self._finish_action(ctx)
        elif op == "spawn":
            (tname,) = action.args
            self._spawn(ctx, tname)
            self._finish_action(ctx)
        elif op == "spawn_nested":
            # Outside the hybrid mode this is an ordinary local thread.
            if self.mode is Mode.MULTIVERSE:
                raise UsageError("spawn_nested is only valid in kernel-mode threads")
            (tname,) = action.args
            self._spawn_native(ctx, tname)
            self._finish_action(ctx)
        elif op == "join":
            (tname,) = action.args
            self._join(ctx, tname)
        elif op == "call_override":
            name, args = action.args
            self._legacy_call(ctx, name, args)
            self._finish_action(ctx)
        elif op == "sync_call":
            (name,) = action.args
            self._sync_call(ctx, name)
            self._finish_action(ctx)
        elif op == "exit":
            self._finish_action(ctx)
            ctx.done = True
            ros.threads[ctx.tid].status = RosThreadStatus.EXITED
            if ctx is self.main_ctx:
                self._process_exit()
        else:  # pragma: no cover - parser rejects unknown ops
            raise UsageError(f"unknown action {op}")

    def _charge_local_syscall(self, ctx: _Ctx, name: str, args: tuple[int, ...]) -> None:
        self.clock.charge(self.cost.syscall_base)
        self.log.emit(
            self.clock.now,
            EventKind.SYSCALL.value,
            ctx.tid,
            syscall_detail(name, args),
            self.cost.syscall_base,
        )

    def _process_exit(self) -> None:
        # Process teardown ends the run; remaining contexts are torn down.
        for ctx in self.contexts:
            ctx.done = True

    def _spawn(self, ctx: _Ctx, tname: str) -> None:
        body = self.workload.bodies[tname]
        if self.mode is Mode.MULTIVERSE:
            partner = self.system.ros.spawn_hrt(tname)
            self.spawned[tname] = partner.tid
            self.contexts.append(_Ctx(name=f"partner:{tname}", kind="partner", tid=partner.tid))
            assert partner.hrt_thread is not None
            self.contexts.append(
                _Ctx(name=tname, kind="hrt_body", tid=partner.hrt_thread, body=body)
            )
        else:
            self._spawn_native(ctx, tname)

    def _spawn_native(self, ctx: _Ctx, tname: str) -> None:
        body = self.workload.bodies[tname]
        thread = self.system.ros._new_thread(RosThreadRole.LOCAL)
        self.spawned[tname] = thread.tid
        self.contexts.append(_Ctx(name=tname, kind="ros_body", tid=thread.tid, body=body))
        self.log.emit(
            self.clock.now, EventKind.THREAD_CREATE.value, thread.tid, f"create:{tname}", 0
        )

    def _join(self, ctx: _Ctx, tname: str) -> None:
        if tname not in self.spawned:
            raise UsageError(f"join target {tname!r} was never spawned")
        joiner = self.system.ros.threads[ctx.tid]
        self.system.ros.join(joiner, self.spawned[tname])
        if joiner.status is RosThreadStatus.RUNNABLE:
            self._finish_action(ctx)
        # else: resumed later by the blocked-join check

    def _legacy_call(self, ctx: _Ctx, name: str, args: tuple) -> None:
        """Non-hybrid path of an overridable call: a plain library/OS call."""
        behavior = self.workload.funcs.get(name)
        if behavior is None:
            entry = self.workload.overrides.get(name)
            if entry is not None:
                behavior = self.workload.funcs.get(entry.aero_name)
        cycles = self.cost.syscall_base + (behavior.cycles if behavior else 0)
        self.clock.charge(cycles)
        self.log.emit(
            self.clock.now,
            EventKind.SYSCALL.value,
            ctx.tid,
            f"call:{name}",
            cycles,
        )

    def _sync_call(self, ctx: _Ctx, name: str) -> None:
        if self.mode is not Mode.MULTIVERSE:
            behavior = self.workload.funcs.get(name, FunctionBehavior())
            if behavior.cycles:
                self.clock.charge(behavior.cycles)
                self.log.emit(self.clock.now, "Compute", ctx.tid, f"func:{name}", behavior.cycles)
            return
        channel = self.system.channel
        ros = self.system.ros
        if channel.sync_endpoint is None:
            sync_page = ros._alloc_region(PAGE_SIZE, populate=True, writable=True, stack=True)
            channel.hypercall(ctx.tid, Hypercall(HypercallKind.SETUP_SYNC, sync_page.base))
        addr, _ = self.system.hrt.function_table.lookup(name)
        caller_core = ros.threads[ctx.tid].core_id
        target_core = self.system.hrt.booted_cores()[0]
        same_socket = self.system.machine.socket_of(caller_core) == self.system.machine.socket_of(
            target_core
        )
        channel.sync_invoke(channel.sync_endpoint, addr, (), same_socket)

    # -- kernel-mode threads ---------------------------------------------------

    def _step_hrt(self, ctx: _Ctx) -> bool:
        hrt = self.system.hrt
        thread = hrt.threads.get(ctx.tid)
        if thread is None or thread.status is ThreadStatus.EXITED:
            ctx.done = True
            return False
        if ctx.waiting_event is not None:
            ev = ctx.waiting_event
            if not ev.completed:
                return False
            ctx.waiting_event = None
            thread.status = ThreadStatus.RUNNABLE
            if ev.result == EFAULT:
                self._halt(f"segfault reported to {ctx.name}")
                return True
            if not ctx.resume_retry:
                self._deliver_result(ctx, ev)
                self._finish_action(ctx)
                return True
            # retry the faulting action below
        action = self._current_action(ctx)
        if action is None:
            ctx.done = True
            return False
        self._exec_hrt_action(ctx, thread.tid, action)
        return True

    def _deliver_result(self, ctx: _Ctx, ev: EventRecord) -> None:
        if ev.kind is EventKind.SYSCALL and ev.payload:
            name = ev.payload[0]
            if name == "mmap" and ev.result is not None and ev.result >= 0:
                ctx.last_mmap = ev.result

    def _forward_syscall(self, ctx: _Ctx, tid: int, name: str, args: tuple[int, ...]) -> None:
        hrt = self.system.hrt
        ev = hrt.make_syscall_event(tid, name, args)
        endpoint = hrt.ancestor_partner(tid)
        self.system.channel.forward_event(ev, endpoint)
        hrt.threads[tid].status = ThreadStatus.BLOCKED_ON_EVENT
        ctx.waiting_event = ev
        ctx.resume_retry = False

    def _exec_hrt_action(self, ctx: _Ctx, tid: int, action: Action) -> None:
        hrt = self.system.hrt
        op = action.op
        if op == "compute":
            (cycles,) = action.args
            self.clock.charge(cycles)
            self.log.emit(self.clock.now, "Compute", tid, "compute", cycles)
            self._finish_action(ctx)
        elif op == "mmap":
            length, populate, writable = action.args
            self._forward_syscall(ctx, tid, "mmap", (length, int(populate), int(writable)))
        elif op == "munmap":
            expr, length = action.args
            self._forward_syscall(ctx, tid, "munmap", (expr.resolve(ctx.last_mmap), length))
        elif op == "syscall":
            name, args = action.args
            self._forward_syscall(ctx, tid, name, args)
        elif op == "touch":
            expr, access = action.args
            self._hrt_touch(ctx, tid, expr.resolve(ctx.last_mmap), access)
        elif op == "spawn_nested":
            (tname,) = action.args
            nested = hrt.create_nested_thread(tid, tname)
            self.contexts.append(
                _Ctx(
                    name=f"{tname}#{nested.tid}",
                    kind="hrt_body",
                    tid=nested.tid,
                    body=self.workload.bodies[tname],
                )
            )
            self.log.emit(
                self.clock.now,
                EventKind.THREAD_CREATE.value,
                nested.tid,
                f"create_nested:{tname}",
                0,
            )
            self._finish_action(ctx)
        elif op == "spawn":
            raise UsageError("spawn from a kernel-mode thread; use spawn_nested or an override")
        elif op == "call_override":
            name, args = action.args
            self._invoke_override(ctx, tid, name, args)
        elif op == "sync_call":
            raise UsageError("sync_call is issued from the ROS side")
        elif op == "join":
            raise UsageError("join is issued from the main thread")
        elif op == "exit":
            ev = hrt.thread_exit(tid)
            if ev is not None:
                self.system.channel.forward_event(ev, hrt.ancestor_partner(tid))
            self._finish_action(ctx)
            ctx.done = True
        else:  # pragma: no cover
            raise UsageError(f"unknown action {op}")

    def _hrt_touch(self, ctx: _Ctx, tid: int, addr: int, access: AccessKind) -> None:
        hrt = self.system.hrt
        assert hrt.space is not None
        for _ in range(4):
            result = translate(hrt.space, hrt.control_state(), addr, access)
            if not isinstance(result, FaultInfo):
                self._finish_action(ctx)
                return
            core_id = hrt.threads[tid].core_id
            resolution = hrt.handle_page_fault(core_id, result)
            if resolution is not FaultResolution.FORWARD:
                continue  # handled locally or re-merged: retry the access
            if ctx.fault_forwards >= 2:
                raise DoubleFaultError(
                    f"access 0x{addr:x} {access.value} still faults after re-merge "
                    "and re-forward"
                )
            ctx.fault_forwards += 1
            ev = hrt.make_fault_event(tid, result)
            endpoint = hrt.ancestor_partner(tid)
            self.system.channel.forward_event(ev, endpoint)
            hrt.threads[tid].status = ThreadStatus.BLOCKED_ON_EVENT
            ctx.waiting_event = ev
            ctx.resume_retry = True
            return
        raise DoubleFaultError(f"access 0x{addr:x} {access.value} cannot be satisfied")

    def _invoke_override(self, ctx: _Ctx, tid: int, name: str, args: tuple) -> None:
        hrt = self.system.hrt
        entry: OverrideEntry | None = self.workload.overrides.get(name)
        if entry is None or not entry.enabled:
            # Fall through to the legacy path: a forwarded call to the ROS.
            self.log.emit(self.clock.now, "Fallthrough", tid, f"call:{name}", 0)
            numeric = tuple(a for a in args if isinstance(a, int))
            self._forward_syscall(ctx, tid, f"call:{name}", numeric)
            return
        if entry.aero_name == "hrt_thread_create":
            # Interposed thread creation behaves exactly like a spawn.
            targets = [a for a in args if isinstance(a, str)]
            if not targets:
                raise UsageError("thread-create override needs a thread body name")
            self._spawn(ctx, targets[0])
            self._finish_action(ctx)
            return
        before = self.clock.now
        hrt.resolve_symbol(entry.aero_name)
        lookup_cost = self.clock.now - before
        self.log.emit(self.clock.now, "SymbolLookup", tid, f"sym:{entry.aero_name}", lookup_cost)
        _, behavior = hrt.function_table.lookup(entry.aero_name)
        if behavior.cycles:
            self.clock.charge(behavior.cycles)
        self.log.emit(
            self.clock.now, "Override", tid, f"override:{name}->{entry.aero_name}", behavior.cycles
        )
        self._finish_action(ctx)
        if behavior.touches:
            from .workload import AddrExpr

            ctx.queue = [
                Action("touch", (AddrExpr(addr), AccessKind.WRITE))
                for addr in behavior.touches
            ] + ctx.queue

    def _halt(self, reason: str) -> None:
        self.halted = True
        self.fail_reason = reason


def run(
    machine: Machine | None,
    workload: WorkloadProgram | str,
    mode: Mode | str,
    cost: CostModel | None = None,
    use_symbol_cache: bool = True,
) -> TraceReport:
    """Run one workload under one mode on a fresh system."""
    if isinstance(workload, str):
        workload = parse_workload(workload)
    if isinstance(mode, str):
        mode = Mode(mode)
    system = System(machine=machine, cost=cost, use_symbol_cache=use_symbol_cache)
    try:
        return Simulator(system, workload, mode).run()
    finally:
        system.close()


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
        header = (
            "syscall",
            "virt calls",
            "virt cyc/call",
            "mv calls",
            "mv cyc/call",
            "delta/call",
        )
        table = [header]
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
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        out = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table]
        out.append("")
        out.append(f"virtual total cycles:    {self.virtual.total_cycles}")
        out.append(f"multiverse total cycles: {self.multiverse.total_cycles}")
        out.append(f"total delta:             {self.total_delta}")
        return "\n".join(out)


def _syscall_stats(report: TraceReport) -> dict[str, tuple[int, int]]:
    """name -> (count, total cost) over Syscall log lines."""
    stats: dict[str, tuple[int, int]] = {}
    for line in report.log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        if fields.get("kind") != EventKind.SYSCALL.value:
            continue
        detail = fields["detail"]
        name = detail.split("(", 1)[0]
        if name.startswith("sys:"):
            name = name[4:]
        count, total = stats.get(name, (0, 0))
        stats[name] = (count + 1, total + int(fields["cost"]))
    return stats


def compare(
    machine: Machine | None,
    workload: WorkloadProgram | str,
    cost: CostModel | None = None,
) -> Comparison:
    """Run Virtual and Multiverse and tabulate per-syscall cost deltas."""
    if isinstance(workload, str):
        workload = parse_workload(workload)
    virtual = run(machine, workload, Mode.VIRTUAL, cost)
    multiverse = run(machine, workload, Mode.MULTIVERSE, cost)
    v_stats = _syscall_stats(virtual)
    m_stats = _syscall_stats(multiverse)
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
    syscalls: int
    base_user_seconds: float
    base_sys_seconds: float
    max_rss_kb: int
    page_faults: int
    context_switches: int  # carried for completeness; no preemption is modeled
    forwarded_events: int

    def __post_init__(self):
        for fname in ("syscalls", "page_faults", "context_switches", "forwarded_events"):
            if getattr(self, fname) < 0:
                raise ValueError(f"{fname} must be >= 0")


def load_profiles(text: str) -> list[BenchmarkProfile]:
    """Whitespace table: name syscalls user_s sys_s rss_kb faults ctxsw forwarded."""
    profiles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"expected 8 columns, got {len(parts)}", lineno)
        try:
            profiles.append(
                BenchmarkProfile(
                    name=parts[0],
                    syscalls=int(parts[1]),
                    base_user_seconds=float(parts[2]),
                    base_sys_seconds=float(parts[3]),
                    max_rss_kb=int(parts[4]),
                    page_faults=int(parts[5]),
                    context_switches=int(parts[6]),
                    forwarded_events=int(parts[7]),
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
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
