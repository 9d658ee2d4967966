"""Workload DSL: named thread bodies of simple actions.

Example::

    # allocate lazily, touch, hand work to a kernel-mode thread
    func worker_fn cycles=500 returns=7
    thread main ros
      mmap 16384
      spawn worker
      join worker
      exit
    end
    thread worker hrt
      touch 0x100000000000 w
      compute 1000
      exit
    end

Numeric literals are decimal or 0x-hex.  In address positions, ``last``
(optionally ``last+N``) refers to the base returned by the thread's most
recent mmap.  ``repeat N ... end`` blocks are unrolled at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, UsageError
from .hrt import FunctionBehavior
from .mem import AccessKind
from .toolchain import OverrideEntry, default_override_map, parse_override_line

ACTIONS = {
    "compute",
    "mmap",
    "munmap",
    "touch",
    "syscall",
    "spawn",
    "spawn_nested",
    "call_override",
    "sync_call",
    "join",
    "exit",
}


@dataclass(frozen=True)
class AddrExpr:
    """Literal address or an offset from the thread's last mmap base."""

    offset: int
    from_last: bool = False

    def resolve(self, last_mmap: int | None) -> int:
        if not self.from_last:
            return self.offset
        if last_mmap is None:
            raise UsageError("'last' used before any mmap in this thread")
        return last_mmap + self.offset


@dataclass(frozen=True)
class Action:
    op: str
    args: tuple = ()


@dataclass
class ThreadBody:
    name: str
    role: str  # "ros" | "hrt"
    actions: list[Action] = field(default_factory=list)


@dataclass
class WorkloadProgram:
    bodies: dict[str, ThreadBody]
    funcs: dict[str, FunctionBehavior]
    overrides: dict[str, OverrideEntry]
    source: str = ""


def _num(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ParseError(f"bad number {token!r}", lineno) from None


def _addr(token: str, lineno: int) -> AddrExpr:
    if token == "last":
        return AddrExpr(0, from_last=True)
    if token.startswith("last+"):
        return AddrExpr(_num(token[5:], lineno), from_last=True)
    return AddrExpr(_num(token, lineno))


def _parse_action(tokens: list[str], lineno: int) -> Action:
    op = tokens[0]
    args = tokens[1:]
    if op == "compute":
        if len(args) != 1:
            raise ParseError("compute takes one cycle count", lineno)
        return Action(op, (_num(args[0], lineno),))
    if op == "mmap":
        if not 1 <= len(args) <= 3:
            raise ParseError("mmap <len> [populate] [ro]", lineno)
        flags = set(args[1:])
        if not flags <= {"populate", "ro"}:
            raise ParseError(f"bad mmap flags {sorted(flags - {'populate', 'ro'})}", lineno)
        return Action(op, (_num(args[0], lineno), "populate" in flags, "ro" not in flags))
    if op == "munmap":
        if len(args) != 2:
            raise ParseError("munmap <base> <len>", lineno)
        return Action(op, (_addr(args[0], lineno), _num(args[1], lineno)))
    if op == "touch":
        if len(args) != 2 or args[1] not in ("r", "w"):
            raise ParseError("touch <addr> r|w", lineno)
        return Action(op, (_addr(args[0], lineno), AccessKind(args[1])))
    if op == "syscall":
        if not args:
            raise ParseError("syscall needs a name", lineno)
        return Action(op, (args[0], tuple(_num(a, lineno) for a in args[1:])))
    if op in ("spawn", "spawn_nested", "join"):
        if len(args) != 1:
            raise ParseError(f"{op} takes one thread name", lineno)
        return Action(op, (args[0],))
    if op == "call_override":
        if not args:
            raise ParseError("call_override needs a name", lineno)
        numeric = []
        for a in args[1:]:
            try:
                numeric.append(int(a, 0))
            except ValueError:
                numeric.append(a)  # symbolic arg, e.g. a spawn target
        return Action(op, (args[0], tuple(numeric)))
    if op == "sync_call":
        if len(args) != 1:
            raise ParseError("sync_call takes one function name", lineno)
        return Action(op, (args[0],))
    if op == "exit":
        if args:
            raise ParseError("exit takes no arguments", lineno)
        return Action(op)
    raise ParseError(f"unknown action {op!r}", lineno)


def _parse_func(tokens: list[str], lineno: int) -> tuple[str, FunctionBehavior]:
    if len(tokens) < 2:
        raise ParseError("func needs a name", lineno)
    name = tokens[1]
    cycles = returns = 0
    touches: tuple[int, ...] = ()
    for tok in tokens[2:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {tok!r}", lineno)
        if key == "cycles":
            cycles = _num(val, lineno)
        elif key == "returns":
            returns = _num(val, lineno)
        elif key == "touches":
            touches = tuple(_num(v, lineno) for v in val.split(",") if v)
        else:
            raise ParseError(f"unknown func attribute {key!r}", lineno)
    return name, FunctionBehavior(cycles=cycles, returns=returns, touches=touches)


def parse_workload(text: str) -> WorkloadProgram:
    bodies: dict[str, ThreadBody] = {}
    funcs: dict[str, FunctionBehavior] = {}
    overrides = default_override_map()
    current: ThreadBody | None = None
    repeat_stack: list[tuple[int, list[Action], int]] = []  # (count, actions, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if current is None:
            if head == "thread":
                if len(tokens) != 3 or tokens[2] not in ("ros", "hrt"):
                    raise ParseError("thread <name> ros|hrt", lineno)
                name = tokens[1]
                if name in bodies:
                    raise ParseError(f"duplicate thread {name!r}", lineno)
                current = ThreadBody(name, tokens[2])
            elif head == "func":
                name, behavior = _parse_func(tokens, lineno)
                funcs[name] = behavior
            elif head == "override":
                legacy, entry = parse_override_line(line, lineno)
                overrides[legacy] = entry
            else:
                raise ParseError(f"expected thread/func/override, got {head!r}", lineno)
            continue

        # Inside a thread body.
        if head == "repeat":
            if len(tokens) != 2:
                raise ParseError("repeat <count>", lineno)
            repeat_stack.append((_num(tokens[1], lineno), [], lineno))
        elif head == "end":
            if repeat_stack:
                count, actions, _ = repeat_stack.pop()
                target = repeat_stack[-1][1] if repeat_stack else current.actions
                target.extend(actions * count)
            else:
                if not current.actions or current.actions[-1].op != "exit":
                    raise ParseError(
                        f"thread {current.name!r} must end with exit", lineno
                    )
                bodies[current.name] = current
                current = None
        else:
            action = _parse_action(tokens, lineno)
            if repeat_stack:
                repeat_stack[-1][1].append(action)
            else:
                current.actions.append(action)

    if current is not None:
        raise ParseError(f"thread {current.name!r} not closed with end", len(text.splitlines()))
    if repeat_stack:
        raise ParseError("repeat block not closed", repeat_stack[-1][2])
    if "main" not in bodies:
        raise ParseError("workload needs exactly one 'main' thread")
    if bodies["main"].role != "ros":
        raise ParseError("'main' must be a ros thread")

    names = set(bodies)
    for body in bodies.values():
        for action in body.actions:
            if action.op in ("spawn", "spawn_nested", "join") and action.args[0] not in names:
                raise ParseError(
                    f"{action.op} target {action.args[0]!r} is not a defined thread"
                )
    return WorkloadProgram(bodies=bodies, funcs=funcs, overrides=overrides, source=text)
