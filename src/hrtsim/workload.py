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
recent mmap.  A ``repeat N ... end`` block stays one loop node of its
body (`Steps`), so a body's memory follows its text, not its trip count;
a body whose steps all run once in a row keeps them as one tuple.
Each action line is lowered once, as it is parsed, to an exact 4-tuple
laid out as `Action`, with its final operands.  Equal lines share one
tuple, and iterating a body's `steps` gives each step that runs in turn,
so a step of the interpreter decodes nothing.  `ThreadBody.actions` is a
view of the same steps, unrolled, as `Action` records, built when read,
for readers outside the interpreter.
A cycle count (``compute``, ``func ... cycles=``) and a repeat count may
not be negative, and a repeat count must fit in an index (below 2**63);
an address (``touch``, ``munmap``, ``last+N``,
``func ... touches=``) must lie in [0, 2**64).  No body may spawn itself,
directly or through others: with no conditionals it would do so without end.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import chain, groupby, repeat, starmap
from typing import Any, NamedTuple

from .channel import syscall_detail
from .errors import ParseError
from .mem import READ, WRITE
from .toolchain import OverrideEntry, default_override_map, parse_override

@dataclass(frozen=True)
class FunctionBehavior:
    """Declarative body of a function, from its `func` line; a name with no
    `func` line behaves as the default."""

    cycles: int = 0
    touches: tuple[int, ...] = ()


DEFAULT_BEHAVIOR = FunctionBehavior()  # shared: frozen, so no caller can change it


class Action(NamedTuple):
    """The layout of one lowered action: its final operands, so a step
    unpacks it and decodes nothing.  A body stores each as an exact tuple
    (`ThreadBody.steps`): CPython 3.11 specialises unpacking only for an
    exact tuple or list, not for a subclass such as this one.  Equal
    lines share one tuple, and each pass of a `repeat` block yields it.

    ====================  ============================================
    op                    a, b, c
    ====================  ============================================
    touch                 address, ``"r"``/``"w"``, page number;
                          ``last+N``: N, ``"r"``/``"w"``, None
    mmap, munmap,         payload ``(name, int args, 0)``, its
    syscall               ``sys:`` detail; ``munmap last+N``: a payload
                          with N as the base, None
    compute               cycles
    spawn, spawn_nested,  target name
    join, sync_call
    call_override         `CallPlan`
    exit                  -
    ====================  ============================================
    """

    op: str
    a: Any = None
    b: Any = None
    c: Any = None


@dataclass(slots=True)
class CallPlan:
    """How one `call_override` line runs, in every mode.  The parser fills
    in everything after `args` once the whole text is read, since `func`
    and `override` lines may follow the bodies that call them."""

    name: str
    args: tuple  # ints, and symbolic names (a spawn target) as str
    call: str = ""  # "call:NAME": a regular-OS call's name and detail, a fall-through's entry
    legacy_cycles: int = 0  # regular OS: the function's own cycles, else its target's
    target: str | None = None  # kernel mode: the enabled override's target; None falls through
    creates: bool = False  # the target creates a thread: a spawn of `spawn`
    spawn: str | None = None  # the first symbolic argument
    behavior: FunctionBehavior = DEFAULT_BEHAVIOR  # the target's
    detail: str = ""  # the Override entry's, or the fall-through system call's
    payload: tuple | None = None  # fall-through: (call, int args, the legacy function's cycles)

    def resolve(
        self, funcs: dict[str, FunctionBehavior], overrides: dict[str, OverrideEntry]
    ) -> None:
        """Fix the plan from the workload's final `func` and `override` lines."""
        name = self.name
        self.call = f"call:{name}"
        entry = overrides.get(name)
        legacy = funcs.get(name)
        plain = legacy
        if plain is None and entry is not None:  # the target's body stands in for it
            plain = funcs.get(entry.aero_name)
        self.legacy_cycles = plain.cycles if plain is not None else 0
        if entry is None or not entry.enabled:
            ints = tuple(a for a in self.args if isinstance(a, int))
            self.payload = (self.call, ints, legacy.cycles if legacy is not None else 0)
            self.detail = syscall_detail(self.call, ints)
            return
        self.target = entry.aero_name
        self.creates = entry.aero_name == "hrt_thread_create"
        self.spawn = next((a for a in self.args if isinstance(a, str)), None)
        self.behavior = funcs.get(entry.aero_name, DEFAULT_BEHAVIOR)
        self.detail = f"override:{name}->{entry.aero_name}"


class Repeat(NamedTuple):
    """A node of `Steps`: a block and how many times it runs in a row.
    The block is a run of plain steps (a tuple), or `Steps` when it nests
    a repeat; a run of plain steps outside any repeat is a node of count 1."""

    block: tuple | Steps
    count: int


@dataclass(frozen=True, slots=True)
class Steps:
    """A body's steps in text order, as `Repeat` nodes.  Iterating gives
    every step that runs, one exact tuple at a time (see `Action`),
    through C iterators made anew on each call, so a body that runs twice
    runs from its start each time.  The inner chain yields each block once
    per pass and the outer one its steps; only a block that nests a repeat
    comes back here, once per pass of it."""

    nodes: tuple[Repeat, ...] = ()

    def __iter__(self) -> Iterator[tuple]:
        return chain.from_iterable(chain.from_iterable(starmap(repeat, self.nodes)))


def _nodes(items: list) -> tuple[Repeat, ...]:
    """A block's plain steps and `Repeat` nodes as `Steps.nodes`: each run
    of plain steps becomes one node of count 1."""
    nodes: list = []
    for kind, group in groupby(items, type):
        if kind is tuple:
            nodes.append(Repeat(tuple(group), 1))
        else:
            nodes += group
    return tuple(nodes)


def _block(items: list) -> tuple | Steps:
    """A block as it is iterated, a repeat block's `Repeat.block` or a
    body's `steps`: the block of its one node if that runs once (a run of
    plain steps, say), else `Steps`."""
    nodes = _nodes(items)
    return nodes[0].block if len(nodes) == 1 and nodes[0].count == 1 else Steps(nodes)


@dataclass
class ThreadBody:
    name: str
    role: str  # "ros" | "hrt"
    steps: tuple | Steps = Steps()  # the body's own, set at its `end` (see `_block`)

    @property
    def actions(self) -> list[Action]:
        """The steps as `Action` records, built anew on each read."""
        return [Action(*s) for s in self.steps]


@dataclass
class WorkloadProgram:
    bodies: dict[str, ThreadBody]
    funcs: dict[str, FunctionBehavior]
    overrides: dict[str, OverrideEntry]

    def symbols(self) -> set[str]:
        """The names the kernel image exports: every thread body, every
        declared function and every override target."""
        return (
            set(self.bodies)
            | set(self.funcs)
            | {entry.aero_name for entry in self.overrides.values()}
        )


def _num(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ParseError(f"bad number {token!r}", lineno) from None


def _count(token: str, lineno: int, what: str = "count") -> int:
    """A number that is not negative: a cycle or repeat count, or an address."""
    n = _num(token, lineno)
    if n < 0:
        raise ParseError(f"negative {what} {token!r}", lineno)
    return n


def _address(token: str, lineno: int) -> int:
    """An address, or an offset from one: a 64-bit number."""
    n = _count(token, lineno, "address")
    if n >> 64:
        raise ParseError(f"address {token!r} does not fit in 64 bits", lineno)
    return n


def _addr(token: str, lineno: int) -> tuple[int, bool]:
    """An address operand: (address, False), or (N, True) for ``last+N``."""
    if token == "last":
        return 0, True
    if token.startswith("last+"):
        return _address(token[5:], lineno), True
    return _address(token, lineno), False


SPAWNING = ("spawn", "spawn_nested", "call_override")  # the ops that may create a thread


def _system_call(op: str, name: str, args: tuple[int, ...]) -> tuple:
    """A system call's step: its payload and its detail, rendered once."""
    return op, (name, args, 0), syscall_detail(name, args), None


def _parse_action(tokens: list[str], lineno: int) -> tuple:
    """The step of one action line, an exact tuple laid out as `Action`."""
    op = tokens[0]
    args = tokens[1:]
    if op == "compute":
        if len(args) != 1:
            raise ParseError("compute takes one cycle count", lineno)
        return op, _count(args[0], lineno), None, None
    if op == "mmap":
        if not 1 <= len(args) <= 3:
            raise ParseError("mmap <len> [populate] [ro]", lineno)
        flags = set(args[1:])
        if not flags <= {"populate", "ro"}:
            raise ParseError(f"bad mmap flags {sorted(flags - {'populate', 'ro'})}", lineno)
        return _system_call(
            op, op, (_num(args[0], lineno), int("populate" in flags), int("ro" not in flags))
        )
    if op == "munmap":
        if len(args) != 2:
            raise ParseError("munmap <base> <len>", lineno)
        (base, from_last), length = _addr(args[0], lineno), _num(args[1], lineno)
        if from_last:  # the base and its detail follow the thread's last mmap
            return op, (op, (base, length), 0), None, None
        return _system_call(op, op, (base, length))
    if op == "touch":
        if len(args) != 2 or args[1] not in ("r", "w"):
            raise ParseError("touch <addr> r|w", lineno)
        addr, from_last = _addr(args[0], lineno)
        access = WRITE if args[1] == "w" else READ  # the `mem` constant itself
        return op, addr, access, None if from_last else addr >> 12
    if op == "syscall":
        if not args:
            raise ParseError("syscall needs a name", lineno)
        return _system_call(op, args[0], tuple(_num(a, lineno) for a in args[1:]))
    if op in ("spawn", "spawn_nested", "join"):
        if len(args) != 1:
            raise ParseError(f"{op} takes one thread name", lineno)
        return op, args[0], None, None
    if op == "call_override":
        if not args:
            raise ParseError("call_override needs a name", lineno)
        numeric = []
        for a in args[1:]:
            try:
                numeric.append(int(a, 0))
            except ValueError:
                numeric.append(a)  # symbolic arg, e.g. a spawn target
        return op, CallPlan(args[0], tuple(numeric)), None, None
    if op == "sync_call":
        if len(args) != 1:
            raise ParseError("sync_call takes one function name", lineno)
        return op, args[0], None, None
    if op == "exit":
        if args:
            raise ParseError("exit takes no arguments", lineno)
        return op, None, None, None
    raise ParseError(f"unknown action {op!r}", lineno)


def _parse_func(tokens: list[str], lineno: int) -> tuple[str, FunctionBehavior]:
    if len(tokens) < 2:
        raise ParseError("func needs a name", lineno)
    name = tokens[1]
    cycles = 0
    touches: tuple[int, ...] = ()
    for tok in tokens[2:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {tok!r}", lineno)
        if key == "cycles":
            cycles = _count(val, lineno)
        elif key == "returns":  # checked, and inert: nothing the model runs reads a result
            _num(val, lineno)
        elif key == "touches":
            touches = tuple(_address(v, lineno) for v in val.split(",") if v)
        else:
            raise ParseError(f"unknown func attribute {key!r}", lineno)
    return name, FunctionBehavior(cycles=cycles, touches=touches)


def parse_workload(text: str) -> WorkloadProgram:
    """One pass over the lines.  An action line whose raw text was seen
    before inside a body is its lowered step again: it is neither cut at
    `#` nor split.  Any other line is cut, split, and dispatched on its
    head token; an action line is lowered once per text, cut and stripped."""
    bodies: dict[str, ThreadBody] = {}
    funcs: dict[str, FunctionBehavior] = {}
    overrides = default_override_map()
    current: ThreadBody | None = None  # the open body
    items: list = []  # the innermost open block's plain steps and `Repeat` nodes
    last = None  # the step that runs last so far in the body, if any
    live = True  # no open block is a `repeat 0`: the block's steps run
    outer: list[tuple] = []  # per open repeat: the enclosing block's items, last and live,
    # with the repeat's count and line
    lowered: dict[str, tuple] = {}  # action line, raw or cut and stripped -> its step
    # Flat, as `spawns` is (see `_check_spawn_cycles`), and checked at the end:
    targets: list = []  # step, line: each distinct named-target step and its first line
    plans: list = []  # plan, line: one per distinct call_override line
    spawns: list = []  # body, step, line: each thread creation that runs
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, 1):
        step = lowered.get(raw) if current is not None else None
        if step is None:
            line = raw[: raw.index("#")] if "#" in raw else raw
            tokens = line.split()
            if not tokens:
                continue
            head = tokens[0]
            if current is None:
                if head == "thread":
                    if len(tokens) != 3 or tokens[2] not in ("ros", "hrt"):
                        raise ParseError("thread <name> ros|hrt", lineno)
                    name = tokens[1]
                    if name in bodies:
                        raise ParseError(f"duplicate thread {name!r}", lineno)
                    if name == "main" and tokens[2] != "ros":
                        raise ParseError("'main' must be a ros thread", lineno)
                    current, items, last = ThreadBody(name, tokens[2]), [], None
                elif head == "func":
                    name, behavior = _parse_func(tokens, lineno)
                    funcs[name] = behavior
                elif head == "override":
                    legacy, entry = parse_override(tokens, lineno)
                    overrides[legacy] = entry
                else:
                    raise ParseError(f"expected thread/func/override, got {head!r}", lineno)
                continue
            if head == "repeat":
                if len(tokens) != 2:
                    raise ParseError("repeat <count>", lineno)
                count = _count(tokens[1], lineno)
                if count > sys.maxsize:
                    raise ParseError(f"repeat count {tokens[1]!r} does not fit in an index", lineno)
                outer.append((items, last, live, count, lineno))
                items, live = [], live and count > 0
                continue
            if head == "end":
                if outer:  # a repeat block's: one that runs joins the enclosing block
                    enclosing, before, live, count, _ = outer.pop()
                    if count and items:
                        enclosing.append(Repeat(_block(items), count))
                    else:  # nothing in it runs
                        last = before
                    items = enclosing
                    continue
                if last is None or last[0] != "exit":
                    raise ParseError(f"thread {current.name!r} must end with exit", lineno)
                current.steps = _block(items)
                bodies[current.name] = current
                current = None
                continue
            key = line.strip()
            step = lowered.get(key)
            if step is None:
                step = lowered[key] = _parse_action(tokens, lineno)
                if step[0] == "call_override":
                    plans += step[1], lineno
                elif step[0] in ("spawn", "spawn_nested", "join", "sync_call"):
                    targets += step, lineno
            lowered[raw] = step
        if live and step[0] in SPAWNING:
            spawns += current.name, step, lineno
        items.append(step)
        last = step

    if outer:  # the innermost open repeat
        raise ParseError("repeat block not closed with end", outer[-1][4])
    if current is not None:
        raise ParseError(f"thread {current.name!r} not closed with end", len(lines))
    if "main" not in bodies:  # found missing where the input ends
        raise ParseError("workload needs exactly one 'main' thread", len(lines) or 1)

    program = WorkloadProgram(bodies=bodies, funcs=funcs, overrides=overrides)
    for plan, lineno in zip(plans[0::2], plans[1::2]):
        plan.resolve(funcs, overrides)
        if plan.creates and plan.spawn is not None and plan.spawn not in bodies:
            raise ParseError(
                f"call_override {plan.name} target {plan.spawn!r} is not a defined thread", lineno
            )
    symbols = program.symbols()
    for (op, name, _, _), lineno in zip(targets[0::2], targets[1::2]):
        if op == "sync_call":
            if name not in symbols:
                raise ParseError(f"sync_call target {name!r} is not a symbol", lineno)
        elif name not in bodies:
            raise ParseError(f"{op} target {name!r} is not a defined thread", lineno)
    _check_spawn_cycles(spawns)
    return program


def _check_spawn_cycles(spawns: list) -> None:
    """Reject a body that spawns itself, directly or through others: with no
    conditionals it always does, without bound.  The error names the line
    of a spawn on the cycle.  `spawns` holds three cells a spawn, as the
    event log does: a tuple a spawn would stay on CPython's tuple free list
    after the parse, in the run's peak memory."""
    bodies = spawns[0::3]
    targets = [
        a if op != "call_override" else a.spawn if a.creates else None
        for op, a, _, _ in spawns[1::3]
    ]
    if {body for body, target in zip(bodies, targets) if target}.isdisjoint(targets):
        return  # no spawned body spawns, as in most texts: no sorter, slow to build cold
    lines: dict[tuple[str, str], int] = {}  # (spawner, spawned) -> line of its first spawn
    sorter = TopologicalSorter()
    for body, target, lineno in zip(bodies, targets, spawns[2::3]):
        if target:
            lines.setdefault((body, target), lineno)
            sorter.add(body, target)  # a body after each body it spawns
    try:
        sorter.prepare()
    except CycleError as exc:
        cycle = exc.args[1][::-1]  # each body spawns the next
        raise ParseError(f"spawn cycle {' -> '.join(cycle)}", lines[cycle[0], cycle[1]]) from None
