"""Invariants over generated workloads, not only the hand-written fixtures.

A Hypothesis strategy writes well-formed workload text: a regular-OS
`main` and up to four kernel-mode threads, with nested spawns; every op
and `repeat`; overrides that are on, `off`, fall through, and
`pthread_create`; `sync_call`, and `munmap` of `last` and of literal
pages; machines of 512-4096 frames.  Literal touches and unmaps fall in
an 8-page region that `main` maps first.  A thread spawns only threads after it in the list, so
every run ends.  Each workload runs twice in both modes, virtual and
multiverse, and these hold:

- two runs give the same outcome;
- the log's `cost=` fields sum to `total_cycles`;
- any exception raised is a `SimError`;
- `Simulator` makes the same progress steps, and ends the same way, as
  the reference interpreter `tests/reference.py`
  (`test_schedule.assert_matches_reference`);
- no run raises `DeadlockError`;
- after each run, the process's mapped lower-half pages map pairwise
  distinct regular-OS frames, none of them a page table's;
- after each run, each leaf table that either address space caches is
  the one a full walk of its region reaches;
- after each run, the regular OS has used no more frames than its page
  tables, built or deferred, the distinct lower-half pages its log's
  `PageFault` entries name, the pages of each populated `mmap` the log
  records, and one page per `SetupSync`: a fault that takes a second
  frame for its page exceeds it.

A second shape puts faults in one partner's queue together: a
kernel-mode thread spawns one to three nested threads, and it and each
of them touch main's lazy region first.  Most draws have a fault that
waits behind another thread's event, whose service then wakes the parked
thread; its draws keep the invariants above.

A third shape has a kernel-mode thread compute until its parked partner
is out of a clean round's run list and then fault on a lower-half page,
while a sibling keeps the rounds clean: the forward must still bring the
partner back into the next round.

The same text, mutated one of four ways (cut at a character, a line
dropped, a line duplicated, a token dropped), fails only in its error
class: parsing raises nothing but `ParseError`, and running nothing but
`SimError`.

Another shape runs out of regular-OS frames: a `populate` mmap near the
machine's size, then lazy touches from main or a kernel-mode thread.
Each run ends as the model says, never with `AllocationError`: either
the mmap returned ENOMEM and every touch was served, or it was mapped
and a demand fault was refused, a segfault.

An outcome is the log, the total and the failed flag, or the error
raised.  Some multiverse runs raise `ProtocolError` because a nested
thread outlives its top-level parent (ROADMAP item 3); that is allowed
here, and must repeat like any other outcome.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrtsim.channel import PAGE_FAULT, SETUP_SYNC, SYSCALL
from hrtsim.errors import ParseError, SimError
from hrtsim.machine import Machine
from hrtsim.mem import HIGHER_BASE, PAGE_SIZE, READ
from hrtsim.ros import MMAP_BASE
from hrtsim.sim import Mode, Simulator, System, parse_workload

from pagewalk import assert_leaf_tables_sound, mapped_lower_pages, walk
from test_schedule import assert_matches_reference

WORKERS = ("w0", "w1", "w2", "w3")
FUNCS = """\
func fast cycles=300 returns=1
func wide cycles=50 touches={touches}
func slow cycles=500 returns=7
override legacy_fast -> fast
override legacy_wide -> wide
override legacy_off -> slow off
"""
# An enabled override, one that writes pages, a disabled one, a name with
# no override (falls through), and the default pthread_create override.
CALLS = ("legacy_fast 1 2", "legacy_wide", "legacy_off 3 4", "plain_call 5")

pages = st.integers(0, 7)
cycles = st.integers(0, 400)


@st.composite
def simple_op(draw, mapped: bool) -> str:
    """One action that any thread may take, in or out of a `repeat`;
    `last` only after this thread's first `mmap`."""
    kinds = ["compute", "mmap", "touch", "syscall", "call"] + ["last"] * 2 * mapped
    kind = draw(st.sampled_from(kinds))
    if kind == "compute":
        return f"compute {draw(cycles)}"
    if kind == "mmap":
        flags = draw(st.sampled_from(["", " populate", " ro", " populate ro"]))
        return f"mmap {draw(st.integers(1, 3 * PAGE_SIZE))}{flags}"
    if kind == "touch":
        base = draw(st.sampled_from([MMAP_BASE] * 3 + [HIGHER_BASE + 0x0040_0000]))
        addr = base + draw(pages) * PAGE_SIZE + draw(st.integers(0, PAGE_SIZE - 1))
        return f"touch 0x{addr:x} {draw(st.sampled_from('rw'))}"
    if kind == "syscall":
        call = draw(st.sampled_from(["syscall write 1 8", "syscall getpid", "syscall munmap 1", ""]))
        if call:
            return call
        addr = MMAP_BASE + draw(pages) * PAGE_SIZE  # pages of main's region
        return f"munmap 0x{addr:x} {draw(st.integers(1, 2)) * PAGE_SIZE}"
    if kind == "call":
        return f"call_override {draw(st.sampled_from(CALLS))}"
    if draw(st.booleans()):
        return f"touch last+{draw(pages) * PAGE_SIZE} {draw(st.sampled_from('rw'))}"
    return f"munmap last {draw(st.integers(1, 2)) * PAGE_SIZE}"


@st.composite
def body(draw, name: str, later: tuple[str, ...]) -> list[str]:
    """Action lines of one thread; `later` are the workers it may spawn.
    Main first maps the region of the literal touches, spawns at least one
    worker, each once, and may join each after its spawn; a kernel-mode
    thread spawns nested or top-level threads."""
    kernel_mode = name != "main"
    items: list[list[str]] = []  # one action, or one whole repeat block
    mapped = not kernel_mode
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)) == 0:
            inner = [draw(simple_op(mapped)) for _ in range(draw(st.integers(1, 3)))]
            items.append([f"repeat {draw(st.integers(0, 3))}", *(f"  {op}" for op in inner), "end"])
        elif not kernel_mode and draw(st.integers(0, 4)) == 0:
            items.append([f"sync_call {draw(st.sampled_from(['fast', 'slow', 'main']))}"])
        else:
            op = draw(simple_op(mapped))
            mapped |= op.startswith("mmap")
            items.append([op])
    if kernel_mode and later:
        for target in draw(st.lists(st.sampled_from(later), max_size=2)):
            op = draw(st.sampled_from(["spawn_nested", "call_override pthread_create 0 0"]))
            items.insert(draw(st.integers(0, len(items))), [f"{op} {target}"])
    elif later:
        for target in draw(st.lists(st.sampled_from(later), min_size=1, unique=True)):
            at = draw(st.integers(0, len(items)))
            items.insert(at, [f"spawn {target}"])
            if draw(st.booleans()):
                items.insert(draw(st.integers(at + 1, len(items))), [f"join {target}"])
    first = [] if kernel_mode else [f"mmap {8 * PAGE_SIZE}"]
    return first + [line for item in items for line in item] + ["exit"]


@st.composite
def workloads(draw) -> tuple[str, int]:
    """Workload text and the machine's frame count."""
    workers = WORKERS[: draw(st.integers(0, len(WORKERS)))]
    touches = ",".join(f"0x{MMAP_BASE + p * PAGE_SIZE:x}" for p in draw(st.lists(pages, max_size=3)))
    text = [FUNCS.format(touches=touches)]
    for i, name in enumerate(("main",) + workers):
        role = "ros" if name == "main" else "hrt"
        lines = draw(body(name, workers[i:]))
        text.append(f"thread {name} {role}\n" + "".join(f"  {line}\n" for line in lines) + "end\n")
    return "".join(text), draw(st.integers(512, 4096))


def workload_text(bodies: dict[str, list[str]]) -> str:
    """FUNCS with no override touches, then each body's action lines:
    main runs on the regular OS and every other body in kernel mode."""
    text = [FUNCS.format(touches="")]
    for name, lines in bodies.items():
        role = "ros" if name == "main" else "hrt"
        text.append(f"thread {name} {role}\n" + "".join(f"  {line}\n" for line in lines) + "end\n")
    return "".join(text)


@st.composite
def shared_partner(draw) -> tuple[str, int]:
    """Workload text and frame count of a kernel-mode thread `w0` that
    spawns one to three nested threads, one a step, and then touches main's
    lazy region, as each nested thread does first.  Their faults meet in
    the queue of the one partner that serves them all, so most draws have
    a fault wait behind another thread's event, and the partner's progress
    then wakes the parked thread.  The bodies go on as `body` draws them."""
    nested = WORKERS[1 : 1 + draw(st.integers(1, 3))]

    def touch() -> str:
        addr = MMAP_BASE + draw(pages) * PAGE_SIZE
        return f"touch 0x{addr:x} {draw(st.sampled_from('rw'))}"

    main = [f"mmap {8 * PAGE_SIZE}", "spawn w0", "join w0", "exit"]
    bodies = {"main": main, "w0": [f"spawn_nested {name}" for name in nested] + [touch()]}
    bodies["w0"] += draw(body("w0", ()))
    for name in nested:
        bodies[name] = [touch()] + draw(body(name, ()))
    return workload_text(bodies), draw(st.integers(512, 4096))


@st.composite
def fault_after_clean_rounds(draw) -> tuple[str, int]:
    """Workload text and frame count of a kernel-mode thread `w0` that
    computes for four to eight steps, long enough for its partner, parked,
    to drop out of a clean round's run list, and then touches a page of
    main's lazy region, while a sibling `w1` computes on through the
    rounds around the fault, which so stay clean.  The fault's forward
    must still get the partner stepped in the next round.  Both bodies go
    on as `body` draws them."""
    steady = draw(st.integers(4, 8))
    addr = MMAP_BASE + draw(pages) * PAGE_SIZE
    bodies = {
        "main": [f"mmap {8 * PAGE_SIZE}", "spawn w0", "spawn w1", "join w0", "join w1", "exit"],
        "w0": [f"compute {draw(cycles)}" for _ in range(steady)]
        + [f"touch 0x{addr:x} {draw(st.sampled_from('rw'))}"],
        "w1": [f"compute {draw(cycles)}" for _ in range(steady + draw(st.integers(1, 4)))],
    }
    bodies["w0"] += draw(body("w0", ()))
    bodies["w1"] += draw(body("w1", ()))
    return workload_text(bodies), draw(st.integers(512, 4096))


@st.composite
def mutated_workloads(draw) -> tuple[str, int]:
    """A generated workload's text with one cut, dropped line, duplicated
    line or dropped token."""
    text, frames = draw(workloads())
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["cut", "drop line", "duplicate line", "drop token"]))
    if how == "cut":
        return text[: draw(st.integers(0, len(text)))], frames
    if how == "drop line":
        del lines[i]
    elif how == "duplicate line":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        lines[i] = " ".join(tokens) + "\n"
    return "".join(lines), frames


def assert_one_frame_per_page(system: System) -> None:
    """Each mapped lower-half page of the process has its own regular-OS
    frame, and no page table shares it."""
    space = system.ros.proc.space
    backing = [walk(space, page, READ) >> 12 for page in mapped_lower_pages(space)]
    assert len(set(backing)) == len(backing), "two pages share a frame"
    assert all(frame < system.machine.ros_frames for frame in backing), backing
    assert not set(backing) & set(space.store), "a page shares a page table's frame"


def ros_frames_bound(system: System) -> int:
    """The most regular-OS frames a run may use: its page tables, built or
    deferred, the distinct lower-half pages named by `PageFault` entries,
    the pages of every populated `mmap` in the log, and one page per
    `SetupSync` (its populated sync page)."""
    machine, store = system.machine, system.machine.table_store
    tables = sum(frame < machine.ros_frames for frame in [*store, *store.deferred])
    cells = system.log.cells
    faulted, pages = set(), 0
    for kind, detail in zip(cells[1::5], cells[3::5]):
        if kind == PAGE_FAULT:
            addr = int(detail.split(":")[1], 16)
            if addr < HIGHER_BASE:  # a canonical address below it is in the lower half
                faulted.add(addr >> 12)
        elif kind == SYSCALL and detail.startswith("sys:mmap("):
            length, populate = ([int(arg) for arg in detail[9:-1].split(",") if arg] + [0, 0])[:2]
            pages += -(-length // PAGE_SIZE) if populate else 0
        elif kind == SETUP_SYNC:
            pages += 1
    return tables + len(faulted) + pages


def assert_ros_frames_accounted(system: System) -> None:
    alloc = system.machine.ros_frame_alloc
    used = alloc.end - alloc.start - alloc.frames_left
    assert used <= ros_frames_bound(system), "a regular-OS frame is not accounted for"


def outcome(text: str, frames: int, mode: Mode) -> tuple:
    sim = Simulator(System(machine=Machine(phys_frames=frames)), parse_workload(text), mode)
    try:
        report = sim.run()
    except SimError as exc:
        return ("raises", type(exc).__name__, str(exc))
    finally:
        assert_one_frame_per_page(sim.system)
        assert_ros_frames_accounted(sim.system)
        for space in (sim.system.ros.proc.space, sim.system.hrt.space):
            if space is not None:  # a virtual run boots no HRT
                assert_leaf_tables_sound(space)
    costs = sum(int(line.rsplit("cost=", 1)[1]) for line in report.log_text.splitlines())
    assert costs == report.total_cycles
    return (report.log_text, report.total_cycles, report.failed, report.fail_reason)


def assert_invariants(text: str, frames: int) -> None:
    for mode in Mode:
        first = outcome(text, frames, mode)
        assert outcome(text, frames, mode) == first, f"{mode.value} is not deterministic"
        _, end = assert_matches_reference(text, mode, frames)
        assert end.ended[0] != "DeadlockError", end.ended


@settings(max_examples=150, deadline=None, derandomize=True)
@given(workloads())
def test_generated_workload_invariants(generated):
    assert_invariants(*generated)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shared_partner())
def test_faults_on_a_shared_partner_keep_the_invariants(generated):
    assert_invariants(*generated)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(fault_after_clean_rounds())
def test_a_fault_after_clean_rounds_keeps_the_invariants(generated):
    assert_invariants(*generated)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_workloads())
def test_mutated_text_fails_only_in_its_error_class(mutated):
    text, frames = mutated
    try:
        program = parse_workload(text)
    except ParseError:
        return
    for mode in Mode:
        try:
            Simulator(System(machine=Machine(phys_frames=frames)), program, mode).run()
        except SimError:
            pass


LAZY_PAGES = 24  # more than a populated machine has left


def out_of_frames_case(frames: int, slack: int, toucher: str, access: str) -> tuple[str, int]:
    """A workload that maps all but `slack` of the machine's regular-OS
    frames with `populate`, then has `toucher` ("main", or a kernel-mode
    thread "w") touch LAZY_PAGES pages of a lazy region: its text, and
    the populated length."""
    length = (Machine(phys_frames=frames).ros_frames - slack) * PAGE_SIZE
    lazy = [f"mmap {LAZY_PAGES * PAGE_SIZE}"]
    lazy += [f"touch last+{i * PAGE_SIZE} {access}" for i in range(LAZY_PAGES)]
    main = [f"mmap {length} populate"] + (lazy if toucher == "main" else ["spawn w", "join w"])
    text = "thread main ros\n" + "".join(f"  {line}\n" for line in main + ["exit"]) + "end\n"
    if toucher == "w":
        text += "thread w hrt\n" + "".join(f"  {line}\n" for line in lazy + ["exit"]) + "end\n"
    return text, length


out_of_frames = st.tuples(
    st.integers(512, 1024), st.integers(0, 16), st.sampled_from(["main", "w"]),
    st.sampled_from("rw"),
)


def frames_outcome(case: tuple[int, int, str, str], mode: Mode) -> str:
    """How one out-of-frames case ends, "ENOMEM" or "segfault": it must end
    one of those two ways."""
    frames = case[0]
    text, length = out_of_frames_case(*case)
    sim = Simulator(System(machine=Machine(phys_frames=frames)), parse_workload(text), mode)
    report = sim.run()
    if length in sim.system.ros.proc.vm_regions.lengths:  # populated
        assert report.failed and report.fail_reason.startswith("segfault at 0x"), report
        return "segfault"
    assert not report.failed, report.fail_reason
    return "ENOMEM"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(out_of_frames)
def test_running_out_of_frames_is_enomem_or_a_segfault(case):
    for mode in Mode:
        frames_outcome(case, mode)


@pytest.mark.parametrize("toucher", ["main", "w"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_out_of_frames_reaches_both_ends(mode, toucher):
    """No frame to spare is ENOMEM; 16 to spare is a refused demand fault."""
    assert frames_outcome((512, 0, toucher, "w"), mode) == "ENOMEM"
    assert frames_outcome((512, 16, toucher, "r"), mode) == "segfault"
