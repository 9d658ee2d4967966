"""The driver's round loop answers to a plain reference interpreter.

`tests/reference.py` runs a parsed workload with none of the driver's
fast paths: every context that is not done steps once a round, every
access walks, and every forwarded event is a fresh record; it imports
nothing from `hrtsim.sim`.  `Simulator` runs unmodified here, observed
through a `Recorder` that wraps, on the instance, each context's
generator as `_add` makes it.  On the golden workloads, the bench
workloads at four seeds and the committed corpus, in both modes, and on
every draw of `tests/test_generated.py`'s strategies, the two give the
same log, the same total cycles, the same failed flag and reason or the
same error (class, message and a `DeadlockError`'s events), the same
frames left on each side, and the same progress sequence, each step that
made progress as (tid, done after the step): only the steps that made no
progress may differ.  The recorder also checks, before each step and
once the run has ended or deadlocked, that every done context is parked
and that a clean round's run list holds every context that is not parked.

`PINNED_SCHEDULES` pins the reference's own progress on the bench
workloads, by context name, so a step added to or dropped from both
interpreters still shows.  The deadlock cases that drop the partners
from a run pin their outcomes on `Simulator` alone.
"""

import hashlib
import importlib.util
import json
import sys
from typing import NamedTuple
from pathlib import Path

import pytest

from hrtsim.errors import DeadlockError, SimError
from hrtsim.machine import Machine
from hrtsim.sim import Mode, Simulator, System, compare, parse_workload

from reference import Reference
from test_golden import GENERATED, GOLDEN, PHYS_FRAMES

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3, 4242, 9001)


def load_bench_workloads():
    """The benchmark's seeded workload generators, by workload name."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].GENERATORS


class Recorder:
    """The steps of one `Simulator`: the tid of every context step in
    `steps`, and each step that made progress as (tid, done after the
    step) in `progress`.  It replaces the instance's `_add` with one that
    wraps each new context's generator, so the simulator's own code runs
    unchanged."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.steps: list[int] = []
        self.progress: list[tuple[int, bool]] = []
        add = sim._add

        def recorded_add(*args):
            ctx = add(*args)
            ctx.thread = self.recorded(ctx, ctx.thread)
            return ctx

        sim._add = recorded_add

    def recorded(self, ctx, thread):
        """thread, recording each of its steps."""
        try:
            while True:
                self.check()
                assert not ctx.done, ctx.tid
                self.steps.append(ctx.tid)
                try:
                    progressed = next(thread)
                except StopIteration:  # the step loop marks ctx done
                    self.progress.append((ctx.tid, True))
                    return
                if progressed:
                    self.progress.append((ctx.tid, ctx.done))
                yield progressed
        finally:
            thread.close()

    def check(self):
        """Every done context is parked: the round never steps one, so
        `Simulator.step` has no `done` test.  The run list is stale, or
        holds every context that is not parked: a clean round, which steps
        only the list, misses none."""
        sim = self.sim
        assert not [c.tid for c in sim.contexts if c.done and not c.parked]
        if not sim.stale and sim.running is not None:
            listed = set(map(id, sim.running))  # `in` on the list would call `_Ctx.__eq__`
            assert not [c.tid for c in sim.contexts if not c.parked and id(c) not in listed]


class Ending(NamedTuple):
    log_text: str
    total_cycles: int
    ended: tuple  # (failed, reason), or the error's (class, message, events)
    frames_left: tuple[int, int]  # the regular OS's and the runtime's


def ending(run, system) -> Ending:
    """run(), and how it ended on system (a `System` or a `Reference`): the
    log text, the total cycles, the failed flag and reason or the error
    raised, as its class, message and the (kind, origin, detail) of each
    event a `DeadlockError` carries, and the frames left on each side."""
    try:
        run()
    except SimError as exc:
        events = [(e.kind, e.origin, e.detail) for e in getattr(exc, "events", [])]
        ended = (type(exc).__name__, str(exc), events)
    else:
        ended = (system.ros.proc.failed, system.ros.proc.fail_reason)
    machine = system.machine
    frames = (machine.ros_frame_alloc.frames_left, machine.hrt_frame_alloc.frames_left)
    return Ending(system.log.render(), system.log.now, ended, frames)


def observe_simulator(program, mode, frames, prepare=None) -> tuple[Recorder, Ending]:
    """Run program on `Simulator`: its recorder and its outcome;
    `prepare(sim)` runs between set-up and the round loop.  The recorder
    also checks the state the last round, or a deadlocked one, leaves."""
    sim = Simulator(System(machine=Machine(phys_frames=frames)), program, mode)
    recorder = Recorder(sim)

    def run():
        sim.setup()
        if prepare is not None:
            prepare(sim)
        try:
            sim.execute()
        except DeadlockError:
            recorder.check()
            raise
        recorder.check()

    return recorder, ending(run, sim.system)


def observe_reference(program, mode, frames) -> tuple[Reference, Ending]:
    ref = Reference(Machine(phys_frames=frames), program, mode.value)
    return ref, ending(ref.run, ref)


def assert_matches_reference(text, mode, frames):
    """Simulator and the reference end alike and make the same progress
    steps on text; the simulator's progress and `Ending`."""
    program = parse_workload(text)
    recorder, end = observe_simulator(program, mode, frames)
    ref, expected = observe_reference(program, mode, frames)
    assert end == expected
    assert recorder.progress == [(tid, done) for tid, _, done in ref.progress]
    return recorder.progress, end


GOLDEN_NAMES = sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt"))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_workload_schedule(name, mode):
    text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
    assert_matches_reference(text, mode, PHYS_FRAMES.get(name, 512))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["fwd_cold", "hot_local", "boot_large", "compare_cold"])
def test_bench_workload_schedule(name, seed, mode):
    workload = load_bench_workloads()[name](seed)
    frames = workload.phys_frames or Machine().phys_frames
    progress, end = assert_matches_reference(workload.text, mode, frames)
    assert progress
    assert end.ended == (False, "")  # ran to the end, not failed


@pytest.mark.parametrize("strategy", ["shared_partner", "workloads"])
def test_corpus_workload_schedule(strategy):
    """Every committed generated text of one strategy, in both modes; a
    mismatch names the record's index in the corpus and the mode."""
    differ = []
    for i, record in enumerate(json.loads(GENERATED.read_text())):
        for mode in Mode if record["strategy"] == strategy else ():
            try:
                assert_matches_reference(record["text"], mode, record["frames"])
            except AssertionError:
                differ.append((i, mode.value))
    assert differ == []


# Progress steps and the SHA-256 of the reference's progress sequence,
# one "name done" line per step, of each bench workload at seed 1 in
# multiverse.  A yield added to or dropped from both interpreters' thread
# code would pass their comparison; these figures would not.
PINNED_SCHEDULES = {
    "fwd_cold": (14698, "cd0a35d99ad44b0564e7563dbac45c168110dda742271723976b8d81b84be3b2"),
    "hot_local": (34867, "80f69b3bb8c10dd0bda7ca37063d3a2b07e4ad84db6cca417c992dfef219175c"),
    "boot_large": (71, "48c93ddd1288d858ba12da91f2ba0ee9846d5e753df76166b45746150946c16f"),
    "compare_cold": (6058, "e32a6a2009394c8459f3b98ffe4d91f0483fa1e3127f960936d4e49e6346703f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
def test_bench_schedule_is_pinned(name):
    workload = load_bench_workloads()[name](1)
    frames = workload.phys_frames or Machine().phys_frames
    ref, end = observe_reference(parse_workload(workload.text), Mode.MULTIVERSE, frames)
    lines = "".join(f"{name} {int(done)}\n" for _, name, done in ref.progress)
    assert (len(ref.progress), hashlib.sha256(lines.encode()).hexdigest()) == PINNED_SCHEDULES[name]
    assert end.ended == (False, "")


@pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
def test_bench_model_outputs_are_pinned(name):
    """Each bench workload at seed 1 gives the log digest, total cycles and
    event count the benchmark recorded, computed as its run check does:
    SHA-256 over each report's log, virtual then multiverse for compare."""
    workload = load_bench_workloads()[name](1)
    if workload.compare:
        result = compare(None, workload.text)
        reports = [result.virtual, result.multiverse]
    else:
        system = System(machine=Machine(phys_frames=workload.phys_frames))
        reports = [Simulator(system, parse_workload(workload.text), Mode.MULTIVERSE).run()]
    digest = hashlib.sha256()
    for report in reports:
        assert not report.failed
        digest.update(report.log_text.encode())
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    assert baseline["model_outputs_seed1"][name] == {
        "digest": digest.hexdigest(),
        "sim.total_cycles": sum(r.total_cycles for r in reports),
        "sim.events": sum(len(r.log_text.splitlines()) for r in reports),
    }


MUTUAL_JOIN = """
thread main ros
  spawn a
  spawn b
  join a
  exit
end
thread a ros
  join b
  exit
end
thread b ros
  join a
  exit
end
"""

W_FAULT = """
thread main ros
  spawn worker
  join worker
  exit
end
thread worker hrt
  mmap 4096
  touch last w
  exit
end
"""


class TestDeadlock:
    @pytest.mark.parametrize("mode", [Mode.VIRTUAL], ids=lambda m: m.value)
    def test_mutual_join(self, mode):
        _, end = assert_matches_reference(MUTUAL_JOIN, mode, 512)
        assert end.ended == (
            "DeadlockError",
            "no runnable context; outstanding events: none",
            [],
        )

    # The next two drop the partners from a run, which the reference
    # cannot do: they run on `Simulator` alone.

    def test_unserved_event_is_dumped(self):
        def drop_partners(sim):
            sim.step()  # main executes the spawn
            sim.contexts = [c for c in sim.contexts if c.kind != "partner"]

        _, end = observe_simulator(parse_workload(W_FAULT), Mode.MULTIVERSE, 512, drop_partners)
        assert end.ended == (
            "DeadlockError",
            "no runnable context; outstanding events: "
            "Syscall origin=1000 detail=sys:mmap(4096,0,1)",
            [("Syscall", 1000, "sys:mmap(4096,0,1)")],
        )

    def test_each_blocked_thread_dumps_its_own_event(self):
        # Two kernel-mode threads each wait on their own record.
        text = (
            "thread main ros\n  spawn a\n  spawn b\n  join a\n  join b\n  exit\nend\n"
            "thread a hrt\n  syscall write 1 1\n  exit\nend\n"
            "thread b hrt\n  mmap 8192\n  exit\nend\n"
        )

        def drop_partners(sim):
            sim.step()  # main spawns a
            sim.step()  # main spawns b
            sim.contexts = [c for c in sim.contexts if c.kind != "partner"]

        _, end = observe_simulator(parse_workload(text), Mode.MULTIVERSE, 512, drop_partners)
        assert end.ended == (
            "DeadlockError",
            "no runnable context; outstanding events: "
            "Syscall origin=1000 detail=sys:write(1,1), "
            "Syscall origin=1001 detail=sys:mmap(8192,0,1)",
            [("Syscall", 1000, "sys:write(1,1)"), ("Syscall", 1001, "sys:mmap(8192,0,1)")],
        )


def test_hot_local_steps_rarely_idle():
    """Parked contexts are not stepped: under 1% of the context steps on
    golden bench_hot_local make no progress (before parking it was 53%)."""
    text = (GOLDEN / "workloads" / "bench_hot_local.txt").read_text()
    recorder, end = observe_simulator(parse_workload(text), Mode.MULTIVERSE, 8192)
    assert end.ended == (False, "")
    idle = len(recorder.steps) - len(recorder.progress)
    assert idle < 0.01 * len(recorder.steps), (idle, len(recorder.steps))


def round_loop_visits(sim) -> tuple[int, int]:
    """Run sim: the contexts its round loop visits, and how many of those
    it skips as parked.  A round visits the list it steps: a copy of every
    context when it starts with the stale flag set, else the run list,
    which an exit's wake may grow during the round.  Each visit it does not
    skip is one step of a context's generator, which a `Recorder` counts."""
    recorder, step, visits = Recorder(sim), sim.step, 0

    def counted_step():
        nonlocal visits
        stale, everyone = sim.stale, len(sim.contexts)
        progressed = step()
        visits += everyone if stale or sim.running is None else len(sim.running)
        return progressed

    sim.step = counted_step  # `execute` steps through the instance
    assert not sim.run().failed
    return visits, visits - len(recorder.steps)


def test_hot_local_round_loop_rarely_visits_parked_contexts():
    """Rounds in which nothing parks, wakes or spawns step the run list, so
    under 5% of the round loop's visits on the bench's hot_local at seed 1
    find a parked context: 170 of 35,038, where scanning every context in
    every round made 38,994 of 73,862 (53%)."""
    workload = load_bench_workloads()["hot_local"](1)
    frames = workload.phys_frames or Machine().phys_frames
    system = System(machine=Machine(phys_frames=frames))
    sim = Simulator(system, parse_workload(workload.text), Mode.MULTIVERSE)
    visits, parked = round_loop_visits(sim)
    assert parked < 0.05 * visits, (parked, visits)
