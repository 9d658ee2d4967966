"""The round loop skips parked contexts without changing the schedule.

`StepEveryContext.step` is the round from before parking: every context
that is not done is stepped in every round.  It stays here as the oracle.
Under both rounds the sequence of steps that made progress, recorded as
(context name, done after the step), must be equal, and so must the log;
only the steps that made no progress may disappear.
"""

import hashlib
import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hrtsim.errors import SimError
from hrtsim.machine import Machine
from hrtsim.sim import Mode, Simulator, System, compare, parse_workload

from test_golden import GOLDEN, PHYS_FRAMES

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3, 9001)


def load_bench_workloads():
    """The benchmark's seeded workload generators, by workload name."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].GENERATORS


class ParkingLoop(Simulator):
    """The simulator as it is, recording each context step by wrapping the
    context's generator: the context name of every step, and each step that
    made progress as (context name, done after the step).  Before each step,
    and after each round, it checks that every done context is parked: the
    round never steps a done context, so `Simulator.step` has no `done`
    test.  It also checks that the run list is stale, or holds every context
    that is not parked: a clean round, which steps only the list, misses none."""

    def __init__(self, *args):
        super().__init__(*args)
        self.steps: list[str] = []
        self.progress: list[tuple[str, bool]] = []

    def _add(self, *args):
        ctx = super()._add(*args)
        ctx.thread = self._recorded(ctx, ctx.thread)
        return ctx

    def _recorded(self, ctx, thread):
        """thread, recording each of its steps."""
        while True:
            self.check()
            assert not ctx.done, ctx.name
            self.steps.append(ctx.name)
            try:
                progressed = next(thread)
            except StopIteration:  # the step loop marks ctx done
                self.progress.append((ctx.name, True))
                return
            if progressed:
                self.progress.append((ctx.name, ctx.done))
            yield progressed

    def step(self):
        progressed = super().step()
        self.check()
        return progressed

    def check(self):
        assert not [c.name for c in self.contexts if c.done and not c.parked]
        if not self.stale and self.running is not None:
            listed = set(map(id, self.running))  # `in` on the list would call `_Ctx.__eq__`
            assert not [c.name for c in self.contexts if not c.parked and id(c) not in listed]


class StepEveryContext(ParkingLoop):
    """The oracle: the round that ignores `parked`.  It skips a done
    context, whose step would make no progress."""

    def step(self):
        progressed = False
        for ctx in list(self.contexts):
            if ctx.done:
                continue
            try:
                if next(ctx.thread):
                    progressed = True
            except StopIteration:
                ctx.done = ctx.parked = True
                progressed = True
        self.check()
        return progressed


def observe(loop, text, mode, phys_frames, prepare=None):
    """Run text under one loop: the progress sequence and the outcome."""
    sim = loop(System(machine=Machine(phys_frames=phys_frames)), parse_workload(text), mode)
    sim.setup()
    if prepare is not None:
        prepare(sim)
    try:
        report = sim.execute()
    except SimError as exc:
        events = [(e.kind, e.origin, e.detail) for e in getattr(exc, "events", [])]
        return sim.progress, (type(exc).__name__, str(exc), events)
    return sim.progress, (report.log_text, report.total_cycles, report.failed)


def assert_same_schedule(text, mode, phys_frames, prepare=None):
    parked = observe(ParkingLoop, text, mode, phys_frames, prepare)
    oracle = observe(StepEveryContext, text, mode, phys_frames, prepare)
    assert parked[0] == oracle[0]
    assert parked[1] == oracle[1]
    return parked


GOLDEN_NAMES = sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt"))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_workload_schedule(name, mode):
    text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
    assert_same_schedule(text, mode, PHYS_FRAMES.get(name, 512))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["fwd_cold", "hot_local", "boot_large", "compare_cold"])
def test_bench_workload_schedule(name, seed, mode):
    workload = load_bench_workloads()[name](seed)
    frames = workload.phys_frames or Machine().phys_frames
    progress, outcome = assert_same_schedule(workload.text, mode, frames)
    assert progress
    assert outcome[2] is False  # ran to the end, not failed


# Progress steps and the SHA-256 of the progress sequence, one
# "name done" line per step, of each bench workload at seed 1 in multiverse.
# Both loops above share the thread code, so a yield added to or dropped
# from it in both would pass their comparison; these figures would not.
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
    progress, outcome = observe(ParkingLoop, workload.text, Mode.MULTIVERSE, frames)
    lines = "".join(f"{ctx} {int(done)}\n" for ctx, done in progress)
    assert (len(progress), hashlib.sha256(lines.encode()).hexdigest()) == PINNED_SCHEDULES[name]
    assert outcome[2] is False


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
        _, outcome = assert_same_schedule(MUTUAL_JOIN, mode, 512)
        assert outcome == (
            "DeadlockError",
            "no runnable context; outstanding events: none",
            [],
        )

    def test_unserved_event_is_dumped(self):
        def drop_partners(sim):
            sim.step()  # main executes the spawn
            sim.contexts = [c for c in sim.contexts if c.kind != "partner"]

        _, outcome = assert_same_schedule(W_FAULT, Mode.MULTIVERSE, 512, drop_partners)
        assert outcome == (
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

        _, outcome = assert_same_schedule(text, Mode.MULTIVERSE, 512, drop_partners)
        assert outcome == (
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
    system = System(machine=Machine(phys_frames=8192))
    sim = ParkingLoop(system, parse_workload(text), Mode.MULTIVERSE)
    assert not sim.run().failed
    idle = len(sim.steps) - len(sim.progress)
    assert idle < 0.01 * len(sim.steps), (idle, len(sim.steps))


def round_loop_visits(sim) -> tuple[int, int]:
    """Run sim with its round loop's lines counted: the contexts it visits,
    and how many of those it skips as parked."""
    source, first = inspect.getsourcelines(Simulator.step)
    at = next(i for i, line in enumerate(source) if line.strip().startswith("if ctx.parked:"))
    assert source[at + 1].strip() == "continue"
    test = first + at
    code, lines = Simulator.step.__code__, Counter()

    def count_lines(frame, event, arg):
        if event == "line":
            lines[frame.f_lineno] += 1
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code is code else None)
    try:
        assert not sim.run().failed
    finally:
        sys.settrace(previous)
    return lines[test], lines[test + 1]


def test_hot_local_round_loop_rarely_visits_parked_contexts():
    """Rounds in which nothing parks, wakes or spawns step the run list, so
    under 5% of the round loop's visits on the bench's hot_local at seed 1
    find a parked context: 212 of 35,080, where scanning every context in
    every round made 38,994 of 73,862 (53%)."""
    workload = load_bench_workloads()["hot_local"](1)
    frames = workload.phys_frames or Machine().phys_frames
    system = System(machine=Machine(phys_frames=frames))
    sim = Simulator(system, parse_workload(workload.text), Mode.MULTIVERSE)
    visits, parked = round_loop_visits(sim)
    assert parked < 0.05 * visits, (parked, visits)
