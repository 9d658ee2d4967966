import re
import sys

import pytest

from hrtsim.channel import THREAD_EXIT_SIGNAL, EventLog
from hrtsim.machine import Machine
from hrtsim.mem import HIGHER_BASE
from hrtsim.ros import RosKernel, init_runtime
from hrtsim.sim import System
from hrtsim.toolchain import AeroKernelImage


def make_image(names=("worker",), payload_size=8192) -> AeroKernelImage:
    symbols = {
        name: HIGHER_BASE + 0x0020_0000 + i * 0x40 for i, name in enumerate(sorted(names))
    }
    return AeroKernelImage(entry=sorted(names)[0], symbol_table=symbols, payload_size=payload_size)


def small_machine(**kw) -> Machine:
    kw.setdefault("phys_frames", 512)
    return Machine(**kw)


def rows(log: EventLog) -> list[tuple[int, str, int, str, int]]:
    """The log's entries as (cycle, kind, origin, detail, cost) rows: the
    log keeps them as one flat list of cells, five an entry."""
    cells = log.cells
    return list(zip(cells[0::5], cells[1::5], cells[2::5], cells[3::5], cells[4::5]))


def regions(ros: RosKernel) -> list[tuple[int, int, bool]]:
    """The process's live regions, in base order, as (base, length, writable)."""
    vm = ros.proc.vm_regions
    assert len(vm.bases) == len(vm.lengths) == len(vm)
    return list(zip(vm.bases, vm.lengths, vm))


def record_joins(ros: RosKernel) -> list[tuple[int, str, int]]:
    """Record the unblock order on one kernel instance: (cycle, label, tid)
    for each served exit signal ("exit_bit"), partner cleanup
    ("partner_exit") and resumed join ("join_resume", the target's tid)."""
    log: list[tuple[int, str, int]] = []
    serve, step, finish = ros.serve_forwarded, ros.partner_step, ros.try_finish_join

    def serve_forwarded(partner, ev):
        now = ros.log.now  # completing the event charges its cost after the bit is set
        serve(partner, ev)
        if ev.kind is THREAD_EXIT_SIGNAL:
            log.append((now, "exit_bit", partner.tid))

    def partner_step(partner):
        exited = partner.exited
        progressed = step(partner)
        if not exited and partner.exited:
            log.append((ros.log.now, "partner_exit", partner.tid))
        return progressed

    def try_finish_join(joiner):
        target = joiner.join_target
        resumed = finish(joiner)
        if resumed:
            log.append((ros.log.now, "join_resume", target))
        return resumed

    ros.serve_forwarded = serve_forwarded
    ros.partner_step = partner_step
    ros.try_finish_join = try_finish_join
    return log


@pytest.fixture
def system() -> System:
    return System(machine=small_machine())


@pytest.fixture
def booted(system) -> System:
    init_runtime(system, make_image(("worker", "helper", "leaf")))
    return system


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    match = re.match(r"test_criterion_(\d+)_(\w+)", name)
    if match:
        status = "PASS" if report.passed else "FAIL"
        number = int(match.group(1))
        title = match.group(2).replace("_", " ")
        sys.stderr.write(f"{status} criterion {number}: {title}\n")
        sys.stderr.flush()
