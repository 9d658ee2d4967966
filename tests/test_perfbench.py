"""The benchmark's tracer must keep working on the simulator it wraps.

``perfbench/tracing.py`` patches hrtsim functions and methods by name from
outside the program.  A rename in hrtsim breaks the traced benchmark, so
this test installs the tracer, runs a golden workload through ``compare``,
and checks that tracing changes nothing and is fully undone.
"""

import importlib.util
from pathlib import Path

import hrtsim
from hrtsim.machine import Machine
from hrtsim.sim import compare

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = ROOT / "tests" / "golden" / "workloads" / "bench_fwd_cold.txt"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def logs(text):
    result = compare(Machine(phys_frames=8192), text)
    return result.virtual.log_text, result.multiverse.log_text


def test_tracer_wraps_and_restores_the_simulator():
    text = WORKLOAD.read_text()
    plain = logs(text)
    tracer = load_tracing().Tracer(hrtsim)
    originals = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    assert originals
    tracer.install()
    try:
        traced = logs(text)
    finally:
        tracer.restore()
    assert traced == plain
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    metrics = tracer.layer_metrics()
    assert metrics["channel.hypercall.calls"] > 0
    assert metrics["channel.forward_event.calls"] > 0
    assert metrics["sim.step.calls"] > 0
    # A fast path that bypassed one of these bindings would zero its metric.
    for name in (
        "mem.translate.calls",
        "mem.unmap_page.calls",
        "ros.partner_step.calls",
        "ros.serve_forwarded.calls",
        "ros.demand_fault.calls",
        "ros.touch.calls",
        "mem.map_page.calls",
        "hrt.handle_page_fault.calls",
        "ros.live_regions.max",  # fed only by the sys_mmap and sys_munmap wrappers
        "channel.complete_event.calls",
    ):
        assert metrics[name] > 0, name
