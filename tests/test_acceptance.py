"""End-to-end acceptance gate.

Each test covers one numbered release criterion; the conftest hook
prints a PASS/FAIL line per criterion as the suite runs.
"""

import itertools
import random

import pytest

from hrtsim import bundled_profiles_text
from hrtsim.channel import PAGE_FAULT
from hrtsim.costs import CostModel
from hrtsim.errors import FormatError, ParseError
from hrtsim.machine import CoreKind, Machine
from hrtsim.mem import (
    PAGE_SIZE,
    READ,
    FrameAllocator,
    PageTableHierarchy,
    TableStore,
    map_page,
    merge_lower_half,
    translate,
)
from hrtsim.ros import init_runtime
from hrtsim.sim import (
    Mode,
    Simulator,
    System,
    compare,
    load_profiles,
    parse_workload,
    replay_benchmark,
    run,
)
from hrtsim.toolchain import (
    AeroKernelImage,
    AppDescriptor,
    embed,
    parse_fat_binary,
    parse_override_config,
)

from conftest import make_image, record_joins, small_machine
from pagewalk import mapped_lower_pages

W_SPAWN_JOIN = """
thread main ros
  spawn worker
  join worker
  exit
end
"""

W_LAZY = W_SPAWN_JOIN + """
thread worker hrt
  mmap 16384
  touch last w
  touch last+4096 w
  touch last+8192 w
  touch last+12288 w
  exit
end
"""

W_PREFAULT = W_LAZY.replace("mmap 16384", "mmap 16384 populate")

W_MMAP_100 = W_SPAWN_JOIN + """
thread worker hrt
  repeat 100
    mmap 4096
    munmap last 4096
  end
  exit
end
"""


def fault_details(report):
    out = []
    for line in report.log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        if fields["kind"] == PAGE_FAULT:
            out.append(fields["detail"])
    return out


def test_criterion_01_latency_table():
    table = CostModel().latency_table()
    merger_cycles, merger_s = table["address_space_merger"]
    async_cycles, async_s = table["asynchronous_call"]
    assert merger_cycles == 33000 and abs(merger_s - 15e-6) / 15e-6 < 0.05
    assert async_cycles == 25000 and abs(async_s - 11e-6) / 11e-6 < 0.05
    _, diff_s = table["synchronous_call_diff_socket"]
    _, same_s = table["synchronous_call_same_socket"]
    assert f"{diff_s * 1e9:.3g}" == "482"
    assert f"{same_s * 1e9:.3g}" == "359"


def test_criterion_02_overhead_arithmetic():
    cost = CostModel()
    profiles = {p.name: p for p in load_profiles(bundled_profiles_text())}
    spectral = replay_benchmark(profiles["spectral-norm"], cost)
    assert spectral.overhead_cycles == 112_878_000
    assert abs(spectral.overhead_cycles - 112e6) / 112e6 < 0.02
    assert round(spectral.overhead_seconds * 1e3, 1) == 51.3
    nbody = replay_benchmark(profiles["n-body"], cost)
    assert nbody.overhead_cycles == 95_740_500
    assert abs(nbody.overhead_cycles - 96e6) / 96e6 < 0.02
    assert round(nbody.overhead_seconds * 1e3, 1) == 43.5
    assert 0.0005 <= spectral.relative_overhead <= 0.002
    # Linearity over all seven shipped profiles.
    for profile in profiles.values():
        report = replay_benchmark(profile, cost)
        assert report.overhead_cycles == profile.forwarded_events * cost.forward_overhead


def test_criterion_03_microbenchmark_doubling():
    cost = CostModel()
    result = compare(small_machine(), W_MMAP_100)
    rows = {row.name: row for row in result.rows}
    for name in ("mmap", "munmap"):
        row = rows[name]
        assert row.calls_virtual == row.calls_multiverse == 100
        assert row.per_call_delta == cost.forward_overhead == 1500
        assert 1.8 <= row.per_call_multiverse / row.per_call_virtual <= 2.2


def test_criterion_04_prefault_property():
    cost = CostModel()
    lazy = run(small_machine(), W_LAZY, Mode.MULTIVERSE)
    pre = run(small_machine(), W_PREFAULT, Mode.MULTIVERSE)
    assert lazy.forwarded_counts[PAGE_FAULT] == 4
    assert pre.forwarded_counts.get(PAGE_FAULT, 0) == 0
    assert pre.total_cycles < lazy.total_cycles
    # Each demand fault carries exactly the documented forwarding surcharge.
    fault_costs = [
        int(dict(f.split("=", 1) for f in line.split())["cost"])
        for line in lazy.log_text.splitlines()
        if " kind=PageFault " in f" {line} "
    ]
    surcharge = sum(c - cost.pagefault_base for c in fault_costs)
    assert surcharge == 4 * cost.forward_overhead == 6000


def test_criterion_05_merge_equivalence_randomized():
    rng = random.Random(20260823)
    for _ in range(1000):
        store = TableStore()
        ros = PageTableHierarchy(store, FrameAllocator(0, 512, "ros_visible"))
        hrt = PageTableHierarchy(store, FrameAllocator(512, 1024, "hrt_only"))
        for _ in range(rng.randrange(0, 65)):
            vaddr = rng.randrange(0, 1 << 47, PAGE_SIZE)
            map_page(ros, vaddr, rng.randrange(0, 500), writable=rng.random() < 0.5)
        merge_lower_half(hrt, ros)
        for vaddr in mapped_lower_pages(ros):
            assert translate(hrt, vaddr, READ) == translate(ros, vaddr, READ)
        once = list(hrt.root_table[:256])
        merge_lower_half(hrt, ros)
        assert list(hrt.root_table[:256]) == once


def test_criterion_06_duplicate_fault_remerge():
    addr = 0x0180_0000_0000  # a root-table slot untouched at merge time
    text = W_SPAWN_JOIN + (
        f"thread worker hrt\n  touch 0x{addr:x} w\n  exit\nend\n"
    )
    system = System(machine=small_machine())
    sim = Simulator(system, parse_workload(text), Mode.MULTIVERSE)
    sim.setup()
    # After the merge, the process gains a region under a brand-new
    # root-level entry; the runtime's copy of the root is now stale.
    system.ros.proc.vm_regions.add(addr, PAGE_SIZE, True)
    report = sim.execute()
    assert not report.failed
    assert system.hrt.remerge_count == 1
    faults = [d for d in fault_details(report) if d == f"pf:0x{addr:x}:w"]
    assert len(faults) == 1  # forwarded once, retried locally after re-merge
    remerges = [
        line for line in report.log_text.splitlines() if "detail=remerge:" in line
    ]
    assert len(remerges) == 1
    assert f"remerge:0x{addr:x}" in remerges[0]


class TestCriterion07:
    IMAGE = make_image(("worker",), payload_size=4096)

    def _fresh(self, n_partners):
        system = System(
            machine=Machine(
                cores=[CoreKind.ROS_CORE, CoreKind.HRT_CORE], phys_frames=128
            )
        )
        init_runtime(system, self.IMAGE)
        partners = [system.ros.spawn_hrt("worker") for _ in range(n_partners)]
        return system, partners

    def _drive(self, n_partners, seq):
        system, partners = self._fresh(n_partners)
        ros, hrt = system.ros, system.hrt
        join_log = record_joins(ros)
        main = ros.main
        for op, i in seq:
            p = partners[i]
            if op == "exit":
                ev = hrt.thread_exit(p.hrt_thread)
                system.channel.forward_event(ev, p.tid)
            elif op == "pstep":
                ros.partner_step(p)
            elif op == "join":
                if main.join_target is None:
                    if not p.joined:
                        ros.join(main, p.tid)
                else:
                    ros.try_finish_join(main)
            # Safety invariant, checked at every interleaving point.
            for q in partners:
                if q.exited:
                    assert q.exit_bit, "partner exited with exit_bit clear"
        for _ in range(4 * n_partners + 4):  # deterministic drain
            for q in partners:
                ros.partner_step(q)
            ros.try_finish_join(main)
            if main.join_target is None:
                for q in partners:
                    if not q.joined and main.join_target is None:
                        ros.join(main, q.tid)
        assert main.join_target is None
        for q in partners:
            assert q.joined and q.exit_bit
            labels = [label for _, label, tid in join_log if tid == q.tid]
            # Main never resumes before the exit event has been served.
            assert labels.index("exit_bit") < labels.index("join_resume")
            assert labels.index("exit_bit") < labels.index("partner_exit")

    @staticmethod
    def _interleavings(n_partners):
        ops = []
        for i in range(n_partners):
            ops += [("exit", i), ("pstep", i), ("pstep", i), ("join", i)]
        seen = set()
        for perm in itertools.permutations(ops):
            if perm in seen:
                continue
            seen.add(perm)
            join_positions = [
                perm.index(("join", i)) for i in range(n_partners)
            ]
            if join_positions == sorted(join_positions):
                yield perm

    def test_criterion_07_join_order_two_threads(self):
        count = 0
        for seq in self._interleavings(1):
            self._drive(1, seq)
            count += 1
        assert count == 12

    def test_criterion_07_join_order_three_threads(self):
        count = 0
        for seq in self._interleavings(2):
            self._drive(2, seq)
            count += 1
        assert count == 5040


def test_criterion_08_trace_congruence():
    mixed = W_SPAWN_JOIN + (
        "thread worker hrt\n"
        "  mmap 32768\n"
        "  touch last w\n"
        "  touch last+4096 r\n"
        "  touch last+16384 w\n"
        "  exit\nend\n"
    )
    for text in (W_LAZY, mixed):
        virtual = run(small_machine(), text, Mode.VIRTUAL)
        multiverse = run(small_machine(), text, Mode.MULTIVERSE)
        assert "\n".join(fault_details(virtual)) == "\n".join(fault_details(multiverse))
        assert fault_details(virtual)  # non-vacuous


def test_criterion_09_determinism():
    for text in (W_LAZY, W_MMAP_100):
        for mode in Mode:
            first = run(small_machine(), text, mode)
            second = run(small_machine(), text, mode)
            assert first.log_text == second.log_text
            assert first.metrics_lines() == second.metrics_lines()


def test_criterion_10_codec_and_config_robustness():
    from hrtsim.mem import HIGHER_BASE

    # Round-trip identity over randomized images.
    rng = random.Random(99)
    for _ in range(300):
        table = {
            f"s{i}_{rng.randrange(1 << 16):x}": HIGHER_BASE + rng.randrange(1 << 28) * 0x40
            for i in range(rng.randrange(0, 12))
        }
        image = AeroKernelImage(
            entry=next(iter(table), "start"),
            symbol_table=table,
            payload_size=rng.randrange(1, 1 << 24),
        )
        app = AppDescriptor(name=f"app{rng.randrange(1000)}", workload="w")
        blob = embed(app, image)
        parsed_app, parsed_image = parse_fat_binary(blob)
        assert (parsed_app, parsed_image) == (app, image)
        assert embed(parsed_app, parsed_image) == blob

    # Single-byte header corruption is always rejected.
    blob = embed(AppDescriptor("app"), AeroKernelImage("s", {"s": HIGHER_BASE}, 64))
    for offset in range(20):
        for delta in range(1, 256):
            corrupt = bytearray(blob)
            corrupt[offset] ^= delta
            with pytest.raises(FormatError):
                parse_fat_binary(bytes(corrupt))

    # Documented grammar accepted.
    overrides, warnings = parse_override_config(
        "# comment\n"
        "override pthread_create -> nk_thread_start args(2:0,3:1)\n"
        "override legacy_sum -> fast_sum\n"
        "override legacy_off -> fast_off off\n"
        "override noargs -> target args()\n"
    )
    assert overrides["pthread_create"].arg_mapping == ((2, 0), (3, 1))
    assert not overrides["legacy_off"].enabled
    assert warnings == []

    # Twenty malformed fixtures, each rejected with the right line number.
    malformed = [
        ("override", 1),
        ("override f", 1),
        ("override f ->", 1),
        ("override f -> ", 1),
        ("override f => g", 1),
        ("override f -> g junk", 1),
        ("override f -> g args(", 1),
        ("override f -> g args(1)", 1),
        ("override f -> g args(1:)", 1),
        ("override f -> g args(:2)", 1),
        ("override f -> g args(a:b)", 1),
        ("override f -> g args(1:2,1:2)", 1),
        ("override f -> g args(0:1,2:1)", 1),
        ("override f -> g on", 1),
        ("override f -> g off extra", 1),
        ("interpose f -> g", 1),
        ("override a -> b\noverride broken", 2),
        ("override a -> b\n\noverride c -> d args(x)", 3),
        ("# fine\noverride -> g", 2),
        ("override a -> b\noverride c -> d\noverride e -> f args(1:1,2:1)", 3),
    ]
    assert len(malformed) == 20
    for text, expected_line in malformed:
        with pytest.raises(ParseError) as info:
            parse_override_config(text)
        assert info.value.line == expected_line, text
