"""Seeded workload generator for the benchmark.

Every workload is a pure function of its seed: the seed picks addresses,
orders, access kinds, region sizes and cycle counts, never how many
threads or actions there are.  Two seeds therefore give different text
with the same shape, so run time differs between seeds only by noise.
The simulator sees nothing but the generated text.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

PAGE = 4096
# The first mmap of a process lands here (hrtsim.ros.MMAP_BASE); hot_local's
# kernel-mode threads touch main's shared region by this literal address.
MMAP_BASE = 0x0000_1000_0000_0000

HRT_THREADS = 8
FUNCS = [
    "func fast_sum cycles=500 returns=7",
    "override legacy_sum -> fast_sum args(0:0,1:1)",
]


@dataclass(frozen=True)
class Workload:
    """One generated input: workload text plus the machine it runs on."""

    text: str
    phys_frames: int | None  # None: the simulator's default machine
    compare: bool = False


def _main_body(prelude: list[str], tail: list[str]) -> list[str]:
    lines = ["thread main ros", *prelude]
    lines += [f"  spawn w{i}" for i in range(HRT_THREADS)]
    lines += tail
    lines += [f"  join w{i}" for i in range(HRT_THREADS)]
    lines += ["  exit", "end"]
    return lines


def _forwarding_program(rng: random.Random, live_regions: int, rounds: int) -> str:
    """Main maps many live one-page regions, then eight kernel-mode threads
    loop over mmap, first touch, re-touch, write, override, compute, munmap.
    Each thread cycles through four seeded region sizes of 1-4 pages."""
    prelude = [f"  mmap {PAGE}" for _ in range(live_regions)]
    lines = [*FUNCS, *_main_body(prelude, [])]
    for i in range(HRT_THREADS):
        lines += [f"thread w{i} hrt", f"  repeat {rounds}"]
        for _ in range(4):
            length = rng.randint(1, 4) * PAGE
            lines += [
                f"    mmap {length}",
                "    touch last w",
                "    touch last r",
                f"    syscall write 1 {rng.randint(1, 512)}",
                f"    call_override legacy_sum {rng.randint(0, 99)} {rng.randint(0, 99)}",
                f"    compute {rng.randint(200, 2000)}",
                f"    munmap last {length}",
            ]
        lines += ["  end", "  exit", "end"]
    return "\n".join(lines) + "\n"


def fwd_cold(seed: int) -> Workload:
    rng = random.Random(f"fwd_cold:{seed}")
    return Workload(_forwarding_program(rng, 256, 30), 8192)


def hot_local(seed: int) -> Workload:
    """One lazily mapped 16-page shared region.  All eight kernel-mode
    threads walk it in one seeded page order, each with its own seeded
    reads and writes, so they fault on the same pages together in the cold
    start; after that every touch hits and the work stays on their side."""
    rng = random.Random(f"hot_local:{seed}")
    pages = 16
    order = list(range(pages))
    rng.shuffle(order)
    tail = ["  sync_call fast_sum"] * 64
    lines = [*FUNCS, *_main_body([f"  mmap {pages * PAGE}"], tail)]
    for i in range(HRT_THREADS):
        lines += [f"thread w{i} hrt", "  repeat 240"]
        for page in order:
            lines.append(f"    touch 0x{MMAP_BASE + page * PAGE:x} {rng.choice('rw')}")
        lines += [
            f"    call_override legacy_sum {rng.randint(0, 99)} {rng.randint(0, 99)}",
            f"    compute {rng.randint(50, 400)}",
            "  end",
            "  exit",
            "end",
        ]
    return Workload("\n".join(lines) + "\n", 8192)


def boot_large(seed: int) -> Workload:
    """A 1 GiB machine running one small kernel-mode thread: boot dominates.
    The thread's 16 rounds keep run_s near a millisecond, long enough to
    time steadily and still under 0.1% of set-up."""
    rng = random.Random(f"boot_large:{seed}")
    text = "\n".join(
        [
            "thread main ros",
            "  spawn w0",
            "  join w0",
            "  exit",
            "end",
            "thread w0 hrt",
            "  repeat 16",
            f"    compute {rng.randint(1000, 100000)}",
            f"    syscall write 1 {rng.randint(1, 4096)}",
            "  end",
            "  exit",
            "end",
        ]
    )
    return Workload(text + "\n", 256 * 1024)


def compare_cold(seed: int) -> Workload:
    """The fwd_cold shape, smaller, through compare() on the default machine,
    exactly as `hrtsim compare` runs it."""
    rng = random.Random(f"compare_cold:{seed}")
    return Workload(_forwarding_program(rng, 256, 12), None, compare=True)


GENERATORS = {
    "fwd_cold": fwd_cold,
    "hot_local": hot_local,
    "boot_large": boot_large,
    "compare_cold": compare_cold,
}


def shape(program) -> tuple:
    """Thread roles and per-op action counts of a parsed program."""
    roles = Counter(body.role for body in program.bodies.values())
    ops = Counter(a.op for body in program.bodies.values() for a in body.actions)
    return tuple(sorted(roles.items())), tuple(sorted(ops.items()))
