"""Fixed calibration kernel that measures how fast the host runs Python now.

The host this benchmark was built on is shared: its speed drifted by up
to 1.9x within minutes, while the simulator's own work stayed the same.
The benchmark therefore times this kernel right after every simulator
run and scales that run's times by NOMINAL_S / kernel time.  The result
is host seconds at a fixed nominal speed, so a slow or busy host moves
both the simulator and the kernel, and the reported time stays put.

The kernel imitates the simulator's mix of interpreter work: small
dataclass objects, dict lookups, list queues and f-strings, plus a
four-level radix table walk like a page-table walk.  It uses no hrtsim
code, so a change to the simulator cannot move it.  Never change it: a
change here rescales every time the benchmark reports.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# Kernel seconds at nominal speed: a round figure near the kernel's median
# on the host the benchmark was built on (2 shared vCPUs, Python 3.11.7),
# which ranged over 0.045-0.075 s as the host's load changed.
NOMINAL_S = 0.05


@dataclass
class _Node:
    key: int
    value: int


@dataclass(frozen=True)
class _Entry:
    writable: bool
    target: int


def _objects(n: int) -> int:
    table: dict[int, _Node] = {}
    queue: list[_Node] = []
    log: list[str] = []
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, i)
        else:
            node.value += i
        queue.append(node)
        if len(queue) > 16:
            old = queue.pop(0)
            log.append(f"k={old.key} v={old.value}")
        if node.value % 3 == 0:
            log.append(str(i))
    return len(log) + len(table)


def _radix(pages: int, walks: int) -> int:
    tables: dict[int, list] = {0: [None] * 512}

    def indices(page: int) -> tuple[int, int, int, int]:
        addr = (page * 0x9E3779B1 & 0xFFFFFFF) << 12
        return (addr >> 39) & 511, (addr >> 30) & 511, (addr >> 21) & 511, (addr >> 12) & 511

    for page in range(pages):
        *upper, leaf = indices(page)
        table = tables[0]
        for idx in upper:
            entry = table[idx]
            if entry is None:
                entry = table[idx] = _Entry(True, len(tables))
                tables[entry.target] = [None] * 512
            table = tables[entry.target]
        table[leaf] = _Entry(page % 2 == 0, page)
    hits = 0
    faults: list[str] = []
    for walk in range(walks):
        page = (walk * 7919) % (pages * 2)
        *upper, leaf = indices(page)
        table = tables[0]
        for idx in upper:
            entry = table[idx]
            if entry is None:
                break
            table = tables[entry.target]
        else:
            if table[leaf] is not None:
                hits += 1
                continue
        faults.append(f"fault page={page}")
    return hits + len(faults)


def measure() -> float:
    """Seconds the kernel takes on the host right now."""
    gc.collect()
    t0 = perf_counter()
    _objects(18000)
    _radix(1500, 3000)
    return perf_counter() - t0
