"""Cold phase times, self time per module, and the timed phase's memory
peak of one benchmark workload, in one source tree.

    python tools/layers.py --tree DIR --workload boot_large --seed 1 [--runs 200]

The simulator is imported from DIR/src and the workload text generated by
DIR/perfbench/workloads.py, so two checkouts can be compared phase by
phase.  Each run goes the way `perfbench/run.py` times one: parse, then
`Simulator.setup` and `execute` in multiverse on the workload's machine;
a `compare` workload runs `compare(None, ...)` on its parsed text, so
both modes, each on the default machine, and the tabulation.  The JSON
object printed on standard output holds:

- `phases_us`: per phase, the median and [q1, q3] over `--runs` runs, in
  host microseconds, raw.  Each phase is timed on its own, right after
  `gc.collect()`, as `run.py` starts its timed parse:
  - `parse`: `parse_workload`;
  - `image`: building the kernel image in set-up (`sim.kernel_image`;
    in a tree before it, `sim.build_fat_binary`, which also encodes the
    fat binary);
  - `decode`: `toolchain.parse_fat_binary`, in a tree whose set-up
    decodes the fat binary (absent otherwise);
  - `install_boot`: `HrtKernel.install_image` and `HrtKernel.boot`;
  - `merge`: the merge request's hypercall;
  - `run`: `Simulator.execute`, the report and the rendered log included
    (of both modes, for a `compare` workload).
- `self_s`: seconds per run under `cProfile`, by module (`hrtsim.*`,
  or `other`); the time of a built-in function goes to the modules that
  called it, in proportion.
- `timed_peak_mb`: the `tracemalloc` peak, in MiB, of parse, set-up and
  run alone, with no output check after them.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from ab import spread  # this directory's A/B tool: median and [q1, q3]

PHASES = ("parse", "image", "decode", "install_boot", "merge", "run")


def load_tree(tree: Path):
    """hrtsim from tree/src, and tree's workload generators."""
    src = tree / "src"
    sys.path.insert(0, str(src))
    import hrtsim

    if Path(hrtsim.__file__).resolve().parent != (src / "hrtsim").resolve():
        raise SystemExit(f"error: imported hrtsim from {hrtsim.__file__}, not {src}")
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    return hrtsim, workloads


class Phases:
    """Times each call of the wrapped functions after a `gc.collect()`,
    summed per phase for the current run."""

    def __init__(self):
        self.current: dict[str, float] = defaultdict(float)
        self.patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, phase: str, when=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        current, clock = self.current, time.perf_counter

        def timed(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            gc.collect()
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                current[phase] += clock() - start

        self.patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def one_run(h, workload, parse=None):
    """parse, set-up and run, as `perfbench/run.py` times them: the
    multiverse report, or a `compare` workload's `Comparison`."""
    program = (parse or h.parse_workload)(workload.text)
    if workload.compare:
        return h.compare(None, program)
    system = h.System(machine=h.Machine(phys_frames=workload.phys_frames))
    sim = h.sim.Simulator(system, program, h.Mode.MULTIVERSE)
    sim.setup()
    return sim.execute()


def time_phases(h, workload, runs: int) -> dict:
    phases = Phases()
    merge_kind = h.channel.MERGE_REQUEST
    phases.wrap(h.sim, "kernel_image", "image")
    phases.wrap(h.sim, "build_fat_binary", "image")
    phases.wrap(h.toolchain, "parse_fat_binary", "decode")
    phases.wrap(h.hrt.HrtKernel, "install_image", "install_boot")
    phases.wrap(h.hrt.HrtKernel, "boot", "install_boot")
    phases.wrap(h.channel.EventChannel, "hypercall", "merge", lambda args: args[2] == merge_kind)
    phases.wrap(h.sim.Simulator, "execute", "run")
    samples: dict[str, list[float]] = defaultdict(list)
    parse = h.parse_workload

    def timed_parse(text):
        gc.collect()
        start = time.perf_counter()
        program = parse(text)
        phases.current["parse"] += time.perf_counter() - start
        return program

    try:
        for _ in range(runs):
            phases.current.clear()
            one_run(h, workload, timed_parse)
            for phase, seconds in phases.current.items():
                samples[phase].append(seconds * 1e6)
    finally:
        phases.restore()
    return {phase: spread(samples[phase]) for phase in PHASES if phase in samples}


def self_time_by_module(h, workload, runs: int) -> dict:
    """cProfile self time per run, by module; a built-in's time goes to
    its callers' modules."""
    src = Path(h.__file__).resolve().parent

    def module_of(filename: str) -> str:
        path = Path(filename)
        return f"hrtsim.{path.stem}" if path.parent.resolve() == src else "other"

    profile = cProfile.Profile()
    profile.enable()
    for _ in range(runs):
        one_run(h, workload)
    profile.disable()
    totals: dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, own, _, callers) in pstats.Stats(profile).stats.items():
        if filename != "~":
            totals[module_of(filename)] += own
            continue
        for (caller_file, _, _), (_, _, from_caller, _) in callers.items():
            totals[module_of(caller_file) if caller_file != "~" else "other"] += from_caller
    return {module: totals[module] / runs for module in sorted(totals)}


def timed_peak_mb(h, workload) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        one_run(h, workload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True, help="checkout to measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=200, help="timed runs (default 200)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    h, workloads = load_tree(args.tree.resolve())
    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.GENERATORS[args.workload](args.seed)
    one_run(h, workload)  # imports done and caches filled before any timing
    result = {
        "tree": str(args.tree),
        "workload": args.workload,
        "seed": args.seed,
        "runs": args.runs,
        "phases_us": time_phases(h, workload, args.runs),
        "self_s": self_time_by_module(h, workload, min(args.runs, 20)),
        "timed_peak_mb": timed_peak_mb(h, workload),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
