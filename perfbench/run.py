"""Seeded benchmark of the simulator's host time.

Run from the repository root:

    python3 perfbench/run.py --workload fwd_cold --seed 1 --seconds 20 --trace 0

The seed generates the workload text (see workloads.py).  The command
runs it through the public API (`parse_workload`, `System`,
`Simulator.setup`/`execute`, `compare`) again and again for `--seconds`
seconds, checks every run's output, and prints the medians.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates untraced runs with runs traced per module
(tracing.py) and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 only if every check passed.

End-to-end times are host seconds scaled to a nominal host speed: each
run is followed by the fixed kernel of calibrate.py, and its times are
multiplied by NOMINAL_S / kernel seconds.  The raw host seconds are
printed as well.  Per-layer times are raw host seconds.  Cycles are
simulated time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_SAMPLES = 3


def import_simulator():
    """Import hrtsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "hrtsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources at {SRC / 'hrtsim'}")
    sys.path.insert(0, str(SRC))
    import hrtsim

    if Path(hrtsim.__file__).resolve().parent != SRC / "hrtsim":
        raise SystemExit(f"error: imported hrtsim from {hrtsim.__file__}, not {SRC}")
    return hrtsim


@dataclass
class Sample:
    """One checked run of a workload; times in host seconds."""

    setup_s: float = 0.0
    run_s: float = 0.0
    total_s: float = 0.0
    calibration_s: float = 0.0
    events: int = 0
    total_cycles: int = 0
    errors: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, hrtsim, workload):
        self.h = hrtsim
        self.w = workload
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0

    def run_once(self) -> Sample:
        """Run the workload once, timed, then check its output.

        A run fails if it raises, a report is marked failed, a log's cost
        sum differs from its total cycles, or its log digest differs from
        the first run of this workload and seed.
        """
        gc.collect()
        self.attempted += 1
        sample = Sample()
        try:
            self._check(sample, self._timed(sample))
        except Exception:
            traceback.print_exc()
            sample.errors.append("raised")
        if sample.errors:
            self.failed += 1
            print(f"run {self.attempted} failed: {', '.join(sample.errors)}", file=sys.stderr)
        return sample

    def _timed(self, sample: Sample) -> list:
        h, w = self.h, self.w
        clock = time.perf_counter
        if w.compare:
            # Split setup out at the Simulator.setup boundary: two calls per compare().
            simulator = h.sim.Simulator
            original = simulator.__dict__["setup"]

            def timed_setup(sim_self):
                t = clock()
                try:
                    original(sim_self)
                finally:
                    sample.setup_s += clock() - t

            simulator.setup = timed_setup
            try:
                t0 = clock()
                result = h.compare(None, w.text)
                t1 = clock()
            finally:
                simulator.setup = original
            sample.total_s = t1 - t0
            sample.run_s = sample.total_s - sample.setup_s
            return [result.virtual, result.multiverse]
        t0 = clock()
        program = h.parse_workload(w.text)
        t1 = clock()
        system = h.System(machine=h.Machine(phys_frames=w.phys_frames))
        sim = h.sim.Simulator(system, program, h.Mode.MULTIVERSE)
        sim.setup()
        t2 = clock()
        report = sim.execute()
        t3 = clock()
        sample.setup_s = t2 - t1
        sample.run_s = t3 - t2
        sample.total_s = t3 - t0
        return [report]

    def _check(self, sample: Sample, reports: list) -> None:
        digest = hashlib.sha256()
        for report in reports:
            if report.failed:
                sample.errors.append(f"{report.mode} report failed: {report.fail_reason}")
            lines = report.log_text.splitlines()
            cost_sum = sum(int(line.rsplit("cost=", 1)[1]) for line in lines)
            if cost_sum != report.total_cycles:
                sample.errors.append(
                    f"{report.mode} log costs {cost_sum} != total_cycles {report.total_cycles}"
                )
            sample.events += len(lines)
            sample.total_cycles += report.total_cycles
            digest.update(report.log_text.encode())
        hexdigest = digest.hexdigest()
        if self.reference is None:
            self.reference = hexdigest
        elif hexdigest != self.reference:
            sample.errors.append(f"log digest {hexdigest} != {self.reference}")

    def peak_mem_mb(self) -> float:
        """tracemalloc peak of one more run, untimed."""
        tracemalloc.start()
        try:
            self.run_once()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


def check_generator(hrtsim, name: str, seed: int) -> list[str]:
    """Same seed, same bytes; another seed, other text of the same shape."""
    gen = workloads.GENERATORS[name]
    first, again, other = gen(seed), gen(seed), gen(seed + 1)
    problems = []
    if first.text != again.text:
        problems.append("generator gave two texts for one seed")
    if other.text == first.text:
        problems.append(f"seeds {seed} and {seed + 1} gave the same text")
    shape = workloads.shape
    if shape(hrtsim.parse_workload(other.text)) != shape(hrtsim.parse_workload(first.text)):
        problems.append(f"seeds {seed} and {seed + 1} gave different shapes")
    return problems


def measure(bench: Bench, seconds: float) -> list[Sample]:
    """Timed runs, each followed at once by the calibration kernel."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        sample = bench.run_once()
        sample.calibration_s = calibrate.measure()
        samples.append(sample)
    return samples


def end_to_end(samples: list[Sample], peak_mem_mb: float) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics, at nominal host speed and raw.

    Each run's times are scaled by NOMINAL_S over the calibration time
    measured right after it (see calibrate.py).
    """
    good = [s for s in samples if not s.errors] or samples

    def medians(scale) -> dict:
        run_s = [s.run_s * scale(s) for s in good]
        return {
            "setup_s": median(s.setup_s * scale(s) for s in good),
            "run_s": median(run_s),
            "total_s": median(s.total_s * scale(s) for s in good),
            "events_per_s": median(s.events / r if r else 0.0 for s, r in zip(good, run_s)),
        }

    nominal = medians(lambda s: calibrate.NOMINAL_S / s.calibration_s)
    nominal["peak_mem_mb"] = peak_mem_mb
    raw = medians(lambda s: 1.0)
    raw["calibration_s"] = median(s.calibration_s for s in good)
    return nominal, raw


def measure_traced(bench: Bench, tracer, seconds: float, spans_path: Path):
    """Alternate untraced and traced runs; medians of each, plus overhead."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
        plain.append(bench.run_once())
        tracer.reset(len(traced))
        tracer.install()
        try:
            sample = bench.run_once()
        finally:
            tracer.restore()
        traced.append(sample)
        metrics = tracer.layer_metrics()
        metrics["trace.run_s"] = sample.run_s
        layers.append(metrics)
        if len(traced) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_path)
    result = {name: median(m[name] for m in layers) for name in layers[0]}
    result["trace.overhead_ratio"] = median(s.run_s for s in traced) / median(
        s.run_s for s in plain
    )
    result["trace.traced_runs"] = len(traced)
    result["trace.untraced_runs"] = len(plain)
    return plain + traced, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    hrtsim = import_simulator()

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.GENERATORS)}")
    problems = check_generator(hrtsim, args.workload, args.seed)
    for problem in problems:
        print(f"generator check failed: {problem}", file=sys.stderr)
    bench = Bench(hrtsim, workloads.GENERATORS[args.workload](args.seed))
    bench.run_once()  # warm-up; its digest is the reference for every later run

    if args.trace:
        tracer = tracing.Tracer(hrtsim)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        samples, values = measure_traced(bench, tracer, args.seconds, spans)
        values["sim.total_cycles"] = samples[-1].total_cycles
        values["sim.events"] = samples[-1].events
        metric_specs = spec["per_layer"]
    else:
        samples = measure(bench, args.seconds)
        values, raw = end_to_end(samples, bench.peak_mem_mb())
        metric_specs = spec["end_to_end"]
    last = samples[-1]
    error_rate = bench.failed / bench.attempted

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"digest {bench.reference} sim.total_cycles {last.total_cycles} sim.events {last.events}")
    print(f"samples {len(samples)} (medians below); attempted {bench.attempted} failed {bench.failed}")
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    if not args.trace:
        print(f"error_rate {error_rate} ratio ({bench.failed} of {bench.attempted})")
        print("host time as measured, before scaling to nominal speed:")
        for name, value in raw.items():
            print(f"  raw {name} {value}")
    correct = not problems and bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
