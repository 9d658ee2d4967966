"""A/B benchmark of two source trees: alternating pairs of
`perfbench/run.py` runs, written to one `BENCH_*.json` file.

    python tools/ab.py --before DIR --after DIR --pairs 10 --seconds 2 \\
        --seeds 1,4242 --out BENCH_name.json

Each tree is a whole checkout, for example `git archive <commit> | tar
-x -C DIR`.  Every run is a subprocess of that tree's own, unchanged
`perfbench/run.py --trace 0`, which imports the simulator from that
tree's `src`; this script imports nothing from either tree.  For each
workload and seed it runs `--pairs` pairs, and the tree that runs first
alternates from pair to pair.

The file records, for each workload and seed:

- `outputs`: per tree, the log digest, `sim.total_cycles` and
  `sim.events` that `run.py` printed, and whether every run of that tree
  agreed and was correct; `equal` says whether the two trees agree on
  each of the three;
- `metrics`: for each end-to-end metric of the after tree's
  `BENCHMARK.json`, each tree's median and [q1, q3] over its runs, the
  ratio of the after median to the before median, the pairs the after
  tree won (ties count for neither), `within_bound` (the after median is
  worse by no more than the metric's bound), and `gain` (the after tree
  won at least nine pairs in ten and its median is better by more than
  the before tree's q3 - q1, and by more than a tenth of the bound, so a
  metric that reads the same on every run claims no gain from a
  difference in its last digits).

Exit status 0 if every run was correct and every equality holds, else 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("before", "after")
OUTPUTS = ("digest", "total_cycles", "events")  # what both trees must agree on


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in tree: its outputs, whether
    it was correct, and its end-to-end metric values."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
        words = next(line for line in lines if line.startswith("digest ")).split()
    except (IndexError, ValueError, StopIteration):
        raise SystemExit(
            f"error: {tree}: run.py --workload {workload} --seed {seed} printed no result\n"
            + result.stderr
        ) from None
    outputs = dict(zip(words[0::2], words[1::2]))  # digest, sim.total_cycles, sim.events
    return {
        "digest": outputs["digest"],
        "total_cycles": int(outputs["sim.total_cycles"]),
        "events": int(outputs["sim.events"]),
        "correct": summary["correct"] and result.returncode == 0,
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and [q1, q3] of one tree's values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3}


def compare_metric(spec: dict, before: list[float], after: list[float]) -> dict:
    """Each tree's spread, and how the after tree fares against the before."""
    lower = spec["better"] == "lower"
    wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
    entry = {"better": spec["better"], "bound": spec["bound"]}
    entry["before"], entry["after"] = spread(before), spread(after)
    b, a = entry["before"]["median"], entry["after"]["median"]
    entry["ratio"] = a / b if b else None
    entry["wins"] = wins
    worse_by = (a - b) if lower else (b - a)
    entry["within_bound"] = worse_by <= spec["bound"] * abs(b)
    iqr = entry["before"]["q3"] - entry["before"]["q1"]
    floor = max(iqr, spec["bound"] / 10 * abs(b))
    entry["gain"] = wins * 10 >= 9 * len(before) and -worse_by > floor
    return entry


def ab_case(trees: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float,
            specs: list[dict]) -> dict:
    """`pairs` alternating pairs of one workload and seed."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed, seconds))
    outputs = {}
    for side in SIDES:
        first = runs[side][0]
        outputs[side] = {key: first[key] for key in OUTPUTS}
        outputs[side]["repeats"] = all(r[key] == first[key] for r in runs[side] for key in OUTPUTS)
        outputs[side]["correct"] = all(r["correct"] for r in runs[side])
    outputs["equal"] = {key: outputs["before"][key] == outputs["after"][key] for key in OUTPUTS}
    metrics = {
        spec["name"]: compare_metric(
            spec,
            [r["metrics"][spec["name"]] for r in runs["before"]],
            [r["metrics"][spec["name"]] for r in runs["after"]],
        )
        for spec in specs
    }
    return {"outputs": outputs, "metrics": metrics}


def case_ok(case: dict) -> bool:
    outputs = case["outputs"]
    return all(outputs["equal"].values()) and all(
        outputs[side]["repeats"] and outputs[side]["correct"] for side in SIDES
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--before-name", help="label of the before tree (default: its dir name)")
    parser.add_argument("--after-name", help="label of the after tree (default: its dir name)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run.py --seconds")
    parser.add_argument("--seeds", default="1,4242", help="comma-separated workload seeds")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {side: getattr(args, side).resolve() for side in SIDES}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {tree}")
    spec = json.loads((trees["after"] / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [int(seed) for seed in args.seeds.split(",")]

    workloads: dict[str, dict] = {}
    for name in names:
        workloads[name] = {}
        for seed in seeds:
            case = ab_case(trees, name, seed, args.pairs, args.seconds, spec["end_to_end"])
            workloads[name][str(seed)] = case
            ratios = " ".join(
                f"{metric}={m['ratio']:.3f}({m['wins']}/{args.pairs})"
                for metric, m in case["metrics"].items() if m["ratio"] is not None
            )
            print(f"{name} seed {seed}: {'ok' if case_ok(case) else 'MISMATCH'} {ratios}")
    bench = {
        "before": args.before_name or trees["before"].name,
        "after": args.after_name or trees["after"].name,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if all(case_ok(c) for w in workloads.values() for c in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
