"""Command-line entry point: run, compare, replay.

Exit codes: 0 success, 2 an input file that cannot be read or parsed,
or a `--log` file that cannot be opened for writing, 3 deadlock or
workload failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .costs import CostModel, load_cost_model
from .errors import ParseError, SimError
from .sim import Mode, compare, load_profiles, parse_workload, replay_benchmark, run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FAILURE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrtsim", description="Hybrid-runtime split-execution simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload under one mode")
    p_run.add_argument("workload")
    p_run.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.MULTIVERSE.value
    )
    p_run.add_argument("--cost", help="cost model file")
    p_run.add_argument("--log", help="write the event log to this file")
    p_run.add_argument(
        "--metrics", action="store_true", help="emit machine-readable metric lines"
    )

    p_cmp = sub.add_parser("compare", help="run virtual vs multiverse and diff")
    p_cmp.add_argument("workload")
    p_cmp.add_argument("--cost")

    p_replay = sub.add_parser("replay", help="overhead arithmetic on benchmark profiles")
    p_replay.add_argument("--profiles", required=True)
    p_replay.add_argument("--cost")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # All files are opened first, so that only opening them is caught as
    # OSError, and a log that cannot be written stops the run before it starts.
    try:
        source = Path(args.profiles if args.command == "replay" else args.workload).read_text()
        cost_text = None if args.cost is None else Path(args.cost).read_text()
        log_file = open(args.log, "w") if args.command == "run" and args.log else None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cost = CostModel() if cost_text is None else load_cost_model(cost_text)
        if args.command == "run":
            workload = parse_workload(source)
            report = run(None, workload, Mode(args.mode), cost)
            if log_file is not None:
                log_file.write(report.log_text)
            print(report.render())
            if args.metrics:
                print("\n".join(report.metrics_lines()))
            return EXIT_FAILURE if report.failed else EXIT_OK
        if args.command == "compare":
            workload = parse_workload(source)
            result = compare(None, workload, cost)
            print(result.render())
            failed = result.virtual.failed or result.multiverse.failed
            return EXIT_FAILURE if failed else EXIT_OK
        if args.command == "replay":
            profiles = load_profiles(source)
            for profile in profiles:
                print(replay_benchmark(profile, cost).render())
            return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        if log_file is not None:
            log_file.close()
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
