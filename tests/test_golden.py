"""Golden event logs: the model's output may not drift unnoticed.

Every workload in ``tests/golden/workloads`` runs under every mode.  The
SHA-256 of the rendered log, the total cycles and the failed flag must
equal the record in ``tests/golden/golden.json``; a workload that raises
must raise the recorded error class.

``tests/golden/generated.json`` widens the check to a committed corpus of
generated workloads: 200 draws of `test_generated.workloads` and 50 of
`test_generated.shared_partner`, each with its text, its frame count and,
per mode, the log's SHA-256, the total cycles and the failure reason, or
the error class and message.  Only a change that means to change the
model regenerates the records of both files, and says so:

    PYTHONPATH=src python3 tests/test_golden.py --regenerate

`--draw` first draws the corpus's texts again, derandomized.

Over both sets, in both modes, every page table a run's upper-level
entries point at is built exactly once or still deferred.

``tests/golden/cli.json`` records what the command line prints: the
stdout SHA-256 and the exit code of `hrtsim run` on every golden workload
in both modes, with and without `--metrics`, of `hrtsim compare` on each,
and of `hrtsim replay` on the bundled profiles.  `--regenerate` rewrites
it with the other two.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from hrtsim.cli import main
from hrtsim.errors import SimError
from hrtsim.machine import Machine
from hrtsim.sim import Mode, Simulator, System, parse_workload, run

from pagewalk import upper_entries

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDS = GOLDEN / "golden.json"
GENERATED = GOLDEN / "generated.json"
CLI = GOLDEN / "cli.json"
PROFILES = resources.files("hrtsim").joinpath("data/racket_profiles.txt")  # the bundled profiles
DRAWS = {"workloads": 200, "shared_partner": 50}  # strategy -> texts in the corpus
# Machine size per workload; everything else runs on the 512-frame test machine.
PHYS_FRAMES = {
    "bench_fwd_cold": 8192,
    "bench_hot_local": 8192,
    "bench_boot_large": 32768,
    "bench_compare_cold": 4096,
    "higher_half_beyond_map": 4096,
}


def observe(name: str, mode: Mode) -> dict:
    text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
    machine = Machine(phys_frames=PHYS_FRAMES.get(name, 512))
    try:
        report = run(machine, text, mode)
    except SimError as exc:
        return {"raises": type(exc).__name__}
    return {
        "sha256": hashlib.sha256(report.log_text.encode()).hexdigest(),
        "total_cycles": report.total_cycles,
        "failed": report.failed,
    }


def _cases():
    records = json.loads(RECORDS.read_text())
    return [
        pytest.param(name, mode, expected, id=f"{name}-{mode}")
        for name, by_mode in sorted(records.items())
        for mode, expected in by_mode.items()
    ]


def test_every_workload_has_records():
    names = {p.stem for p in (GOLDEN / "workloads").glob("*.txt")}
    records = json.loads(RECORDS.read_text())
    assert names == set(records)
    modes = {m.value for m in Mode}
    assert all(set(by_mode) == modes for by_mode in records.values())


def test_no_two_modes_alias():
    """Each pair of modes differs on some golden workload: a mode that runs
    another's code path only doubles the runs and the records."""
    records = json.loads(RECORDS.read_text())
    for a, b in itertools.combinations(Mode, 2):
        assert any(by_mode[a.value] != by_mode[b.value] for by_mode in records.values()), (a, b)


@pytest.mark.parametrize("name, mode, expected", _cases())
def test_golden_log(name, mode, expected):
    assert observe(name, Mode(mode)) == expected, f"workload {name!r} in mode {mode!r}"


def text_syscall_table(log_text: str) -> dict[str, tuple[int, int]]:
    """name -> (calls, cycles) over the rendered Syscall lines: the parse
    compare() did before reports carried the table, kept as its oracle."""
    stats: dict[str, tuple[int, int]] = {}
    for line in log_text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split())
        if fields.get("kind") != "Syscall":
            continue
        name = fields["detail"].split("(", 1)[0]
        if name.startswith("sys:"):
            name = name[4:]
        count, total = stats.get(name, (0, 0))
        stats[name] = (count + 1, total + int(fields["cost"]))
    return stats


@pytest.mark.parametrize(
    "name, mode, expected", [p for p in _cases() if "raises" not in p.values[2]]
)
def test_syscall_table_matches_log_text(name, mode, expected):
    """The report's syscall table, and its total cycles, are what the
    rendered log says: every charged cycle has its log entry."""
    text = (GOLDEN / "workloads" / f"{name}.txt").read_text()
    report = run(Machine(phys_frames=PHYS_FRAMES.get(name, 512)), text, Mode(mode))
    assert report.syscalls == text_syscall_table(report.log_text)
    lines = report.log_text.splitlines()
    assert sum(int(line.rsplit(" cost=", 1)[1]) for line in lines) == report.total_cycles


def observe_generated(text: str, frames: int, mode: Mode) -> dict:
    try:
        report = run(Machine(phys_frames=frames), text, mode)
    except SimError as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "sha256": hashlib.sha256(report.log_text.encode()).hexdigest(),
        "total_cycles": report.total_cycles,
        "fail_reason": report.fail_reason,
    }


def test_generated_corpus_is_whole():
    corpus = json.loads(GENERATED.read_text())
    assert {s: sum(r["strategy"] == s for r in corpus) for s in DRAWS} == DRAWS
    assert len({r["text"] for r in corpus}) == len(corpus)


@pytest.mark.parametrize("strategy", sorted(DRAWS))
def test_generated_logs(strategy):
    """Every generated record, in every mode, as committed; a mismatch
    names the record's index in the corpus."""
    corpus = json.loads(GENERATED.read_text())
    changed = [
        (i, mode.value)
        for i, record in enumerate(corpus)
        if record["strategy"] == strategy
        for mode in Mode
        if observe_generated(record["text"], record["frames"], mode) != record[mode.value]
    ]
    assert changed == []


def assert_tables_built_or_deferred(text: str, frames: int, mode: Mode) -> None:
    """After the run, every frame that a present root, level-3 or level-2
    entry points at is a key of exactly one of the table store and its
    `deferred` records."""
    system = System(machine=Machine(phys_frames=frames))
    try:
        Simulator(system, parse_workload(text), mode).run()
    except SimError:
        pass
    store = system.machine.table_store
    for space in filter(None, (system.ros.proc.space, system.hrt.space)):
        for path, entry in upper_entries(space).items():
            assert (entry >> 12 in store) != (entry >> 12 in store.deferred), (mode, path)


@pytest.mark.parametrize("source", ["golden", *sorted(DRAWS)])
def test_each_table_built_or_deferred(source):
    if source == "golden":
        paths = sorted((GOLDEN / "workloads").glob("*.txt"))
        cases = [(path.read_text(), PHYS_FRAMES.get(path.stem, 512)) for path in paths]
    else:
        corpus = json.loads(GENERATED.read_text())
        cases = [(r["text"], r["frames"]) for r in corpus if r["strategy"] == source]
    for text, frames in cases:
        for mode in Mode:
            assert_tables_built_or_deferred(text, frames, mode)


def cli_commands(name: str) -> list[list[str]]:
    """The recorded command lines of one golden workload, or of "replay"
    (the bundled profiles); an input is named by its file name."""
    if name == "replay":
        return [["replay", "--profiles", PROFILES.name]]
    path = f"{name}.txt"
    runs = [["run", path, "--mode", mode.value] for mode in Mode]
    return [*runs, *(argv + ["--metrics"] for argv in runs), ["compare", path]]


def observe_cli(argv: list[str]) -> dict:
    """stdout's SHA-256 and the exit code of `hrtsim` on argv, with each
    input file, named by its file name, read from `tests/golden/workloads`
    or, for the bundled profiles, from the package."""
    def path(arg: str) -> str:
        if arg == PROFILES.name:
            return str(PROFILES)
        return str(GOLDEN / "workloads" / arg) if arg.endswith(".txt") else arg

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([path(arg) for arg in argv])
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


def cli_names() -> list[str]:
    return sorted(p.stem for p in (GOLDEN / "workloads").glob("*.txt")) + ["replay"]


def test_cli_records_are_whole():
    assert set(json.loads(CLI.read_text())) == {
        " ".join(argv) for name in cli_names() for argv in cli_commands(name)
    }


@pytest.mark.parametrize("name", cli_names())
def test_cli_output(name):
    records = json.loads(CLI.read_text())
    for argv in cli_commands(name):
        assert observe_cli(argv) == records[" ".join(argv)], argv


def draw_texts(strategy: str, count: int) -> list[tuple[str, int]]:
    """The first `count` distinct (text, frames) draws of a strategy of
    `test_generated`, derandomized."""
    from hypothesis import HealthCheck, Phase, given, settings

    import test_generated

    draws: dict[str, int] = {}

    @settings(
        max_examples=4 * count, deadline=None, derandomize=True, database=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(getattr(test_generated, strategy)())
    def collect(generated):
        if len(draws) < count:
            draws.setdefault(*generated)

    collect()
    assert len(draws) == count, (strategy, len(draws))
    return list(draws.items())


def regenerate(draw: bool) -> None:
    records = {}
    for path in sorted((GOLDEN / "workloads").glob("*.txt")):
        records[path.stem] = {mode.value: observe(path.stem, mode) for mode in Mode}
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    if draw:
        corpus = [
            {"strategy": strategy, "text": text, "frames": frames}
            for strategy, count in DRAWS.items()
            for text, frames in draw_texts(strategy, count)
        ]
    else:
        corpus = json.loads(GENERATED.read_text())
    for record in corpus:
        for mode in Mode:
            record[mode.value] = observe_generated(record["text"], record["frames"], mode)
    GENERATED.write_text(json.dumps(corpus, indent=1) + "\n")
    cli = {" ".join(argv): observe_cli(argv) for name in cli_names() for argv in cli_commands(name)}
    CLI.write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--regenerate"], ["--regenerate", "--draw"]):
        raise SystemExit("usage: test_golden.py --regenerate [--draw]")
    regenerate(draw="--draw" in sys.argv)
