"""Golden event logs: the model's output may not drift unnoticed.

Every workload in ``tests/golden/workloads`` runs under every mode.  The
SHA-256 of the rendered log, the total cycles and the failed flag must
equal the record in ``tests/golden/golden.json``; a workload that raises
must raise the recorded error class.  Only a change that means to change
the model regenerates the records, and says so:

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hrtsim.errors import SimError
from hrtsim.machine import Machine
from hrtsim.sim import Mode, run

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDS = GOLDEN / "golden.json"
# Machine size per workload; everything else runs on the 512-frame test machine.
PHYS_FRAMES = {
    "bench_fwd_cold": 8192,
    "bench_hot_local": 8192,
    "bench_boot_large": 32768,
    "bench_compare_cold": 4096,
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
    assert all(set(by_mode) == {m.value for m in Mode} for by_mode in records.values())


@pytest.mark.parametrize("name, mode, expected", _cases())
def test_golden_log(name, mode, expected):
    assert observe(name, Mode(mode)) == expected, f"workload {name!r} in mode {mode!r}"


def regenerate() -> None:
    records = {
        path.stem: {mode.value: observe(path.stem, mode) for mode in Mode}
        for path in sorted((GOLDEN / "workloads").glob("*.txt"))
    }
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: test_golden.py --regenerate")
    regenerate()
