"""`tools/layers.py` prints the schema it documents.  The checkout is
measured on `boot_large` in a few runs; no timing is checked, only the
schema, that every phase of the set-up this tree runs is timed, and that
the profile finds the parser and the interpreter.  `compare_cold` runs
once, as `perfbench/run.py` runs it: `compare(None, ...)`, both modes on
the default machine and the tabulation."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_layers(workload: str, runs: int) -> dict:
    """`tools/layers.py`'s JSON for workload at seed 1 in this checkout."""
    result = subprocess.run(
        [
            sys.executable, "tools/layers.py", "--tree", ".", "--workload", workload,
            "--seed", "1", "--runs", str(runs),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_layers_of_the_checkout():
    layers = run_layers("boot_large", 3)
    assert set(layers) == {"tree", "workload", "seed", "runs", "phases_us", "self_s", "timed_peak_mb"}
    assert (layers["workload"], layers["seed"], layers["runs"]) == ("boot_large", 1, 3)
    # This tree installs the image it builds: nothing decodes a fat binary.
    assert list(layers["phases_us"]) == ["parse", "image", "install_boot", "merge", "run"]
    for phase in layers["phases_us"].values():
        assert set(phase) == {"median", "q1", "q3"}
        assert 0 < phase["q1"] <= phase["median"] <= phase["q3"]
    assert {"hrtsim.workload", "hrtsim.sim", "hrtsim.mem"} <= set(layers["self_s"])
    assert all(seconds >= 0 for seconds in layers["self_s"].values())
    assert 0 < layers["timed_peak_mb"] < 1


def test_layers_of_a_workload_on_the_default_machine():
    layers = run_layers("compare_cold", 1)
    assert (layers["workload"], layers["runs"]) == ("compare_cold", 1)
    assert list(layers["phases_us"]) == ["parse", "image", "install_boot", "merge", "run"]
    assert {"hrtsim.ros", "hrtsim.channel"} <= set(layers["self_s"])


def test_a_compare_workload_is_run_as_compare():
    """One run of `compare_cold` is the comparison `compare(None, text)`
    prints: the virtual half and the tabulation are in what is timed."""
    script = (
        "import sys; from pathlib import Path; sys.path.insert(0, 'tools'); import layers\n"
        "h, w = layers.load_tree(Path('.').resolve()); w = w.compare_cold(1)\n"
        "print(layers.one_run(h, w).render() == h.compare(None, w.text).render())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.stdout == "True\n", result.stderr
