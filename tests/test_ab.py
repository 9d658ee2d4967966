"""`tools/ab.py` writes a BENCH file of the schema it documents.  The
checkout runs against itself on `boot_large`, one short pair per seed;
no timing is checked, only the schema and that both sides agree.  Its
gain rule is checked on synthetic run lists."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 4242)


def test_ab_of_the_checkout_against_itself(tmp_path):
    out = tmp_path / "BENCH_self.json"
    result = subprocess.run(
        [
            sys.executable, "tools/ab.py", "--before", ".", "--after", ".",
            "--before-name", "self", "--after-name", "self", "--pairs", "1",
            "--seconds", "0.1", "--seeds", ",".join(map(str, SEEDS)),
            "--workloads", "boot_large", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    bench = json.loads(out.read_text())
    assert (bench["before"], bench["after"], bench["pairs"]) == ("self", "self", 1)
    assert bench["seeds"] == list(SEEDS)
    assert list(bench["workloads"]) == ["boot_large"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    for seed in SEEDS:
        case = bench["workloads"]["boot_large"][str(seed)]
        outputs = case["outputs"]
        assert outputs["equal"] == {"digest": True, "total_cycles": True, "events": True}
        for side in ("before", "after"):
            assert outputs[side]["repeats"] and outputs[side]["correct"]
            assert set(outputs[side]) == {"digest", "total_cycles", "events", "repeats", "correct"}
        assert set(case["metrics"]) == metrics
        for entry in case["metrics"].values():
            assert set(entry) == {
                "better", "bound", "before", "after", "ratio", "wins", "within_bound", "gain",
            }
            for side in ("before", "after"):
                assert set(entry[side]) == {"median", "q1", "q3"}
                assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"]
            assert entry["wins"] in (0, 1)


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PEAK = {"name": "peak_mem_mb", "better": "lower", "bound": 0.1}


def test_a_difference_below_a_tenth_of_the_bound_is_no_gain():
    # 10/10 wins and an IQR of 0: a 0.01% lower peak is the metric's last
    # digits, not a gain.
    before = [2.0] * 10
    entry = load_ab().compare_metric(PEAK, before, [2.0 * 0.9999] * 10)
    assert (entry["wins"], entry["before"]["q3"] - entry["before"]["q1"]) == (10, 0)
    assert entry["within_bound"] and not entry["gain"]


def test_a_ten_percent_lower_median_that_wins_every_pair_is_a_gain():
    before = [2.0 + i / 1000 for i in range(10)]
    entry = load_ab().compare_metric(PEAK, before, [b * 0.9 for b in before])
    assert entry["wins"] == 10
    assert entry["gain"]
