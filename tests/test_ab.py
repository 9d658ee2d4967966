"""`tools/ab.py` writes a BENCH file of the schema it documents.  The
checkout runs against itself on `boot_large`, one short pair per seed;
no timing is checked, only the schema and that both sides agree."""

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
