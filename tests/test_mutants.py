"""The committed mutants stay applicable: each snippet occurs exactly once
in its file, and each listed test exists; and the runner tells a killed
mutant from a survivor and from a run that timed out.  No mutant runs
here; run them with `python tests/mutants.py`."""

import ast
import subprocess

import pytest

import mutants
from mutants import MUTANTS, ROOT, Mutant, check, failed_ids


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_snippet_occurs_once(name):
    mutant = MUTANTS[name]
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_listed_test_exists(name):
    tests = MUTANTS[name].tests
    assert tests
    missing = []
    for test in tests:
        path, *names = test.split("[")[0].split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for part in names:
            node = next(
                (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == part),
                None,
            )
            if node is None:
                missing.append(test)
                break
            body = node.body
    assert missing == []


def test_failed_ids_reads_the_short_summary():
    output = (
        "..F.E\n"
        "=========================== short test summary info ===========================\n"
        "FAILED tests/test_a.py::test_x[a-b] - AssertionError: x - y\n"
        "ERROR tests/test_b.py::TestC::test_y\n"
        "1 failed, 1 error, 3 passed in 0.10s\n"
    )
    assert failed_ids(output) == {"tests/test_a.py::test_x[a-b]", "tests/test_b.py::TestC::test_y"}


@pytest.mark.parametrize(
    "run, outcome",
    [
        ("FAILED t.py::a\nFAILED t.py::b\n", "killed"),
        ("FAILED t.py::a\n", "SURVIVED (t.py::b)"),
        (None, f"timed out after {mutants.TIMEOUT_S} s"),
    ],
    ids=["killed", "survived", "timed-out"],
)
def test_check_classifies_each_outcome(monkeypatch, tmp_path, run, outcome):
    """A run that times out is its own outcome, neither killed nor
    survived; the mutated file is restored either way.  The pytest run is
    faked, so no mutant runs."""

    def fake_run(command, **kwargs):
        assert kwargs["timeout"] == mutants.TIMEOUT_S
        if run is None:
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])
        return subprocess.CompletedProcess(command, 1, stdout=run, stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    (tmp_path / "f.py").write_text("keep\nguard\n")
    mutant = Mutant("f.py", "guard\n", "", ("t.py::a", "t.py::b"), "a guard")
    assert check(tmp_path, mutant) == outcome
    assert (tmp_path / "f.py").read_text() == "keep\nguard\n"
