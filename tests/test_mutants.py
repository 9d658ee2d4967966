"""The committed mutants stay applicable: each snippet occurs exactly once
in its file, and each listed test exists.  No mutant runs here; run them
with `python tests/mutants.py`."""

import ast

import pytest

from mutants import MUTANTS, ROOT, failed_ids


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
