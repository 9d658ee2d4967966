"""Every statement of the model is reached by some workload.

The check runs these inputs with `sys.settrace` on, and records each line
that runs in the modules `sim`, `ros`, `hrt`, `channel`, `mem` and
`workload`:

- each golden workload in both modes, with its report's `render()` and
  `metrics_lines()`, and `compare(...).render()`;
- `replay` of the bundled benchmark profiles;
- derandomized draws of `tests/test_generated.py`'s workloads and its
  shared-partner shape in both modes, and of its out-of-frames cases.

A statement in a function body that none of them reaches fails the
check, unless it is a `raise`, a `return` of an errno constant, or a key
of `UNREACHED`.  A statement nested in an unreached statement is covered
by that statement's report.  Module and class bodies run at import,
before tracing starts, and are not checked.  A key is "module:function:
source", where source is the statement's first line, after its
enclosing statement's first line and " > " when it has one; its value
gives the reason no workload reaches it and the test that does.  A key
that matches no unreached statement is stale, and fails too.  README
"Tests" says when to delete, reach or list a reported statement.
"""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import hrtsim
from hrtsim.costs import CostModel
from hrtsim.errors import SimError
from hrtsim.machine import Machine
from hrtsim.sim import Mode, compare, load_profiles, replay_benchmark, run

import test_generated
from test_golden import GOLDEN, PHYS_FRAMES

PACKAGE = Path(hrtsim.__file__).parent
MODULES = ("sim", "ros", "hrt", "channel", "mem", "workload")
ERRNO = {"EINVAL", "ENOMEM", "EFAULT", "ENOSYS"}  # `ros`'s error returns
ROOT = Path(__file__).parent.parent

# Unreached statements that stay: key -> (why no workload reaches it, a test that does).
UNREACHED = {
    # Error paths that are not a `raise` themselves.
    "sim:Simulator.execute: if not step(): > dump = [": (
        "a deadlock; no golden deadlocks, and the generated workloads never do",
        "tests/test_sim.py::TestDeadlock::test_unserviced_event_is_reported",
    ),
    "channel:EventChannel.outstanding: return [ev for queue in self.queues.values()"
    " for ev in queue if ev.complete_cycle is None]": (
        "read by the deadlock dump, and by perfbench's tracer",
        "tests/test_schedule.py::TestDeadlock::test_unserved_event_is_dumped",
    ),
    'mem:_non_canonical: return NonCanonicalAddressError(f"non-canonical address 0x{addr:x}")': (
        "builds the error the walks raise on a non-canonical address, which no input touches",
        "tests/test_mem.py::TestCanonical::test_translate_rejects_non_canonical",
    ),
    # Kernel and driver API that the step loop never needs.
    "ros:RosKernel.partner_step: if partner.exited: > return False": (
        "the step loop drops a partner once it exits",
        "tests/test_acceptance.py::TestCriterion07::test_criterion_07_join_order_three_threads",
    ),
    "ros:RosKernel.partner_step: return False": (
        "the step loop parks a partner with nothing queued and no exit bit",
        "tests/test_acceptance.py::TestCriterion07::test_criterion_07_join_order_three_threads",
    ),
    "ros:RosKernel.try_finish_join: if joiner.join_target is None: > return False": (
        "the step loop asks only while its joiner is blocked",
        "tests/test_acceptance.py::TestCriterion07::test_criterion_07_join_order_three_threads",
    ),
    # Paths that only tests and readers outside the step loop take.
    "mem:map_page: if table[i1] & P: > for memo in space.store.memos:": (
        "a remap over a present page; no workload maps a page twice",
        "tests/test_mem.py::TestTranslate::test_remap_replaces",
    ),
    "workload:ThreadBody.actions: return [Action(*s) for s in self.steps]": (
        "read by the parser tests and perfbench, not by the step loop",
        "tests/test_workload.py::TestParse::test_minimal",
    ),
}


def function_statements(tree: ast.Module) -> list[tuple[str, ast.stmt, ast.AST | None]]:
    """(qualified function name, statement, enclosing statement or except
    clause in the same function, or None) of each statement in a function
    body; docstrings are left out."""
    found = []

    def visit(node, scope, func, parent):
        for child in ast.iter_child_nodes(node):
            # A docstring, or any bare constant, compiles to no code.
            constant = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            if func is not None and isinstance(child, ast.stmt) and not constant:
                found.append((func, child, parent))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = scope + child.name
                body_of = name if isinstance(child, ast.FunctionDef) else func
                visit(child, name + ".", body_of, None if func is None else child)
            else:
                nested = isinstance(child, (ast.stmt, ast.excepthandler))
                visit(child, scope, func, child if nested else parent)

    visit(tree, "", None, None)
    return found


def exempt(stmt: ast.stmt) -> bool:
    """A raise, or a return of an errno constant: an error path."""
    if isinstance(stmt, ast.Raise):
        return True
    value = getattr(stmt, "value", None)
    return isinstance(stmt, ast.Return) and isinstance(value, ast.Name) and value.id in ERRNO


def unreached(sources: dict[str, str], hit: dict[str, set[int]]) -> dict[str, list[str]]:
    """Key -> ["module:line", ...] of each statement that no line of hit
    (module -> lines run) reaches and that is not exempt, leaving out those
    nested in an unreached statement."""
    found: dict[str, list[str]] = {}
    for module, source in sources.items():
        lines, ran = source.splitlines(), hit[module]
        for func, stmt, parent in function_statements(ast.parse(source)):
            if stmt.lineno in ran or exempt(stmt):
                continue
            if parent is not None and parent.lineno not in ran:
                continue
            text = lines[stmt.lineno - 1].strip()
            if parent is not None:
                text = f"{lines[parent.lineno - 1].strip()} > {text}"
            found.setdefault(f"{module}:{func}: {text}", []).append(f"{module}:{stmt.lineno}")
    return found


def unallowed(allowed: dict, found: dict[str, list[str]]) -> dict[str, list[str]]:
    """The unreached statements that no allow-list key matches."""
    return {key: where for key, where in found.items() if key not in allowed}


def stale(allowed: dict, found: dict[str, list[str]]) -> list[str]:
    """Allow-list keys that match no unreached statement."""
    return sorted(set(allowed) - set(found))


def draws(strategy, n: int) -> list:
    """The first n derandomized examples of a Hypothesis strategy."""
    found = []

    @settings(max_examples=n, deadline=None, derandomize=True, database=None)
    @given(strategy)
    def collect(example):
        found.append(example)

    collect()
    return found


def run_inputs(generated: list[tuple[str, int]], out_of_frames: list[tuple]) -> None:
    for path in sorted((GOLDEN / "workloads").glob("*.txt")):
        text = path.read_text()
        frames = PHYS_FRAMES.get(path.stem, 512)
        for mode in Mode:
            try:
                report = run(Machine(phys_frames=frames), text, mode)
            except SimError:
                continue
            report.render()
            report.metrics_lines()
        try:
            compare(Machine(phys_frames=frames), text).render()
        except SimError:
            pass
    profiles = (PACKAGE / "data" / "racket_profiles.txt").read_text()
    for profile in load_profiles(profiles):
        replay_benchmark(profile, CostModel()).render()
    for text, frames in generated:
        for mode in Mode:
            try:
                run(Machine(phys_frames=frames), text, mode)
            except SimError:
                pass
    for case in out_of_frames:
        for mode in Mode:
            test_generated.frames_outcome(case, mode)


@pytest.fixture(scope="module")
def reached() -> dict[str, list[str]]:
    """The unreached statements of the model under the inputs above."""
    files = {str(PACKAGE / f"{module}.py"): module for module in MODULES}
    hit: dict[str, set[int]] = {module: set() for module in MODULES}
    by_file = {path: hit[module] for path, module in files.items()}

    def trace_lines(frame, event, arg):
        if event == "line":
            by_file[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in by_file else None

    # Drawn before tracing starts: only the runs are traced.
    generated = draws(test_generated.workloads(), 50) + draws(test_generated.shared_partner(), 10)
    out_of_frames = draws(test_generated.out_of_frames, 5)
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run_inputs(generated, out_of_frames)
    finally:
        sys.settrace(previous)
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES}
    return unreached(sources, hit)


def test_every_model_statement_is_reached(reached):
    assert unallowed(UNREACHED, reached) == {}


def test_no_allowance_is_stale(reached):
    assert stale(UNREACHED, reached) == []


def test_every_allowance_names_a_test():
    missing = []
    for key, (_, test) in UNREACHED.items():
        path, *names = test.split("::")
        tree = ast.parse((ROOT / path).read_text())
        for name in names:
            tree = next(
                (n for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == name),
                None,
            )
            if tree is None:
                missing.append(f"{key}: {test}")
                break
    assert missing == []


SAMPLE = '''\
def f(a):
    """Docstring."""
    if a:
        return EINVAL
    if a > 1:
        b = 1
        return b
    try:
        pass
    except ValueError:
        raise
    return 0

class C:
    X = 1

    def g(self):
        def inner():
            return 2
        return inner
'''


def test_check_sees_an_unreached_statement():
    # Lines 3, 5, 8, 9, 12 run: neither `if` is taken, nor is `g` called.
    found = unreached({"m": SAMPLE}, {"m": {3, 5, 8, 9, 12}})
    assert found == {
        "m:f: if a > 1: > b = 1": ["m:6"],
        "m:f: if a > 1: > return b": ["m:7"],
        "m:C.g: def inner():": ["m:18"],
        "m:C.g: return inner": ["m:20"],
    }
    allowed = {"m:f: if a > 1: > b = 1": ("kept", "t"), "m:C.g: def inner():": ("kept", "t")}
    assert unallowed(allowed, found) == {
        "m:f: if a > 1: > return b": ["m:7"],
        "m:C.g: return inner": ["m:20"],
    }


def test_check_sees_a_stale_allowance():
    found = {"m:f: if a > 1: > b = 1": ["m:6"]}
    allowed = {"m:f: if a > 1: > b = 1": ("kept", "t"), "m:f: return 0": ("now reached", "t")}
    assert stale(allowed, found) == ["m:f: return 0"]
