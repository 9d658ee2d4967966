"""Mutants that the tests must kill: each one undoes one guard of the code.

Each entry of `MUTANTS` gives a file, an exact snippet of it, the
snippet's replacement, the tests that must fail once it is applied, and
one line on what the guard protects.  Each mutant of the round loop
lists a test that checks `Simulator` against the reference interpreter
(`tests/reference.py`): a golden, bench or corpus case of
`tests/test_schedule.py`, or a strategy of `tests/test_generated.py`.
Each snippet occurs exactly once in its file; `tests/test_mutants.py`
checks that in tier-1 without running a mutant, so a change that moves
or rewrites guarded code must update the snippet here.

    python tests/mutants.py [NAME...]

copies the tree to a temporary directory and, for each named mutant (all
of them when none is named), applies it there and runs its tests with
pytest.  A mutant is killed when every one of its tests fails, and
survives when one passes.  A run that takes longer than TIMEOUT_S (a
mutant that makes the round loop spin, say) is stopped and reported as
timed out, neither killed nor survived.  The command prints one line per
mutant and exits 1 unless every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
TIMEOUT_S = 300  # per mutant's pytest run


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids; each must fail under the mutant
    guards: str


SIM = "src/hrtsim/sim.py"
ROS = "src/hrtsim/ros.py"
MEM = "src/hrtsim/mem.py"
CHANNEL = "src/hrtsim/channel.py"
HRT = "src/hrtsim/hrt.py"
COSTS = "src/hrtsim/costs.py"
WORKLOAD = "src/hrtsim/workload.py"
MISUSE = "tests/test_sim.py::TestRuntimeMisuse::test_raises_in_its_step"
MUTANTS = {
    "no-stale-in-add": Mutant(
        SIM,
        "        self.contexts.append(ctx)\n        self.stale = True\n",
        "        self.contexts.append(ctx)\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[join_three_threads-virtual]",
            "tests/test_schedule.py::test_bench_workload_schedule[compare_cold-1-virtual]",
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_golden.py::test_golden_log[shared_lazy_page-multiverse]",
            "tests/test_golden.py::test_generated_logs[workloads]",
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "a context added in a round makes the next round scan every context, so it runs",
    ),
    "no-stale-on-stop": Mutant(
        SIM,
        "                ctx.done = ctx.parked = self.stale = True\n",
        "                ctx.done = ctx.parked = True\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[lazy_faults-virtual]",
            "tests/test_schedule.py::test_bench_workload_schedule[boot_large-1-multiverse]",
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_golden.py::test_generated_logs[workloads]",
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "a generator's end, and the wakes made in its last step, drop the run list",
    ),
    "no-stale-on-idle-park": Mutant(
        SIM,
        "                else:\n                    ctx.parked = self.stale = True\n",
        "                else:\n                    ctx.parked = True\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[spawn_nested_hrt-multiverse]",
            "tests/test_schedule.py::test_corpus_workload_schedule[shared_partner]",
            "tests/test_golden.py::test_golden_log[spawn_nested_hrt-multiverse]",
            "tests/test_schedule.py::test_hot_local_round_loop_rarely_visits_parked_contexts",
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "a step without progress drops the run list, which no longer holds only the runnable",
    ),
    "no-stale-on-call-wake": Mutant(
        SIM,
        "                    ev.kind, ev.detail, ev.payload = SYSCALL, detail, call\n"
        "                    channel.forward_event(ev, partner_tid)\n"
        "                    partner.parked = False\n"
        "                    self.stale = True\n",
        "                    ev.kind, ev.detail, ev.payload = SYSCALL, detail, call\n"
        "                    channel.forward_event(ev, partner_tid)\n"
        "                    partner.parked = False\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[spawn_join_before_exit-multiverse]",
            "tests/test_schedule.py::test_bench_workload_schedule[boot_large-1-multiverse]",
            "tests/test_schedule.py::test_corpus_workload_schedule[workloads]",
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_generated.py::test_faults_on_a_shared_partner_keep_the_invariants",
            "tests/test_golden.py::test_generated_logs[workloads]",
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "a forwarded call's wake of a parked partner drops the run list, which lacks the partner",
    ),
    "no-stale-on-fault-wake": Mutant(
        SIM,
        "                        ev.payload = addr, access\n"
        "                        channel.forward_event(ev, partner_tid)\n"
        "                        partner.parked = False\n"
        "                        self.stale = True\n",
        "                        ev.payload = addr, access\n"
        "                        channel.forward_event(ev, partner_tid)\n"
        "                        partner.parked = False\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[shared_lazy_page-multiverse]",
            "tests/test_schedule.py::test_golden_workload_schedule[override_touches-multiverse]",
            "tests/test_generated.py::test_a_fault_after_clean_rounds_keeps_the_invariants",
            "tests/test_golden.py::test_golden_log[override_touches-multiverse]",
        ),
        "a forwarded fault's wake of a parked partner drops the run list, which lacks the partner",
    ),
    "kernel-mode-may-spawn": Mutant(
        SIM,
        "                    raise UsageError(\n"
        '                        "spawn from a kernel-mode thread; use spawn_nested or an override"\n'
        "                    )\n",
        "                    self._spawn(a)\n",
        (f"{MISUSE}[hrt-spawn]",),
        "a kernel-mode thread does not spawn: a top-level thread is spawned from the ROS side",
    ),
    "kernel-mode-may-join": Mutant(
        SIM,
        '                    raise UsageError("join is issued from the main thread")\n',
        "                    pass\n",
        (f"{MISUSE}[hrt-join]",),
        "a kernel-mode thread does not join",
    ),
    "kernel-mode-may-sync-call": Mutant(
        SIM,
        '                    raise UsageError("sync_call is issued from the ROS side")\n',
        "                    pass\n",
        (f"{MISUSE}[hrt-sync-call]",),
        "a kernel-mode thread does not make a synchronous call into the runtime",
    ),
    "regular-os-may-spawn-nested": Mutant(
        SIM,
        "                if self.mode is MULTIVERSE:\n"
        '                    raise UsageError("spawn_nested is only valid in kernel-mode threads")\n',
        "",
        (f"{MISUSE}[ros-spawn-nested-multiverse]",),
        "in multiverse only a kernel-mode thread spawns a nested thread",
    ),
    "spawn-cycle-parses": Mutant(
        WORKLOAD,
        "    _check_spawn_cycles(spawns)\n",
        "",
        (
            "tests/test_workload.py::TestValidation::test_spawn_cycle_reports_a_spawn_on_it[ring]",
            "tests/test_cli.py::TestRun::test_spawn_cycle_is_a_parse_error[w-spawns-w-virtual]",
        ),
        "a text whose bodies can spawn themselves, which would run without bound, does not parse",
    ),
    "mmap-ro-flag-ignored": Mutant(
        WORKLOAD,
        'int("ro" not in flags))',
        "1)",
        (
            "tests/test_inert.py::test_each_input_changes_a_run_unless_listed[mmap-ro]",
            "tests/test_golden.py::test_golden_log[hrt_write_readonly-virtual]",
            "tests/test_golden.py::test_golden_log[hrt_write_readonly-multiverse]",
        ),
        "an mmap's `ro` flag reaches the region it maps: it is an input that changes a run",
    ),
    "repeat-runs-count-minus-one": Mutant(
        WORKLOAD,
        "                        enclosing.append(Repeat(_block(items), count))\n",
        "                        enclosing.append(Repeat(_block(items), count - 1))\n",
        (
            "tests/test_workload.py::TestParse::test_repeat_unrolled",
            "tests/test_sim.py::TestProgramReuse::test_each_run_of_a_body_steps_all_of_it",
            "tests/test_golden.py::test_golden_log[bench_hot_local-multiverse]",
        ),
        "a repeat block runs each of its passes",
    ),
    "repeat-iterator-shared": Mutant(
        WORKLOAD,
        "                current.steps = _block(items)\n",
        "                current.steps = iter(_block(items))\n",
        (
            "tests/test_sim.py::TestProgramReuse::test_each_run_of_a_body_steps_all_of_it",
            "tests/test_sim.py::TestProgramReuse::test_one_parse_runs_like_fresh_parses[bench_hot_local]",
        ),
        "each run of a body iterates its steps from the start, not one iterator every run shares",
    ),
    "call-override-resolved-at-read": Mutant(
        WORKLOAD,
        '                if step[0] == "call_override":\n'
        "                    plans += step[1], lineno\n",
        '                if step[0] == "call_override":\n'
        "                    step[1].resolve(funcs, overrides)\n",
        ("tests/test_laws.py::test_law_keeps_every_outcome[declarations-last]",),
        "a call's plan is resolved once the whole text is read: a func or override line "
        "may follow the calls it decides",
    ),
    "comment-text-kept": Mutant(
        WORKLOAD,
        '            line = raw[: raw.index("#")] if "#" in raw else raw\n',
        "            line = raw\n",
        (
            "tests/test_laws.py::test_law_keeps_every_outcome[comments-inserted]",
            "tests/test_laws.py::test_comments_keep_each_parse_error_at_its_line",
        ),
        "the text after a `#` is a comment, which changes nothing",
    ),
    "stale-round-keeps-list": Mutant(
        SIM,
        "            self.stale, self.running = False, None\n",
        "            self.stale = False\n",
        (
            "tests/test_schedule.py::test_bench_workload_schedule[compare_cold-1-virtual]",
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_golden.py::test_golden_log[bench_hot_local-multiverse]",
            "tests/test_acceptance.py::test_criterion_09_determinism",
            "tests/test_golden.py::test_generated_logs[workloads]",
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "a stale round drops the run list, so no later clean round steps a wrong one",
    ),
    "no-insort-on-join-wake": Mutant(
        SIM,
        '                    insort(running, ctx, key=attrgetter("index"))\n',
        "                    pass\n",
        (
            "tests/test_schedule.py::test_golden_workload_schedule[join_wakes_later_joiner-virtual]",
        ),
        "an exit wakes a later-created joiner in the same round, as a scan of every context would",
    ),
    "pad-last-column": Mutant(
        SIM,
        "    widths[-1] = 0\n",
        "",
        (
            "tests/test_sim.py::test_reports_end_no_line_in_whitespace[sync_call]",
        ),
        "report and comparison tables end no line in spaces",
    ),
    "merge-keeps-leaf-tables": Mutant(
        MEM,
        "    hrt_space.wmemo.clear()\n    hrt_space.leaf_tables.clear()\n",
        "    hrt_space.wmemo.clear()\n",
        (
            "tests/test_mem.py::TestWalkMemo::test_translate_matches_uncached_walk",
        ),
        "a merge drops the leaf tables cached through the root entries it replaces",
    ),
    "leaf-table-keyed-by-page": Mutant(
        MEM,
        "    space.leaf_tables[vaddr >> 21] = table\n",
        "    space.leaf_tables[vaddr >> 12] = table\n",
        (
            "tests/test_mem.py::TestWalkMemo::test_translate_matches_uncached_walk",
            "tests/test_mem.py::TestWalkMemo::test_ops_keep_leaf_tables_sound",
            "tests/test_generated.py::test_generated_workload_invariants",
        ),
        "a leaf table is cached under the 2 MiB region it maps, where translate looks it up",
    ),
    "tables-built-eagerly": Mutant(
        MEM,
        "        self.deferred[frame] = EMPTY_TABLE\n",
        "        self[frame] = [0] * TABLE_ENTRIES\n",
        (
            "tests/test_hrt.py::TestBoot::test_setup_builds_only_tables_a_walk_reaches",
            "tests/test_hrt.py::TestBoot::test_boot_builds_no_identity_table_below_level_3",
        ),
        "a new table's list is built on first access, not when its frame is allocated",
    ),
    "deferred-table-not-kept": Mutant(
        MEM,
        "        self[frame] = table\n        return table\n",
        "        return table\n",
        (
            "tests/test_golden.py::test_golden_log[bench_boot_large-multiverse]",
            "tests/test_golden.py::test_generated_logs[workloads]",
            "tests/test_golden.py::test_each_table_built_or_deferred[golden]",
        ),
        "a table built on first access is kept, so later walks and writes reach that same list",
    ),
    "join-keeps-target": Mutant(
        ROS,
        "            target.joined = True\n            joiner.join_target = None\n",
        "            target.joined = True\n",
        (
            "tests/test_ros.py::TestJoin::test_join_after_exit_resumes_immediately",
            "tests/test_acceptance.py::TestCriterion07::test_criterion_07_join_order_two_threads",
        ),
        "a resumed joiner clears its join target, the one record that it is blocked",
    ),
    "demand-fault-ignores-leaf": Mutant(
        MEM,
        "    if table is not None and not table[page & 0x1FF] & P:\n",
        "    if table is not None:\n",
        (
            "tests/test_ros.py::TestRegionIndex::test_region_at_matches_linear_scan",
            "tests/test_schedule.py::test_golden_workload_schedule[shared_lazy_page-multiverse]",
            "tests/test_schedule.py::test_corpus_workload_schedule[shared_partner]",
            "tests/test_generated.py::test_faults_on_a_shared_partner_keep_the_invariants",
        ),
        "a demand fault writes its own leaf only when its cached leaf is absent",
    ),
    "fault-takes-a-second-frame": Mutant(
        MEM,
        "frames.take(1) << 12 | (P | RW if writable else P)\n",
        "frames.take(2) << 12 | (P | RW if writable else P)\n",
        (
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_generated.py::test_faults_on_a_shared_partner_keep_the_invariants",
        ),
        "a demand fault takes one frame, which the regular OS's frame count accounts for",
    ),
    "fault-in-ignores-read-only": Mutant(
        MEM,
        "frames.take(1) << 12 | (P | RW if writable else P)\n",
        "frames.take(1) << 12 | P | RW\n",
        (
            "tests/test_golden.py::test_golden_log[readonly_in_cached_table-virtual]",
            "tests/test_golden.py::test_golden_log[readonly_in_cached_table-multiverse]",
            "tests/test_golden.py::test_golden_log[readonly_in_cached_table_hrt-virtual]",
            "tests/test_golden.py::test_golden_log[readonly_in_cached_table_hrt-multiverse]",
        ),
        "a demand fault into a cached leaf table maps a read-only region's page read-only",
    ),
    "unmap-keeps-memo": Mutant(
        MEM,
        "                    for memo in memos:\n                        memo.pop(page, None)\n",
        "",
        (
            "tests/test_golden.py::test_generated_logs[shared_partner]",
        ),
        "an unmapped page leaves every walk memo, so a later access to it faults",
    ),
    "demand-faults-share-a-frame": Mutant(
        MEM,
        "frames.take(1), writable)\n",
        "frames.end - frames.frames_left, writable)\n",
        (
            "tests/test_ros.py::TestRegionIndex::test_region_at_matches_linear_scan",
            "tests/test_generated.py::test_generated_workload_invariants",
            "tests/test_generated.py::test_faults_on_a_shared_partner_keep_the_invariants",
        ),
        "each demand-paged page takes a frame of its own",
    ),
    "carve-drops-upper-part": Mutant(
        ROS,
        "        if stop < end:\n            self.add(stop, end - stop, writable)\n",
        "",
        (
            "tests/test_ros.py::TestRegionIndex::test_region_at_matches_linear_scan",
        ),
        "unmapping the lower part of a region keeps its part above the range",
    ),
    "partner-never-exits": Mutant(
        ROS,
        "            partner.exited = True\n",
        "",
        (
            "tests/test_ros.py::TestForwardedService::test_partner_step_serves_then_exits",
            "tests/test_acceptance.py::TestCriterion07::test_criterion_07_join_order_two_threads",
        ),
        "a partner whose twin has exited exits in its cleanup step, so a join on it resumes",
    ),
    "partner-may-join": Mutant(
        ROS,
        "        if joiner.queue is not None:\n"
        '            raise UsageError("partner threads do not join")\n',
        "",
        (
            "tests/test_ros.py::TestJoin::test_partner_cannot_join",
        ),
        "a partner, the thread with a queue, never joins",
    ),
    "log-truncates-detail": Mutant(
        CHANNEL,
        'ROW_FORMAT = "cycle=%s kind=%s origin=%s detail=%s cost=%s\\n"',
        'ROW_FORMAT = "cycle=%s kind=%s origin=%s detail=%.200s cost=%s\\n"',
        ("tests/test_sim.py::TestRender::test_details_with_format_characters",),
        "the log renders each detail whole, however long",
    ),
    "enum-read-per-event": Mutant(
        SIM,
        "                if self.mode is MULTIVERSE:\n",
        "                if self.mode is Mode.MULTIVERSE:\n",
        ("tests/test_hygiene.py::test_per_step_code_pays_no_enum_toll",),
        "per-step code reads enum members bound at import, not through their class",
    ),
    "cost-order-names-no-line": Mutant(
        COSTS,
        "            ordered_line = lineno\n",
        "            ordered_line = None\n",
        (
            "tests/test_cli.py::TestRun::test_cost_order_broken_names_its_line[one-key]",
            "tests/test_cli.py::TestRun::test_cost_order_broken_names_its_line[after-a-comment]",
            "tests/test_cli.py::TestRun::test_cost_order_broken_names_its_line[last-ordered-key]",
        ),
        "costs out of order name the last line that set one of the ordered keys",
    ),
    "fresh-forwarded-cost": Mutant(
        CHANNEL,
        "        cost = self.shared_costs.setdefault(cost, cost)",
        "        pass",
        (
            "tests/test_sim.py::TestRecordLayout::test_forwarded_writes_share_one_cost",
        ),
        "equal forwarded costs are one int in the log, not one object per entry",
    ),
    "fresh-symbol-detail": Mutant(
        HRT,
        "        detail = self.sym_details.get(name)\n",
        "        detail = None\n",
        (
            "tests/test_sim.py::TestRecordLayout::test_lookups_of_one_name_share_one_detail",
        ),
        "each name's SymbolLookup detail is built once, and its entries share it",
    ),
}


def failed_ids(output: str) -> set[str]:
    """The node ids that pytest's `-rfE` summary in output reports as
    failed or in error."""
    found = set()
    for line in output.splitlines():
        for outcome in ("FAILED ", "ERROR "):
            if line.startswith(outcome):
                found.add(line[len(outcome):].split(" - ")[0])
    return found


def copy_tree(dest: Path) -> None:
    """The working tree at dest, without version control, caches or the
    benchmark's span dumps."""

    def ignored(directory, names):
        skip = SKIPPED | ({"out"} if Path(directory) == ROOT / "perfbench" else set())
        return [name for name in names if name in skip]

    shutil.copytree(ROOT, dest, ignore=ignored)


def run_tests(tree: Path, tests: tuple[str, ...]) -> set[str] | None:
    """Run tests in tree; the ids that failed, or None if the run took
    longer than TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider"]
            + list(tests),
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return failed_ids(result.stdout)


def check(tree: Path, mutant: Mutant) -> str:
    """Apply mutant in tree, run its tests and restore the file: "killed",
    "SURVIVED" with the tests that still pass, "timed out", or why the
    mutant cannot be applied."""
    if not mutant.tests:
        return "SURVIVED (no tests listed)"
    path = tree / mutant.path
    original = path.read_text()
    if original.count(mutant.snippet) != 1:
        return f"SURVIVED (snippet occurs {original.count(mutant.snippet)} times in {mutant.path})"
    path.write_text(original.replace(mutant.snippet, mutant.replacement))
    try:
        failed = run_tests(tree, mutant.tests)
    finally:
        path.write_text(original)
    if failed is None:
        return f"timed out after {TIMEOUT_S} s"
    passed = [test for test in mutant.tests if test not in failed]
    return f"SURVIVED ({'; '.join(passed)})" if passed else "killed"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    not_killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        for name in names or MUTANTS:
            outcome = check(tree, MUTANTS[name])
            not_killed += outcome != "killed"
            print(f"{name}: {outcome}")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
