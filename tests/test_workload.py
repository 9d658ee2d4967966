"""Workload language parser tests."""

import gc
import sys
import tracemalloc
from itertools import islice

import pytest

from hrtsim.errors import ParseError, UsageError, text_lines
from hrtsim.mem import READ, WRITE
from hrtsim.ros import MMAP_BASE
from hrtsim.sim import Mode, run
from hrtsim.workload import Action, parse_workload

from test_golden import GOLDEN
from test_schedule import GOLDEN_NAMES, load_bench_workloads

BENCH_NAMES = ("fwd_cold", "hot_local", "boot_large", "compare_cold")

MINIMAL = "thread main ros\n  exit\nend\n"


class TestTextLines:
    """The one line reader of the workload, cost, profile and override formats."""

    def test_numbers_from_one_and_cuts_comments(self):
        text = "# only a comment\r\nfunc f  # trailing\r\n\r\n   \n  end\n# last"
        assert list(text_lines(text)) == [(2, "func f"), (5, "end")]
        assert list(text_lines("")) == list(text_lines("\n#\n")) == []


class TestParse:
    def test_minimal(self):
        program = parse_workload(MINIMAL)
        assert set(program.bodies) == {"main"}
        body = program.bodies["main"]
        assert body.role == "ros"
        assert [a.op for a in body.actions] == ["exit"]

    def test_comments_and_blanks_ignored(self):
        program = parse_workload("# header\n\nthread main ros\n  exit  # bye\nend\n")
        assert [a.op for a in program.bodies["main"].actions] == ["exit"]

    def test_action_arguments(self):
        program = parse_workload(
            "thread main ros\n"
            "  mmap 0x4000 populate\n"
            "  touch last+4096 w\n"
            "  munmap last 0x4000\n"
            "  syscall write 1 16\n"
            "  compute 250\n"
            "  exit\n"
            "end\n"
        )
        ops = program.bodies["main"].actions
        assert ops[0] == Action("mmap", ("mmap", (0x4000, 1, 1), 0), "sys:mmap(16384,1,1)")
        # A `last+N` touch keeps N and leaves its page to run time.
        assert ops[1] == Action("touch", 4096, WRITE, None)
        # A `last` munmap keeps its offset as the base and leaves the detail to run time.
        assert ops[2] == Action("munmap", ("munmap", (0, 0x4000), 0))
        assert ops[3] == Action("syscall", ("write", (1, 16), 0), "sys:write(1,16)")
        assert ops[4] == Action("compute", 250)

    def test_readonly_mmap_flag(self):
        program = parse_workload("thread main ros\n  mmap 4096 ro\n  exit\nend\n")
        assert program.bodies["main"].actions[0] == Action(
            "mmap", ("mmap", (4096, 0, 0), 0), "sys:mmap(4096,0,0)"
        )

    def test_repeat_unrolled(self):
        program = parse_workload(
            "thread main ros\n  repeat 3\n    compute 10\n    compute 20\n  end\n  exit\nend\n"
        )
        actions = program.bodies["main"].actions
        cycles = [a.a for a in actions if a.op == "compute"]
        assert cycles == [10, 20] * 3
        steps = list(program.bodies["main"].steps)
        assert steps[0] is steps[2] is steps[4]  # one lowered tuple per line

    def test_equal_lines_share_one_action(self):
        program = parse_workload(
            "thread main ros\n  spawn w\n  compute 10\n  call_override f 1\n  exit\nend\n"
            "thread w ros\n  compute 10\n  call_override f  1\n  call_override f 1\n  exit\nend\n"
        )
        main, w = list(program.bodies["main"].steps), list(program.bodies["w"].steps)
        assert main[1] is w[0]  # compute 10
        assert main[2] is w[2] and w[1] == w[2] and w[1] is not w[2]
        assert main[3] is w[3]  # exit
        actions = program.bodies["w"].actions
        assert actions[1].a.detail == actions[2].a.detail == "sys:call:f(1)"  # both resolved

    def test_nested_repeat(self):
        program = parse_workload(
            "thread main ros\n"
            "  repeat 2\n    repeat 3\n      compute 1\n    end\n  end\n"
            "  exit\nend\n"
        )
        computes = [a for a in program.bodies["main"].actions if a.op == "compute"]
        assert len(computes) == 6

    def test_func_directive(self):
        # `returns=7` parses: the value is checked as a number and stored nowhere.
        program = parse_workload(
            "func fast cycles=500 returns=7 touches=0x1000,0x2000\n" + MINIMAL
        )
        behavior = program.funcs["fast"]
        assert behavior.cycles == 500
        assert behavior.touches == (0x1000, 0x2000)

    def test_override_directive(self):
        program = parse_workload("override myfn -> aero_fn args(1:0)\n" + MINIMAL)
        assert program.overrides["myfn"].aero_name == "aero_fn"
        assert "pthread_create" in program.overrides  # defaults kept


class TestValidation:
    def test_missing_main(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread other ros\n  exit\nend\n")
        assert info.value.line == 3  # where the input ends

    @pytest.mark.parametrize("text, line", [("func f\n\n", 2), ("", 1)], ids=["blank-end", "empty"])
    def test_missing_main_names_where_the_input_ends(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_workload(text)
        assert info.value.line == line

    def test_main_must_be_ros(self):
        with pytest.raises(ParseError) as info:
            parse_workload("func f\nthread main hrt\n  exit\nend\n")
        assert info.value.line == 2

    def test_body_must_end_with_exit(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  compute 5\nend\n")
        assert info.value.line == 3

    def test_unclosed_thread(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  exit\n")

    @pytest.mark.parametrize(
        "body",
        [
            "  exit\n  repeat 0\n    compute 1\n  end\n",
            "  compute 1\n  repeat 1\n    exit\n  end\n",
            "  compute 1\n  repeat 2\n    compute 2\n    exit\n  end\n",
            "  exit\n  repeat 3\n  end\n",
            "  repeat 3\n  end\n  exit\n",
        ],
        ids=["then-repeat-0", "last-in-repeat-1", "last-in-repeat-2", "then-empty", "after-empty"],
    )
    def test_exit_is_the_last_step_that_runs(self, body):
        program = parse_workload(f"thread main ros\n{body}end\n")
        assert program.bodies["main"].actions[-1].op == "exit"

    @pytest.mark.parametrize(
        "body, line",
        [
            ("  repeat 2\n    repeat 0\n      exit\n    end\n  end\n", 7),
            ("  compute 1\n  repeat 0\n    exit\n  end\n", 6),
            ("  exit\n  repeat 3\n    compute 1\n  end\n", 6),
            ("  compute 1\n  repeat 3\n  end\n", 5),
        ],
        ids=["exit-in-nested-repeat-0", "exit-in-repeat-0", "repeat-after-exit", "then-empty"],
    )
    def test_exit_that_never_runs_last_is_refused(self, body, line):
        with pytest.raises(ParseError, match="'main' must end with exit") as info:
            parse_workload(f"thread main ros\n{body}end\n")
        assert info.value.line == line

    @pytest.mark.parametrize(
        "body, line",
        [
            ("  repeat 100000000000000000000\n  end\n", 2),
            ("  compute 1\n  repeat 2\n    repeat 9223372036854775808\n      compute 1\n"
             "    end\n  end\n", 4),
        ],
        ids=["empty", "nested"],
    )
    def test_repeat_count_beyond_an_index_reports_line(self, body, line):
        with pytest.raises(ParseError, match="repeat count '.*' does not fit in an index") as info:
            parse_workload(f"thread main ros\n{body}  exit\nend\n")
        assert info.value.line == line

    def test_largest_repeat_count_parses(self):
        text = "thread main ros\n  repeat 9223372036854775807\n    compute 1\n  end\n  exit\nend\n"
        steps = parse_workload(text).bodies["main"].steps
        assert [op for op, _, _, _ in islice(steps, 3)] == ["compute"] * 3

    def test_unclosed_repeat(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  repeat 2\n  compute 1\n  exit\nend\n")

    @pytest.mark.parametrize(
        "body, line",
        [
            ("  repeat 2\n  compute 1\n  exit\n", 2),
            ("  repeat 2\n    repeat 3\n      compute 1\n    end\n    repeat 4\n"
             "      compute 1\n  exit\n", 6),
        ],
        ids=["flat", "nested"],
    )
    def test_repeat_open_at_the_end_names_its_line(self, body, line):
        # The innermost repeat still open, not the thread, is what lacks its end.
        with pytest.raises(ParseError, match="repeat block not closed with end") as info:
            parse_workload(f"thread main ros\n{body}")
        assert info.value.line == line

    def test_undefined_spawn_target(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  spawn ghost\n  exit\nend\n")
        assert info.value.line == 2

    def test_undefined_join_target(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  join ghost\n  exit\nend\n")
        assert info.value.line == 2

    def test_undefined_nested_target_in_repeat(self):
        text = (
            "thread main ros\n  exit\nend\n"
            "thread w hrt\n  repeat 2\n  spawn_nested ghost\n  end\n  exit\nend\n"
        )
        with pytest.raises(ParseError) as info:
            parse_workload(text)
        assert info.value.line == 6

    def test_undefined_thread_create_override_body(self):
        text = (
            "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
            "thread w hrt\n  call_override pthread_create 0 0 ghost\n  exit\nend\n"
        )
        with pytest.raises(ParseError) as info:
            parse_workload(text)
        assert info.value.line == 7
        assert "'ghost' is not a defined thread" in str(info.value)

    @pytest.mark.parametrize(
        "decl, line",
        [
            ("", "call_override pthread_create 0 0"),  # no body: a runtime UsageError
            (
                "override pthread_create -> hrt_thread_create off\n",
                "call_override pthread_create 0 0 ghost",
            ),
            ("", "call_override other 0 0 ghost"),  # not a thread-create override
        ],
        ids=["no-body", "disabled", "other-call"],
    )
    def test_thread_create_override_body_checked_only_when_it_spawns(self, decl, line):
        parse_workload(decl + f"thread main ros\n  {line}\n  exit\nend\n")

    SELF_SPAWN = (
        "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
        "thread w hrt\n  compute 10\n  spawn w\n  join w\n  exit\nend\n"
    )
    RING = (
        "thread main ros\n  spawn a\n  join a\n  exit\nend\n"
        "thread a hrt\n  spawn_nested b\n  exit\nend\n"
        "thread b hrt\n  call_override pthread_create 0 0 c\n  exit\nend\n"
        "thread c hrt\n  repeat 2\n  spawn_nested a\n  end\n  exit\nend\n"
    )

    @pytest.mark.parametrize(
        "text, line, cycle",
        [
            (SELF_SPAWN, 8, "w -> w"),
            ("thread main ros\n  spawn main\n  join main\n  exit\nend\n", 2, "main -> main"),
            ("thread main ros\n  spawn_nested main\n  exit\nend\n", 2, "main -> main"),
            (RING, 7, "a -> b -> c -> a"),
        ],
        ids=["self-spawn", "main-spawns-main", "nested-in-main", "ring"],
    )
    def test_spawn_cycle_reports_a_spawn_on_it(self, text, line, cycle):
        """With no conditionals a body that can spawn itself always does, so
        the text would grow without bound: it does not parse."""
        with pytest.raises(ParseError) as info:
            parse_workload(text)
        assert str(info.value) == f"line {line}: spawn cycle {cycle}"

    @pytest.mark.parametrize(
        "text",
        [
            "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
            "thread w hrt\n  repeat 2\n  repeat 0\n  spawn_nested w\n  end\n  end\n  exit\nend\n",
            "override pthread_create -> hrt_thread_create off\n" + RING,
            RING.replace("spawn_nested a", "compute 1").replace(
                "spawn_nested b\n", "spawn_nested b\n  spawn_nested c\n"
            ),
        ],
        ids=["repeat-0", "disabled-override", "diamond"],
    )
    def test_spawns_that_never_recur_parse(self, text):
        parse_workload(text)

    @pytest.mark.parametrize(
        "decl, name",
        [
            ("func later\n", "later"),  # declared after the thread that calls it
            ("override legacy -> fast\n", "fast"),
            ("", "hrt_thread_create"),  # a default override target
            ("", "main"),  # a thread body
        ],
    )
    def test_sync_call_of_any_symbol_parses(self, decl, name):
        program = parse_workload(f"thread main ros\n  sync_call {name}\n  exit\nend\n" + decl)
        assert name in program.symbols()

    def test_symbols_are_bodies_funcs_and_override_targets(self):
        program = parse_workload("func f\noverride legacy -> g\n" + MINIMAL)
        targets = {entry.aero_name for entry in program.overrides.values()}
        assert program.symbols() == {"main", "f", "g"} | targets

    def test_duplicate_thread(self):
        with pytest.raises(ParseError) as info:
            parse_workload(MINIMAL + MINIMAL)
        assert info.value.line == 4

    def test_unknown_action_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  frobnicate\n  exit\nend\n")
        assert info.value.line == 2

    def test_bad_number_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  compute lots\n  exit\nend\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "head, match, lineno",
        [
            ("func g cycles=1\nfunc f returns=x\n", "bad number 'x'", 2),
            ("func f returns=\n", "bad number ''", 1),
            ("# a comment\noverride f -> g args(0:0,1:0)\n", "must be injective", 2),
        ],
        ids=["returns-word", "returns-empty", "args-not-injective"],
    )
    def test_unstored_input_is_still_checked(self, head, match, lineno):
        # `returns=` and `args(...)` change no run (see test_inert), and
        # each is still checked where it is read.
        with pytest.raises(ParseError, match=match) as info:
            parse_workload(f"{head}thread main ros\n  exit\nend\n")
        assert info.value.line == lineno

    @pytest.mark.parametrize(
        "head, line, lineno",
        [
            ("", "  compute -5", 2),
            ("", "  repeat -1\n    compute 1\n  end", 2),
            ("func f cycles=-5\n", "  compute 1", 1),
        ],
        ids=["compute", "repeat", "func"],
    )
    def test_negative_count_reports_line(self, head, line, lineno):
        with pytest.raises(ParseError, match="negative count") as info:
            parse_workload(f"{head}thread main ros\n{line}\n  exit\nend\n")
        assert info.value.line == lineno

    @pytest.mark.parametrize(
        "head, line, lineno",
        [
            ("", "  touch -4096 w", 2),
            ("", "  mmap 4096\n  touch last+-4096 r", 3),
            ("", "  munmap -4096 4096", 2),
            ("func f touches=0x1000,-4096\n", "  compute 1", 1),
        ],
        ids=["touch", "last-offset", "munmap", "func-touches"],
    )
    def test_negative_address_reports_line(self, head, line, lineno):
        with pytest.raises(ParseError, match="negative address '-4096'") as info:
            parse_workload(f"{head}thread main ros\n{line}\n  exit\nend\n")
        assert info.value.line == lineno

    @pytest.mark.parametrize(
        "head, line, lineno",
        [
            ("", "  touch 0x10000000000000000 w", 2),
            ("", "  mmap 4096\n  touch last+0x10000000000000000 r", 3),
            ("", "  munmap 0x10000000000000000 4096", 2),
            ("func f touches=0x1000,0x10000000000000000\n", "  compute 1", 1),
        ],
        ids=["touch", "last-offset", "munmap", "func-touches"],
    )
    def test_address_beyond_64_bits_reports_line(self, head, line, lineno):
        with pytest.raises(ParseError, match="'0x10000000000000000' does not fit in 64") as info:
            parse_workload(f"{head}thread main ros\n{line}\n  exit\nend\n")
        assert info.value.line == lineno

    def test_largest_64_bit_address_parses(self):
        program = parse_workload("thread main ros\n  touch 0xffffffffffffffff r\n  exit\nend\n")
        assert next(iter(program.bodies["main"].steps))[1] == 2**64 - 1

    def test_bad_touch_access(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  touch 0x1000 x\n  exit\nend\n")

    def test_bad_mmap_flag(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  mmap 4096 shared\n  exit\nend\n")


class TestAddrExpr:
    """An address operand: a literal is final at parse time, `last+N` is
    resolved against the thread's last mmap base when the action runs."""

    def test_literal(self):
        program = parse_workload("thread main ros\n  touch 0x1000 r\n  exit\nend\n")
        assert program.bodies["main"].actions[0] == Action("touch", 0x1000, READ, 1)

    def test_last_with_offset(self):
        program = parse_workload("thread main ros\n  touch last+0x20 w\n  exit\nend\n")
        assert program.bodies["main"].actions[0] == Action("touch", 0x20, WRITE, None)
        text = "thread main ros\n  mmap 4096\n  touch last+0x20 w\n  exit\nend\n"
        report = run(None, text, Mode.VIRTUAL)
        assert f"detail=pf:0x{MMAP_BASE + 0x20:x}:w" in report.log_text

    def test_last_without_mmap(self):
        # A run-time misuse, not malformed text, wherever a step resolves it:
        # a touch on either side, and a call's payload.
        hrt = "thread main ros\n  spawn w\n  join w\n  exit\nend\nthread w hrt\n  {}\n  exit\nend\n"
        for text, mode in [
            ("thread main ros\n  touch last r\n  exit\nend\n", Mode.VIRTUAL),
            ("thread main ros\n  munmap last 4096\n  exit\nend\n", Mode.VIRTUAL),
            (hrt.format("touch last+8 w"), Mode.MULTIVERSE),
            (hrt.format("munmap last 4096"), Mode.MULTIVERSE),
        ]:
            with pytest.raises(UsageError, match="'last' used before any mmap"):
                run(None, parse_workload(text), mode)


class TestSteps:
    """A body's steps are exact 4-tuples, which CPython 3.11 unpacks on its
    specialised path (a tuple subclass such as `Action` takes the generic
    one); `actions` is their view as `Action` records."""

    @staticmethod
    def assert_exact_tuples(program):
        for body in program.bodies.values():
            steps = list(body.steps)
            assert steps
            for step in steps:
                assert type(step) is tuple and len(step) == 4, (body.name, step)

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_steps_are_exact_tuples(self, name):
        self.assert_exact_tuples(parse_workload((GOLDEN / "workloads" / f"{name}.txt").read_text()))

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_bench_steps_are_exact_tuples(self, name):
        self.assert_exact_tuples(parse_workload(load_bench_workloads()[name](1).text))


def test_repeat_memory_follows_the_text_not_the_count():
    """A body keeps a repeat block as one loop node: the parse of a
    hot_local text retains the same memory at 100 times its repeat count."""
    text = load_bench_workloads()["hot_local"](1).text
    assert text.count("  repeat 240\n") == 8

    def retained(count):
        source = text.replace("  repeat 240\n", f"  repeat {count}\n")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            program = parse_workload(source)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(program.bodies) == 9
        return after - before

    retained(240)  # the first parse fills caches that outlive it
    small, large = retained(240), retained(24000)
    assert abs(large - small) < 4096, (small, large)


# Unrolled actions per bench workload at seed 1: perfbench's tracer reports
# these as workload.actions.
BENCH_ACTIONS = {"fwd_cold": 7001, "hot_local": 34650, "boot_large": 36, "compare_cold": 2969}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_perfbench_reads_actions_by_field(name):
    """perfbench's `shape()` reads `op` from each of a body's actions, and
    its tracer counts them; both read the `actions` view."""
    generate = load_bench_workloads()[name]
    program = parse_workload(generate(1).text)
    roles, ops = sys.modules["perfbench_workloads"].shape(program)
    actions = sum(len(body.actions) for body in program.bodies.values())
    assert actions == sum(n for _, n in ops) == BENCH_ACTIONS[name]
    assert sum(n for _, n in roles) == len(program.bodies)
