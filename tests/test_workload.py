"""Workload language parser tests."""

import pytest

from hrtsim.errors import ParseError, UsageError
from hrtsim.mem import AccessKind
from hrtsim.workload import AddrExpr, parse_workload

MINIMAL = "thread main ros\n  exit\nend\n"


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
        assert ops[0].args == (0x4000, True, True)
        assert ops[1].args == (AddrExpr(4096, from_last=True), AccessKind.WRITE)
        assert ops[2].args == (AddrExpr(0, from_last=True), 0x4000)
        assert ops[3].args == ("write", (1, 16))
        assert ops[4].args == (250,)

    def test_readonly_mmap_flag(self):
        program = parse_workload("thread main ros\n  mmap 4096 ro\n  exit\nend\n")
        assert program.bodies["main"].actions[0].args == (4096, False, False)

    def test_repeat_unrolled(self):
        program = parse_workload(
            "thread main ros\n  repeat 3\n    compute 10\n    compute 20\n  end\n  exit\nend\n"
        )
        cycles = [a.args[0] for a in program.bodies["main"].actions if a.op == "compute"]
        assert cycles == [10, 20] * 3

    def test_nested_repeat(self):
        program = parse_workload(
            "thread main ros\n"
            "  repeat 2\n    repeat 3\n      compute 1\n    end\n  end\n"
            "  exit\nend\n"
        )
        computes = [a for a in program.bodies["main"].actions if a.op == "compute"]
        assert len(computes) == 6

    def test_func_directive(self):
        program = parse_workload(
            "func fast cycles=500 returns=7 touches=0x1000,0x2000\n" + MINIMAL
        )
        behavior = program.funcs["fast"]
        assert (behavior.cycles, behavior.returns) == (500, 7)
        assert behavior.touches == (0x1000, 0x2000)

    def test_override_directive(self):
        program = parse_workload("override myfn -> aero_fn args(1:0)\n" + MINIMAL)
        assert program.overrides["myfn"].aero_name == "aero_fn"
        assert "pthread_create" in program.overrides  # defaults kept


class TestValidation:
    def test_missing_main(self):
        with pytest.raises(ParseError):
            parse_workload("thread other ros\n  exit\nend\n")

    def test_main_must_be_ros(self):
        with pytest.raises(ParseError):
            parse_workload("thread main hrt\n  exit\nend\n")

    def test_body_must_end_with_exit(self):
        with pytest.raises(ParseError) as info:
            parse_workload("thread main ros\n  compute 5\nend\n")
        assert info.value.line == 3

    def test_unclosed_thread(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  exit\n")

    def test_unclosed_repeat(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  repeat 2\n  compute 1\n  exit\nend\n")

    def test_undefined_spawn_target(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  spawn ghost\n  exit\nend\n")

    def test_undefined_join_target(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  join ghost\n  exit\nend\n")

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

    def test_bad_touch_access(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  touch 0x1000 x\n  exit\nend\n")

    def test_bad_mmap_flag(self):
        with pytest.raises(ParseError):
            parse_workload("thread main ros\n  mmap 4096 shared\n  exit\nend\n")


class TestAddrExpr:
    def test_literal(self):
        assert AddrExpr(0x1000).resolve(None) == 0x1000

    def test_last_with_offset(self):
        assert AddrExpr(0x20, from_last=True).resolve(0x7000) == 0x7020

    def test_last_without_mmap(self):
        # A run-time misuse, not malformed text.
        with pytest.raises(UsageError):
            AddrExpr(0, from_last=True).resolve(None)
