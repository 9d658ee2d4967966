"""Command-line interface tests."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrtsim import bundled_profiles_text
from hrtsim.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARSE, main
from hrtsim.errors import DoubleFaultError, ParseError
from hrtsim.sim import Mode, parse_workload

from test_generated import mutated_workloads

GOOD = """
thread main ros
  mmap 8192
  touch last w
  exit
end
"""

SEGFAULT = """
thread main ros
  touch 0x123000 w
  exit
end
"""

# Main maps and touches MMAP_BASE; the thread it spawns maps the next page
# and touches 2**64 + MMAP_BASE from it, on the regular OS in virtual mode
# and in kernel mode in multiverse.  A literal that large is refused by the
# parser; an offset from `last` reaches it only at run time.
ALIAS = """
thread main ros
  mmap 4096
  touch last w
  spawn w
  join w
  exit
end
thread w hrt
  mmap 4096
  touch last+0xfffffffffffff000 w
  exit
end
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_error(text: str) -> ParseError | None:
    """The error that parsing text raises, or None if it parses."""
    try:
        parse_workload(text)
    except ParseError as exc:
        return exc
    return None


class TestRun:
    def test_virtual_run(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, "w.txt", GOOD), "--mode", "virtual"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "mode: virtual" in out
        assert "total cycles:" in out

    def test_mode_is_virtual_or_multiverse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", write(tmp_path, "w.txt", GOOD), "--mode", "native"])
        assert exc.value.code == 2
        assert "choose from 'virtual', 'multiverse'" in capsys.readouterr().err

    def test_default_mode_is_multiverse(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, "w.txt", GOOD)])
        assert code == EXIT_OK
        assert "mode: multiverse" in capsys.readouterr().out

    def test_log_file_written(self, tmp_path):
        log_path = tmp_path / "events.log"
        main(["run", write(tmp_path, "w.txt", GOOD), "--log", str(log_path)])
        lines = log_path.read_text().splitlines()
        assert lines
        assert all(line.startswith("cycle=") for line in lines)

    def test_unwritable_log_is_an_input_error(self, tmp_path, capsys):
        # The log is opened before the run, so nothing is run or reported.
        log_path = tmp_path / "missing-dir" / "x.log"
        code = main(["run", write(tmp_path, "w.txt", GOOD), "--log", str(log_path)])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not log_path.parent.exists()

    def test_metrics_flag(self, tmp_path, capsys):
        main(["run", write(tmp_path, "w.txt", GOOD), "--metrics"])
        out = capsys.readouterr().out
        assert "metric=total_cycles value=" in out
        assert "metric=failed value=0" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, "bad.txt", "thread main ros\nend\n")])
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_workload_failure_exit_code(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, "seg.txt", SEGFAULT), "--mode", "virtual"])
        assert code == EXIT_FAILURE
        assert "FAILED" in capsys.readouterr().out

    def test_last_before_mmap_is_a_runtime_failure(self, tmp_path, capsys):
        text = "thread main ros\n  touch last w\n  exit\nend\n"
        code = main(["run", write(tmp_path, "w.txt", text), "--mode", "virtual"])
        assert code == EXIT_FAILURE
        assert "'last' used before any mmap" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_mmap_past_the_stack_area_is_refused(self, tmp_path, mode):
        # The refused mmap moves no bump pointer: the next one gets MMAP_BASE.
        text = "thread main ros\n  mmap 0x7000000000000\n  mmap 4096\n  touch last w\n  exit\nend\n"
        log = tmp_path / "events.log"
        argv = ["run", write(tmp_path, "w.txt", text), "--mode", mode, "--log", str(log)]
        assert main(argv) == EXIT_OK
        assert "detail=pf:0x100000000000:w " in log.read_text()

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_mmap_past_the_lower_half_leaves_no_base(self, tmp_path, capsys, mode):
        # The mmap returns ENOMEM, so `last` names no region.
        text = (
            "thread main ros\n  mmap 0x800000000000\n  touch last+0x7f0000000000 w\n"
            "  exit\nend\n"
        )
        code = main(["run", write(tmp_path, "w.txt", text), "--mode", mode])
        err = capsys.readouterr().err
        assert code == EXIT_FAILURE
        assert "'last' used before any mmap" in err and "non-canonical" not in err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_address_beyond_64_bits_is_a_runtime_failure(self, tmp_path, capsys, mode):
        # 2**64 + MMAP_BASE must not alias the page mapped at MMAP_BASE.
        code = main(["run", write(tmp_path, "w.txt", ALIAS), "--mode", mode])
        assert code == EXIT_FAILURE
        assert "non-canonical address 0x10000100000000000" in capsys.readouterr().err

    def test_address_literal_beyond_64_bits_is_a_parse_error(self, tmp_path, capsys):
        text = "thread main ros\n  touch 0x10000100000000000 w\n  exit\nend\n"
        assert main(["run", write(tmp_path, "w.txt", text)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: line 2: address '0x10000100000000000' does not fit in 64 bits" in err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_sync_call_of_no_symbol_is_a_parse_error(self, tmp_path, capsys, mode):
        text = "thread main ros\n  sync_call ghost\n  exit\nend\n"
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: line 2: sync_call target 'ghost' is not a symbol" in err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_thread_create_override_of_no_body_is_a_parse_error(self, tmp_path, capsys, mode):
        text = (
            "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
            "thread w hrt\n  call_override pthread_create 0 0 ghost\n  exit\nend\n"
        )
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert (
            "error: line 7: call_override pthread_create target 'ghost' is not a defined thread"
        ) in err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    @pytest.mark.parametrize(
        "text, line",
        [
            (
                "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
                "thread w hrt\n  compute 10\n  spawn w\n  join w\n  exit\nend\n",
                8,
            ),
            ("thread main ros\n  spawn main\n  join main\n  exit\nend\n", 2),
        ],
        ids=["w-spawns-w", "main-spawns-main"],
    )
    def test_spawn_cycle_is_a_parse_error(self, tmp_path, capsys, text, line, mode):
        # Parsed first: a text that passed the parser would run without bound.
        assert parse_error(text).line == line
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        assert f"error: line {line}: spawn cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_repeat_count_beyond_an_index_is_a_parse_error(self, tmp_path, capsys, mode):
        text = "thread main ros\n  repeat 100000000000000000000\n  end\n  exit\nend\n"
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: line 2: repeat count '100000000000000000000' does not fit in an index" in err

    def test_deadlock_is_a_runtime_failure(self, tmp_path, capsys):
        # Two local threads join each other, and main joins one of them.
        text = (
            "thread main ros\n  spawn a\n  spawn b\n  join a\n  exit\nend\n"
            "thread a ros\n  join b\n  exit\nend\n"
            "thread b ros\n  join a\n  exit\nend\n"
        )
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", "virtual"]) == EXIT_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no runnable context; outstanding events: none"]

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    def test_fault_without_frames_for_its_tables_is_a_segfault(self, tmp_path, capsys, mode):
        # The populate leaves one of the default machine's frames: enough for
        # the touched page, not for the leaf table of its fresh 2 MiB region.
        text = (
            "thread main ros\n  mmap 12537856 populate\n  mmap 4194304\n"
            "  touch last+2097152 w\n  exit\nend\n"
        )
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_FAILURE
        assert "workload FAILED: segfault at 0x100000df5000" in capsys.readouterr().out.splitlines()

    def test_double_fault_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        def double_fault(*args):
            raise DoubleFaultError("access 0x1000 w cannot be satisfied")

        monkeypatch.setattr("hrtsim.cli.run", double_fault)
        assert main(["run", write(tmp_path, "w.txt", GOOD)]) == EXIT_FAILURE
        assert "error: access 0x1000 w cannot be satisfied" in capsys.readouterr().err

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        mutated_workloads().filter(lambda m: parse_error(m[0]) is not None),
        st.sampled_from([m.value for m in Mode]),
    )
    def test_mutated_text_that_fails_to_parse_exits_2_naming_its_line(self, mutated, mode):
        text, _ = mutated
        exc = parse_error(text)
        assert exc.line is not None and 1 <= exc.line <= max(1, len(text.splitlines()))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "w.txt", text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", path, "--mode", mode])
        assert code == EXIT_PARSE
        assert str(exc).startswith(f"line {exc.line}: ")
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {exc}\n")

    def test_cost_file_respected(self, tmp_path, capsys):
        cost = write(tmp_path, "cost.txt", "syscall_base = 9000\n")
        main(["run", write(tmp_path, "w.txt", GOOD), "--mode", "virtual", "--cost", cost])
        out = capsys.readouterr().out
        assert "total cycles:           10500" in out  # 9000 mmap + 1500 fault

    def test_bad_cost_file(self, tmp_path):
        cost = write(tmp_path, "cost.txt", "bogus_key = 1\n")
        assert main(["run", write(tmp_path, "w.txt", GOOD), "--cost", cost]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "text, line",
        [
            ("sync_call_same_socket = 2000\n", 1),
            ("# costs\nmerger = 20000\nhypercall = 1\n", 2),
            ("async_call = 100\nsync_call_diff_socket = 200\nforward_overhead = 1\n", 2),
        ],
        ids=["one-key", "after-a-comment", "last-ordered-key"],
    )
    def test_cost_order_broken_names_its_line(self, tmp_path, capsys, text, line):
        cost = write(tmp_path, "cost.txt", text)
        assert main(["run", write(tmp_path, "w.txt", GOOD), "--cost", cost]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: line {line}: expected sync_call_same_socket <= sync_call_diff_socket "
            "<= async_call <= merger\n"
        )

    @pytest.mark.parametrize("command", ["run", "compare", "replay"])
    @pytest.mark.parametrize("clock", ["0", "nan", "inf"])
    def test_clock_not_finite_and_positive(self, tmp_path, capsys, command, clock):
        # `run` and `replay` divide cycles by the clock; `compare` reads the same file.
        cost = write(tmp_path, "cost.txt", f"clock_hz = {clock}\n")
        inputs = [write(tmp_path, "w.txt", GOOD)]
        if command == "replay":
            inputs = ["--profiles", write(tmp_path, "p.txt", bundled_profiles_text())]
        assert main([command, *inputs, "--cost", cost]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 1: clock_hz must be finite and > 0")


    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    @pytest.mark.parametrize(
        "text",
        [
            "thread main ros\n  compute -5\n  exit\nend\n",
            "thread main ros\n  repeat -1\n    compute 1\n  end\n  exit\nend\n",
            "func f cycles=-5\nthread main ros\n  call_override f\n  exit\nend\n",
        ],
        ids=["compute", "repeat", "func"],
    )
    def test_negative_count_is_a_parse_error(self, tmp_path, capsys, mode, text):
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        assert "negative count" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["virtual", "multiverse"])
    @pytest.mark.parametrize(
        "text",
        [
            "thread main ros\n  touch -4096 w\n  exit\nend\n",
            "func f touches=-4096\noverride g -> f\n"
            "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
            "thread w hrt\n  call_override g\n  exit\nend\n",
        ],
        ids=["touch", "func-touches"],
    )
    def test_negative_address_is_a_parse_error(self, tmp_path, capsys, mode, text):
        assert main(["run", write(tmp_path, "w.txt", text), "--mode", mode]) == EXIT_PARSE
        assert "negative address '-4096'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{missing}"],
            ["run", "{good}", "--cost", "{missing}"],
            ["compare", "{missing}"],
            ["replay", "--profiles", "{missing}"],
            ["run", "{dir}"],
            ["run", "{binary}"],
        ],
        ids=["workload", "cost", "compare", "profiles", "directory", "not-utf8"],
    )
    def test_unreadable_file_is_an_input_error(self, tmp_path, capsys, argv):
        paths = {"missing": tmp_path / "missing.txt", "good": write(tmp_path, "w.txt", GOOD)}
        paths["dir"] = tmp_path
        paths["binary"] = tmp_path / "w.bin"
        paths["binary"].write_bytes(b"\xff\xfe\x00thread")
        code = main([a.format(**paths) for a in argv])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestCompare:
    def test_compare_table(self, tmp_path, capsys):
        code = main(["compare", write(tmp_path, "w.txt", GOOD)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "syscall" in out
        assert "total delta:" in out

    def test_compare_names_each_failed_run(self, tmp_path, capsys):
        text = "thread main ros\n  spawn w\n  join w\n  exit\nend\n"
        text += "thread w hrt\n  touch 0x100000000000 w\n  exit\nend\n"
        code = main(["compare", write(tmp_path, "w.txt", text)])
        out = capsys.readouterr().out
        assert code == EXIT_FAILURE
        assert "virtual FAILED: segfault at 0x100000000000" in out.splitlines()
        assert "multiverse FAILED: segfault at 0x100000000000" in out.splitlines()


class TestReplay:
    def test_bundled_profiles(self, tmp_path, capsys):
        path = write(tmp_path, "profiles.txt", bundled_profiles_text())
        code = main(["replay", "--profiles", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "spectral-norm" in out
        assert out.count("forwarded events") == 7

    def test_bad_profiles(self, tmp_path):
        path = write(tmp_path, "profiles.txt", "only three cols\n")
        assert main(["replay", "--profiles", path]) == EXIT_PARSE

    @pytest.mark.parametrize("line", ["x 1 nan 3 4 5 6 7", "x 1 -2.0 3 4 5 6 7"])
    def test_profile_time_not_a_duration(self, tmp_path, capsys, line):
        path = write(tmp_path, "profiles.txt", line + "\n")
        assert main(["replay", "--profiles", path]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 1: user_s must be finite and >= 0")
