"""Command-line interface tests."""

from hrtsim import bundled_profiles_text
from hrtsim.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARSE, main

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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_native_run(self, tmp_path, capsys):
        code = main(["run", write(tmp_path, "w.txt", GOOD), "--mode", "native"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "mode: native" in out
        assert "total cycles:" in out

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
        code = main(["run", write(tmp_path, "seg.txt", SEGFAULT), "--mode", "native"])
        assert code == EXIT_FAILURE
        assert "FAILED" in capsys.readouterr().out

    def test_last_before_mmap_is_a_runtime_failure(self, tmp_path, capsys):
        text = "thread main ros\n  touch last w\n  exit\nend\n"
        code = main(["run", write(tmp_path, "w.txt", text), "--mode", "native"])
        assert code == EXIT_FAILURE
        assert "'last' used before any mmap" in capsys.readouterr().err

    def test_cost_file_respected(self, tmp_path, capsys):
        cost = write(tmp_path, "cost.txt", "syscall_base = 9000\n")
        main(["run", write(tmp_path, "w.txt", GOOD), "--mode", "virtual", "--cost", cost])
        out = capsys.readouterr().out
        assert "total cycles:           10500" in out  # 9000 mmap + 1500 fault

    def test_bad_cost_file(self, tmp_path):
        cost = write(tmp_path, "cost.txt", "bogus_key = 1\n")
        assert main(["run", write(tmp_path, "w.txt", GOOD), "--cost", cost]) == EXIT_PARSE


class TestCompare:
    def test_compare_table(self, tmp_path, capsys):
        code = main(["compare", write(tmp_path, "w.txt", GOOD)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "syscall" in out
        assert "total delta:" in out


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
