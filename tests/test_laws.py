"""Laws of the workload language: texts that mean the same run the same.

Each law is a rewrite of a text into one it must equal.  Over the golden
workloads and the committed corpus, in both modes, the rewritten text's
outcome (`test_golden.observe_generated`: the log's SHA-256, the total
cycles and the failure reason, or the error class and message) must equal
the original's:

- every `repeat` block written out its count times;
- every `repeat a*b` block written as `repeat a` around `repeat b`, and
  every action in a body written as a `repeat 1` block of it;
- every `func` and `override` line moved to the end of the text, or to
  its start, in their own order: a call's plan is resolved only once the
  whole text is read, so where a declaration stands does not matter;
- a comment line and a blank line inserted before every line, a comment
  after it, and its indentation changed.  Texts that the parser rejects
  keep their error under this law too, at the same line of the original.
"""

from math import isqrt

import pytest

from hrtsim.errors import ParseError
from hrtsim.sim import Mode, parse_workload

from test_golden import observe_generated
from test_inert import GOLDEN_TEXTS, TEXTS, Outcomes


def head(line: str) -> str | None:
    tokens = line.split("#", 1)[0].split()
    return tokens[0] if tokens else None


def unrolled(text: str) -> str:
    """text with every `repeat N ... end` block replaced by N copies of its
    lines, innermost first."""
    blocks: list[list[str]] = [[]]  # the text, then each open repeat block
    counts: list[int] = []
    for line in text.splitlines():
        word = head(line)
        if word == "repeat":
            counts.append(int(line.split()[1], 0))
            blocks.append([])
        elif word == "end" and counts:
            block = blocks.pop()
            blocks[-1] += block * counts.pop()
        else:
            blocks[-1].append(line)
    return "\n".join(blocks[0]) + "\n"


def factors(n: int) -> tuple[int, int]:
    """(a, b) with a * b == n: a is n's least factor above 1, or n itself
    when it has none."""
    a = next((a for a in range(2, isqrt(n) + 1) if n % a == 0), n) if n > 1 else n
    return a, (n // a if a else 1)


def repeats_split(text: str) -> str:
    """text with every `repeat a*b` block written as `repeat a` around
    `repeat b`."""
    out: list[str] = []
    open_repeats = 0
    for line in text.splitlines():
        word = head(line)
        if word == "repeat":
            a, b = factors(int(line.split()[1], 0))
            out += [f"repeat {a}", f"repeat {b}"]
            open_repeats += 1
        elif word == "end" and open_repeats:
            out += ["end", "end"]
            open_repeats -= 1
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def actions_in_repeat_once(text: str) -> str:
    """text with every action line of a body written as `repeat 1`, the
    line, `end`."""
    out: list[str] = []
    depth = 0  # open bodies and repeat blocks
    for line in text.splitlines():
        word = head(line)
        if depth and word not in (None, "repeat", "end"):
            out += ["repeat 1", line, "end"]
            continue
        depth += word in ("thread", "repeat")
        depth -= word == "end"
        out.append(line)
    return "\n".join(out) + "\n"


def declarations_moved(text: str, first: bool) -> str:
    lines = text.splitlines()
    moved = [line for line in lines if head(line) in ("func", "override")]
    rest = [line for line in lines if head(line) not in ("func", "override")]
    return "\n".join(moved + rest if first else rest + moved) + "\n"


def commented(text: str) -> str:
    """text with a comment line and a blank line before each line, a
    comment after it, and its indentation changed: line k is line 3k."""
    return "".join(
        f"# inserted before {k}\n\n\t {line.strip()}  # line {k}\n"
        for k, line in enumerate(text.splitlines(), 1)
    )


LAWS = {
    "repeat-unrolled": unrolled,
    "repeat-split": repeats_split,
    "repeat-1-around-each-action": actions_in_repeat_once,
    "declarations-last": lambda text: declarations_moved(text, first=False),
    "declarations-first": lambda text: declarations_moved(text, first=True),
    "comments-inserted": commented,
}


@pytest.fixture(scope="module")
def outcomes() -> Outcomes:
    return Outcomes()


@pytest.mark.parametrize("law", sorted(LAWS))
def test_law_keeps_every_outcome(law, outcomes):
    rewrite, differ, rewritten = LAWS[law], [], 0
    for index, (text, frames) in enumerate(TEXTS):
        new = rewrite(text)
        rewritten += new.splitlines() != text.splitlines()
        for mode in Mode:
            if observe_generated(new, frames, mode) != outcomes[text, frames, mode]:
                differ.append((index, mode.value))
    assert differ == []
    assert rewritten  # non-vacuous: the law rewrites some text


def test_unrolled_writes_out_nested_blocks():
    text = "thread main ros\n  repeat 2\n    compute 1\n    repeat 0\n      compute 2\n    end\n" \
        "  end\n  exit\nend\n"
    assert unrolled(text) == "thread main ros\n    compute 1\n    compute 1\n  exit\nend\n"


def test_repeat_split_nests_the_factors():
    text = "thread main ros\n  repeat 12\n    repeat 7\n      compute 1\n    end\n  end\n" \
        "  repeat 0\n    compute 2\n  end\n  exit\nend\n"
    assert repeats_split(text) == (
        "thread main ros\nrepeat 2\nrepeat 6\nrepeat 7\nrepeat 1\n      compute 1\nend\nend\n"
        "end\nend\nrepeat 0\nrepeat 1\n    compute 2\nend\nend\n  exit\nend\n"
    )


def test_repeat_once_wraps_only_actions():
    text = "func f cycles=1\nthread main ros\n  repeat 2\n    compute 1\n  end\n  exit\nend\n"
    assert actions_in_repeat_once(text) == (
        "func f cycles=1\nthread main ros\n  repeat 2\nrepeat 1\n    compute 1\nend\n  end\n"
        "repeat 1\n  exit\nend\nend\n"
    )


def broken(text: str) -> list[str]:
    """Variants of text that the parser should reject: its last line
    dropped, a stray line appended, a negative count in main, a repeat left
    open in main, and main declared kernel-mode."""
    lines = text.splitlines()
    main = next(i for i, line in enumerate(lines) if line.split()[:2] == ["thread", "main"])
    return [
        "\n".join(lines[:-1]) + "\n",
        text + "bogus line\n",
        "\n".join(lines[: main + 1] + ["  compute -1"] + lines[main + 1:]) + "\n",
        "\n".join(lines[: main + 1] + ["  repeat 2"] + lines[main + 1:]) + "\n",
        text.replace("thread main ros", "thread main hrt", 1),
    ]


def parse_error(text: str) -> tuple[str, int] | None:
    """The message and line of the ParseError text raises, if any."""
    try:
        parse_workload(text)
    except ParseError as exc:
        return str(exc).removeprefix(f"line {exc.line}: "), exc.line
    return None


def test_comments_keep_each_parse_error_at_its_line():
    checked = []
    for text, _ in GOLDEN_TEXTS:
        for bad in broken(text):
            error = parse_error(bad)
            if error is not None:
                message, line = error
                assert parse_error(commented(bad)) == (message, 3 * line), bad
                checked.append(message)
    assert len(checked) >= 4 * len(GOLDEN_TEXTS)  # non-vacuous: most variants are rejected
