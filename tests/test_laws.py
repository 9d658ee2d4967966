"""Laws of the workload language: texts that mean the same run the same.

Each law is a rewrite of a text into one it must equal.  Over the golden
workloads and the committed corpus, in both modes, the rewritten text's
outcome (`test_golden.observe_generated`: the log's SHA-256, the total
cycles and the failure reason, or the error class and message) must equal
the original's:

- every `repeat` block written out its count times;
- every `func` and `override` line moved to the end of the text, or to
  its start, in their own order: a call's plan is resolved only once the
  whole text is read, so where a declaration stands does not matter.
"""

import pytest

from hrtsim.sim import Mode

from test_golden import observe_generated
from test_inert import TEXTS, Outcomes


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


def declarations_moved(text: str, first: bool) -> str:
    lines = text.splitlines()
    moved = [line for line in lines if head(line) in ("func", "override")]
    rest = [line for line in lines if head(line) not in ("func", "override")]
    return "\n".join(moved + rest if first else rest + moved) + "\n"


LAWS = {
    "repeat-unrolled": unrolled,
    "declarations-last": lambda text: declarations_moved(text, first=False),
    "declarations-first": lambda text: declarations_moved(text, first=True),
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
