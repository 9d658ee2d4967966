"""Every input the workload language accepts changes some run, unless it
is named in `INERT` with the reason it changes none.

Each key of `PERTURBATIONS` names one input: a `func` attribute, an
`override` token, an action operand, the `repeat` count, or a non-main
body's role.  Its perturbation rewrites every site of that input in a
text and keeps the text valid: a number +1, `r` and `w` swapped, a flag
toggled, a name swapped for another defined one.  It runs over the
golden workloads and the committed corpus, in both modes.  The input is
live when some outcome differs from the original text's: the log's
SHA-256, the total cycles, the failure reason, or the error class and
message (`test_golden.observe_generated`).  A perturbed text that no
longer parses is not counted: the parser, not the input, would be what
changed.

A key that no text exercises fails.  A key listed in `INERT` must change
no outcome; one that does is stale, and fails, as in `test_reach`.  Any
other key must change some outcome.
"""

import ast
import json
from collections.abc import Callable
from pathlib import Path

import pytest

import hrtsim.workload
from hrtsim.errors import ParseError
from hrtsim.sim import Mode, parse_workload

from test_golden import GENERATED, GOLDEN, PHYS_FRAMES, observe_generated

# Inputs that are accepted, checked, and change no run: key -> why.
INERT = {
    "func-returns": "nothing the model runs reads a function's result",
    "override-args": (
        "the argument mapping is the override config's record (criterion 10), "
        "not applied to a call's arguments"
    ),
    "thread-role": (
        "a spawned body runs where its spawn puts it, whatever its role "
        "(ROADMAP item 14 gives the role a meaning)"
    ),
}

Rewrite = Callable[[list[str], set[str]], "list[str] | None"]


def bump(token: str) -> str:
    """A number or address operand plus one, in its own notation."""
    if token == "last":
        return "last+1"
    if token.startswith("last+"):
        return "last+" + bump(token[5:])
    n = int(token, 0) + 1
    return hex(n) if token.lower().startswith("0x") else str(n)


def plus_one(token: str, names: set[str]) -> str:
    return bump(token)


def other(name: str, names: set[str]) -> str | None:
    """Another defined name than name, other than main; None if none is."""
    choices = sorted(names - {name, "main"})
    return choices[0] if choices else None


def operand(i: int, change: Callable[[str, set[str]], "str | None"]) -> Rewrite:
    """Change the i-th token of a line, if the line has one."""

    def rewrite(tokens, names):
        if len(tokens) <= i:
            return None
        new = change(tokens[i], names)
        return None if new is None else tokens[:i] + [new] + tokens[i + 1:]

    return rewrite


def each_from(i: int, change: Callable[[str, set[str]], "str | None"]) -> Rewrite:
    """Change every token from the i-th on, if the line has any."""

    def rewrite(tokens, names):
        rest = [change(tok, names) for tok in tokens[i:]]
        if not rest or None in rest:
            return None
        return tokens[:i] + rest

    return rewrite


def toggle(flag: str, at: int) -> Rewrite:
    """Drop flag if the line has it, else insert it at position at."""

    def rewrite(tokens, names):
        if flag in tokens:
            return [tok for tok in tokens if tok != flag]
        return tokens[:at] + [flag] + tokens[at:]

    return rewrite


def attribute(key: str, change: Callable[[str], "str | None"]) -> Rewrite:
    """Change the value of a `func` line's key=value attribute."""

    def rewrite(tokens, names):
        found = [i for i, tok in enumerate(tokens) if tok.startswith(key + "=")]
        if not found:
            return None
        value = change(tokens[found[0]].partition("=")[2])
        if value is None:
            return None
        return tokens[:found[0]] + [f"{key}={value}"] + tokens[found[0] + 1:]

    return rewrite


def bump_list(value: str) -> str | None:
    return ",".join(bump(v) for v in value.split(",")) if value else None


def shift_mapping(tokens, names):
    """Each `args(i:j,...)` target one higher: still injective."""
    for k, tok in enumerate(tokens):
        if tok.startswith("args(") and tok != "args()":
            pairs = [pair.split(":") for pair in tok[5:-1].split(",")]
            mapping = ",".join(f"{i}:{int(j) + 1}" for i, j in pairs)
            return tokens[:k] + [f"args({mapping})"] + tokens[k + 1:]
    return None


def call_argument(token: str, names: set[str]) -> str | None:
    try:
        return bump(token)
    except ValueError:  # symbolic: a body's name
        return other(token, names)


def flip_role(tokens, names):
    if tokens[1] == "main":
        return None
    return tokens[:2] + ["hrt" if tokens[2] == "ros" else "ros"]


def swap_access(tokens, names):
    return tokens[:2] + ["w" if tokens[2] == "r" else "r"]


# key -> (the head of the lines it rewrites, the rewrite of one line's tokens)
PERTURBATIONS: dict[str, tuple[str, Rewrite]] = {
    "func-cycles": ("func", attribute("cycles", bump)),
    "func-returns": ("func", attribute("returns", bump)),
    "func-touches": ("func", attribute("touches", bump_list)),
    "override-target": ("override", operand(3, other)),
    "override-args": ("override", shift_mapping),
    "override-off": ("override", toggle("off", 4)),
    "thread-role": ("thread", flip_role),
    "repeat-count": ("repeat", operand(1, plus_one)),
    "compute-cycles": ("compute", operand(1, plus_one)),
    "mmap-length": ("mmap", operand(1, plus_one)),
    "mmap-populate": ("mmap", toggle("populate", 2)),
    "mmap-ro": ("mmap", toggle("ro", 2)),
    "munmap-base": ("munmap", operand(1, plus_one)),
    "munmap-length": ("munmap", operand(2, plus_one)),
    "touch-address": ("touch", operand(1, plus_one)),
    "touch-access": ("touch", swap_access),
    "syscall-name": ("syscall", operand(1, lambda tok, names: tok + "2")),
    "syscall-args": ("syscall", each_from(2, plus_one)),
    "spawn-target": ("spawn", operand(1, other)),
    "spawn_nested-target": ("spawn_nested", operand(1, other)),
    "join-target": ("join", operand(1, other)),
    "call_override-name": ("call_override", operand(1, lambda tok, names: tok + "2")),
    "call_override-args": ("call_override", each_from(2, call_argument)),
    "sync_call-name": ("sync_call", operand(1, other)),
}


def perturb(text: str, head: str, rewrite: Rewrite) -> str | None:
    """text with every line whose first token is head rewritten, or None
    if the rewrite changes no line; a line it leaves alone keeps its text
    and comment.  The names a rewrite may swap in are the text's bodies
    and functions."""
    lines = text.splitlines()
    code = [line.split("#", 1)[0].split() for line in lines]
    names = {tokens[1] for tokens in code if tokens[:1] in (["thread"], ["func"])}
    changed = False
    for n, tokens in enumerate(code):
        if tokens[:1] == [head]:
            new = rewrite(tokens, names)
            if new is not None:
                lines[n] = lines[n][: len(lines[n]) - len(lines[n].lstrip())] + " ".join(new)
                changed = True
    return "\n".join(lines) + "\n" if changed else None


GOLDEN_TEXTS = [
    (path.read_text(), PHYS_FRAMES.get(path.stem, 512))
    for path in sorted((GOLDEN / "workloads").glob("*.txt"))
]
TEXTS = GOLDEN_TEXTS + [(r["text"], r["frames"]) for r in json.loads(GENERATED.read_text())]


class Outcomes(dict):
    """(text, frames, mode) -> its outcome, each run once."""

    def __missing__(self, key):
        outcome = self[key] = observe_generated(*key)
        return outcome


@pytest.fixture(scope="module")
def outcomes() -> Outcomes:
    return Outcomes()


def changes(head: str, rewrite: Rewrite, texts, outcomes: Outcomes) -> bool | None:
    """Whether the perturbation changes the outcome of some text in some
    mode; None when it rewrites no text that still parses."""
    exercised = False
    for text, frames in texts:
        new = perturb(text, head, rewrite)
        if new is None:
            continue
        try:
            parse_workload(new)
        except ParseError:
            continue
        exercised = True
        for mode in Mode:
            if observe_generated(new, frames, mode) != outcomes[text, frames, mode]:
                return True
    return False if exercised else None


def stale(inert: dict, changed: dict[str, bool]) -> list[str]:
    """Keys listed as inert that change an outcome."""
    return sorted(key for key, live in changed.items() if live and key in inert)


def unlisted(inert: dict, changed: dict[str, bool]) -> list[str]:
    """Keys that change no outcome and are not listed as inert."""
    return sorted(key for key, live in changed.items() if not live and key not in inert)


@pytest.mark.parametrize("key", sorted(PERTURBATIONS))
def test_each_input_changes_a_run_unless_listed(key, outcomes):
    changed = changes(*PERTURBATIONS[key], TEXTS, outcomes)
    assert changed is not None, f"no golden or corpus text exercises {key}"
    assert stale(INERT, {key: changed}) == []
    assert unlisted(INERT, {key: changed}) == []


def test_every_inert_key_is_perturbed():
    assert set(INERT) <= set(PERTURBATIONS)


def grammar_words(function: str, variable: str) -> set[str]:
    """The strings `workload.<function>` compares variable with (`==` or
    `in` a tuple): the words that part of the grammar accepts."""
    source = Path(hrtsim.workload.__file__).read_text()
    node = next(
        n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function
    )
    words = set()
    for cmp in ast.walk(node):
        if isinstance(cmp, ast.Compare) and getattr(cmp.left, "id", None) == variable:
            for right in cmp.comparators:
                for const in ast.walk(right):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        words.add(const.value)
    return words


def test_every_operand_and_attribute_has_a_perturbation():
    # An action with operands, or a func attribute, that the grammar gains
    # must gain a key here too.
    heads = {head for head, _ in PERTURBATIONS.values()}
    assert grammar_words("_parse_action", "op") - {"exit"} <= heads
    keys = {key.split("-", 1)[1] for key in PERTURBATIONS if key.startswith("func-")}
    assert grammar_words("_parse_func", "key") == keys


def test_check_sees_a_stale_and_an_unlisted_key(outcomes):
    # A comment added to each func line changes no outcome; a compute
    # count does.  Listed the wrong way round, each is reported.
    def comment(tokens, names):
        return tokens + ["#", "inert"]

    changed = {
        "func-comment": changes("func", comment, GOLDEN_TEXTS, outcomes),
        "compute-cycles": changes(*PERTURBATIONS["compute-cycles"], GOLDEN_TEXTS, outcomes),
    }
    assert changed == {"func-comment": False, "compute-cycles": True}
    wrong = {"compute-cycles": "listed, but a count is a cost"}
    assert stale(wrong, changed) == ["compute-cycles"]
    assert unlisted(wrong, changed) == ["func-comment"]
