"""Build-side artifacts: fat binary container, overrides, symbol cache.

Container layout (little-endian, no padding):
    bytes 0-7    magic ``MVFATBIN``
    bytes 8-11   version (u32, currently 1)
    bytes 12-15  app descriptor length (u32)
    bytes 16-19  embedded image length (u32)
    then the two payloads back to back; total length must match exactly.

Payloads are canonical JSON so that embed/parse round-trips bit-exactly.
The container is the toolchain's format, not a step of every run: set-up
installs the `AeroKernelImage` it builds (`sim.kernel_image`) as it is,
and the tests check that the container carries each such image unchanged.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import FormatError, ParseError, text_lines
from .mem import HIGHER_BASE

MAGIC = b"MVFATBIN"
VERSION = 1
_HEADER = struct.Struct("<8sIII")


@dataclass(frozen=True)
class AppDescriptor:
    name: str
    workload: str = ""


@dataclass(frozen=True)
class AeroKernelImage:
    """Kernel payload: entry symbol, symbol table, payload size in bytes."""

    entry: str
    symbol_table: dict[str, int]
    payload_size: int

    def __post_init__(self):
        for name, addr in self.symbol_table.items():
            if addr < HIGHER_BASE:
                raise ValueError(f"symbol {name} not in the higher half: 0x{addr:x}")


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def embed(app: AppDescriptor, image: AeroKernelImage) -> bytes:
    """Serialize app + kernel image into one container blob."""
    app_bytes = _canon_json({"name": app.name, "workload": app.workload})
    image_bytes = _canon_json(
        {
            "entry": image.entry,
            "symbols": dict(sorted(image.symbol_table.items())),
            "payload_size": image.payload_size,
        }
    )
    header = _HEADER.pack(MAGIC, VERSION, len(app_bytes), len(image_bytes))
    return header + app_bytes + image_bytes


def parse_fat_binary(blob: bytes) -> tuple[AppDescriptor, AeroKernelImage]:
    """Strict inverse of embed; any header or length mismatch is rejected."""
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", offset=len(blob))
    magic, version, app_len, image_len = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=8)
    expected = _HEADER.size + app_len + image_len
    if len(blob) != expected:
        raise FormatError(
            f"length mismatch: header says {expected}, got {len(blob)}",
            offset=min(expected, len(blob)),
        )
    app_bytes = blob[_HEADER.size : _HEADER.size + app_len]
    image_bytes = blob[_HEADER.size + app_len :]
    try:
        app_obj = json.loads(app_bytes)
        image_obj = json.loads(image_bytes)
        app = AppDescriptor(name=app_obj["name"], workload=app_obj.get("workload", ""))
        image = AeroKernelImage(
            entry=image_obj["entry"],
            symbol_table={k: int(v) for k, v in image_obj["symbols"].items()},
            payload_size=int(image_obj["payload_size"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"corrupt payload: {exc}", offset=_HEADER.size) from None
    return app, image


@dataclass(frozen=True)
class OverrideEntry:
    aero_name: str
    arg_mapping: tuple[tuple[int, int], ...]  # (legacy position, target position)
    enabled: bool = True

    def __post_init__(self):
        targets = [t for _, t in self.arg_mapping]
        if len(set(targets)) != len(targets):
            raise ValueError("argument mapping targets must be injective")


# Interpositions on the standard thread routines are always present.
DEFAULT_OVERRIDES: dict[str, OverrideEntry] = {
    "pthread_create": OverrideEntry("hrt_thread_create", ((2, 0), (3, 1))),
    "pthread_join": OverrideEntry("hrt_thread_join", ((0, 0),)),
    "pthread_exit": OverrideEntry("hrt_thread_exit", ()),
}


def default_override_map() -> dict[str, OverrideEntry]:
    return dict(DEFAULT_OVERRIDES)


def parse_override(tokens: list[str], lineno: int) -> tuple[str, OverrideEntry]:
    """Parse one `override <legacy> -> <aero> [args(i:j,...)] [off]` line, split."""
    if tokens[0] != "override":
        raise ParseError(f"expected 'override', got {tokens[0]!r}", lineno)
    if len(tokens) < 4 or tokens[2] != "->":
        raise ParseError("expected 'override <legacy> -> <aero> ...'", lineno)
    legacy, aero = tokens[1], tokens[3]
    mapping: tuple[tuple[int, int], ...] = ()
    enabled = True
    for tok in tokens[4:]:
        if tok == "off":
            enabled = False
        elif tok.startswith("args(") and tok.endswith(")"):
            pairs = []
            body = tok[5:-1]
            if body:
                for part in body.split(","):
                    src, sep, dst = part.partition(":")
                    if not sep:
                        raise ParseError(f"bad argument pair {part!r}", lineno)
                    try:
                        pairs.append((int(src), int(dst)))
                    except ValueError:
                        raise ParseError(f"bad argument pair {part!r}", lineno) from None
            mapping = tuple(pairs)
        else:
            raise ParseError(f"unexpected token {tok!r}", lineno)
    try:
        entry = OverrideEntry(aero, mapping, enabled)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return legacy, entry


def parse_override_config(text: str) -> tuple[dict[str, OverrideEntry], list[str]]:
    """Parse a config file into an override map seeded with the defaults.

    Returns (map, warnings); a duplicated legacy name wins last and emits
    a warning diagnostic.
    """
    overrides = default_override_map()
    warnings: list[str] = []
    seen: set[str] = set()
    for lineno, line in text_lines(text):
        legacy, entry = parse_override(line.split(), lineno)
        if legacy in seen:
            warnings.append(f"line {lineno}: duplicate override for {legacy}, last wins")
        seen.add(legacy)
        overrides[legacy] = entry
    return overrides, warnings


@dataclass
class SymbolCache:
    """LRU name -> address cache for kernel symbol resolution."""

    capacity: int = 256
    hits: int = 0
    misses: int = 0
    _entries: OrderedDict[str, int] = field(default_factory=OrderedDict)

    def lookup(self, name: str) -> int | None:
        addr = self._entries.get(name)
        if addr is None:
            self.misses += 1
            return None
        self._entries.move_to_end(name)
        self.hits += 1
        return addr

    def insert(self, name: str, addr: int) -> None:
        self._entries[name] = addr
        self._entries.move_to_end(name)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
