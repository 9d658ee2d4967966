"""Cycle cost model and its `key = value` config format.

Defaults reproduce the measured round-trip latency table at 2.2 GHz:
merger ~33 K cycles (15 us), asynchronous call ~25 K (11 us),
synchronous call 1060 / 790 cycles (482 / 359 ns) for different / same
socket.  The forwarding overhead of 1500 cycles per event is the basis
of the benchmark overhead arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ParseError, text_lines

# Fitted so that forwarding roughly doubles the per-syscall cost.
DEFAULT_SYSCALL_BASE = 1500


# The channel costs that must not decrease in this order.
ORDERED = ("sync_call_same_socket", "sync_call_diff_socket", "async_call", "merger")


@dataclass
class CostModel:
    clock_hz: float = 2.2e9
    hypercall: int = 500
    forward_overhead: int = 1500
    merger: int = 33000
    async_call: int = 25000
    sync_call_same_socket: int = 790
    sync_call_diff_socket: int = 1060
    syscall_base: int = DEFAULT_SYSCALL_BASE
    pagefault_base: int = 1500
    symbol_lookup: int = 200
    cache_hit: int = 20

    def __post_init__(self):
        if not 0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be finite and > 0")
        for name in _FIELD_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"cost {name} must be >= 0")
        ordered = [getattr(self, name) for name in ORDERED]
        if ordered != sorted(ordered):
            raise ValueError("expected " + " <= ".join(ORDERED))

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def latency_table(self) -> dict[str, tuple[int, float]]:
        """Interaction name -> (cycles, seconds) for the four channel paths."""
        return {
            "address_space_merger": (self.merger, self.seconds(self.merger)),
            "asynchronous_call": (self.async_call, self.seconds(self.async_call)),
            "synchronous_call_diff_socket": (
                self.sync_call_diff_socket,
                self.seconds(self.sync_call_diff_socket),
            ),
            "synchronous_call_same_socket": (
                self.sync_call_same_socket,
                self.seconds(self.sync_call_same_socket),
            ),
        }


# The fields in declaration order, read once: `__post_init__` checks them on
# every `System()`.
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(CostModel))


def load_cost_model(text: str) -> CostModel:
    """Parse `key = value` lines; missing keys keep their defaults.  Costs
    out of `ORDERED`'s order name the last line that set one of them."""
    values: dict[str, float] = {}
    ordered_line = None
    for lineno, line in text_lines(text):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_NAMES:
            raise ParseError(f"unknown cost key {key!r}", lineno)
        try:
            number = float(val) if key == "clock_hz" else int(val, 0)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {val!r}", lineno) from exc
        if number < 0:
            raise ParseError(f"negative value for {key}", lineno)
        if key == "clock_hz" and not 0 < number < math.inf:
            raise ParseError(f"clock_hz must be finite and > 0, got {val!r}", lineno)
        values[key] = number
        if key in ORDERED:
            ordered_line = lineno
    try:
        return CostModel(**values)
    except ValueError as exc:
        raise ParseError(str(exc), ordered_line) from exc
