"""Exception hierarchy and the text-line reader shared across the simulator."""

from collections.abc import Iterator


class SimError(Exception):
    """Base class for all simulator errors."""


class NonCanonicalAddressError(SimError):
    """A virtual address outside 64 bits, or whose bits 47..63 are not sign-extended."""


class AllocationError(SimError):
    """Physical frame pool exhausted."""


class BusyError(SimError):
    """A hypercall was issued while the shared data page was not idle."""


class ProtocolError(SimError):
    """Event-channel protocol violation (bad endpoint, double completion, ...)."""


class InstallError(SimError):
    """Kernel image installation failed or was attempted in the wrong state."""


class PartitionError(SimError):
    """A core was used outside its partition."""


class BootError(SimError):
    """No booted kernel core available for the requested operation."""


class LifecycleError(SimError):
    """Invalid thread state transition (double exit, exited parent, ...)."""


class SymbolError(SimError):
    """Unknown function symbol."""


class FormatError(SimError):
    """Malformed fat-binary container."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class ParseError(SimError):
    """Malformed text input (workload, cost model, override config)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DeadlockError(SimError):
    """No runnable context remains while events are outstanding."""

    def __init__(self, message: str, events: list | None = None):
        super().__init__(message)
        self.events = events or []


class DoubleFaultError(SimError):
    """A retried access kept faulting after re-merge and re-forward."""


class UsageError(SimError):
    """API misuse by the caller (join on a non-partner, ...)."""


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line that has text before any `#`: (its number from 1, that text stripped)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
