"""Unit helpers for the integer-nanosecond simulation clock and byte sizes."""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def us_to_ns(us: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded)."""
    return round(us * NS_PER_US)


def ms_to_ns(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded)."""
    return round(ms * NS_PER_MS)


def s_to_ns(s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded)."""
    return round(s * NS_PER_S)


def ns_to_us(ns: int) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / NS_PER_US


def ns_to_s(ns: int) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_S


def transfer_ns(num_bytes: int, bytes_per_sec: float) -> int:
    """Time to move ``num_bytes`` at ``bytes_per_sec``, in integer ns."""
    if num_bytes <= 0:
        return 0
    if bytes_per_sec <= 0:
        raise ValueError("bytes_per_sec must be positive")
    return max(1, round(num_bytes / bytes_per_sec * NS_PER_S))


class TransferTimes(dict):
    """:func:`transfer_ns` at one rate, by byte count: ``times[num_bytes]``.

    A link moves a handful of distinct sizes (pages, stripes), so each is
    computed once and looked up after that.  At most ``MAX_SIZES`` are
    kept; a size beyond them is computed on every lookup.
    """

    MAX_SIZES = 1024

    def __init__(self, bytes_per_sec: float):
        super().__init__()
        self.bytes_per_sec = bytes_per_sec

    def __missing__(self, num_bytes: int) -> int:
        hold_ns = transfer_ns(num_bytes, self.bytes_per_sec)
        if len(self) < self.MAX_SIZES:
            self[num_bytes] = hold_ns
        return hold_ns
