"""The one table of size caps.  The simulator keeps one amplitude per
tour, so most structures hold n! entries; the oracles and exhaustive
searches grow as 2^m or worse.  `check` runs before anything is
allocated, and a refusal says what the request would need.
"""

from dataclasses import dataclass
from math import factorial, log10
from typing import Callable


class TooLarge(Exception):
    """A request refused because its size exceeds a row of `CAPS`."""


@dataclass(frozen=True)
class Cap:
    """Sizes above `limit` are refused.  A request of size s holds or
    visits `units(s)` items of `unit_bytes` each; rows that bound work
    rather than memory have 0 bytes and report the count.  `note` follows
    the amount."""

    what: str
    size: str  # format of a size, e.g. "degree {}"
    limit: int
    units: Callable[[int], int]
    unit_bytes: int = 0
    note: str = ""


CAPS = {
    # degree 10 peaks at about 1 GB with its cached index tables; at 11 one
    # binary-insertion circuit's 320-MB tables alone come to 9.3 GB
    "state": Cap("state", "degree {}", 10, factorial, 16, "a copy"),
    # an int8 row and a float64 cost per tour: degree 11 takes about 1.1 GB
    "permutations": Cap("permutation table", "degree {}", 11, factorial, 12 + 8),
    "statevector": Cap("statevector", "{} qubits", 17, lambda m: 1 << m, 16, "a copy"),
    "generating check": Cap("generating check", "{} elements", 24, lambda d: 1 << d,
                            note="products"),
    "decompose sweep": Cap("decompose sweep", "degree {}", 9, factorial, note="tours a layer"),
    # (n-1)^L sequences up to the bubble length L = n(n-1)/2
    "adjacency search": Cap("adjacency search", "degree {}", 5,
                            lambda n: max(1, n - 1) ** (n * (n - 1) // 2),
                            note="candidate sequences"),
}


def _amount(units: int, unit_bytes: int) -> str:
    total = units * unit_bytes if unit_bytes else units
    if total >= 10**15:  # beyond any machine; a power of ten avoids overflow
        return f"about 10^{log10(total):.0f}" + (" bytes" if unit_bytes else "")
    if not unit_bytes:
        return f"{total:,}"
    if total >= 2**30 / 10:
        return f"{total / 2**30:.1f} GiB"
    return f"{total / 2**20:.1f} MiB"


def check(row: str, size: int) -> None:
    """Raise TooLarge when `size` exceeds the cap of `CAPS[row]`."""
    cap = CAPS[row]
    if size > cap.limit:
        need = " ".join(filter(None, (_amount(cap.units(size), cap.unit_bytes), cap.note)))
        raise TooLarge(f"{cap.what} of {cap.size.format(size)} needs {need}; "
                       f"cap is {cap.size.format(cap.limit)}")
