"""Subset-of-[n] helpers on integer bitmasks.

Element i of the ground set {0, ..., n-1} is present in a mask iff bit i
is set.  Only the low n bits of a mask may be set.
"""

from __future__ import annotations

from typing import Iterator


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the element indices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def elements_of(mask: int) -> list[int]:
    return list(bits(mask))
