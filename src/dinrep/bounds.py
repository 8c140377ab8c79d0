"""Closed-form palette bounds and exact values for the named families.

All formulas use exact integer arithmetic; floors are integer division.
"""

from __future__ import annotations

from .digraph import is_int


def general_upper_bound(n: int) -> int:
    """Palette bound for any DAG on n vertices: floor(5n^2/8 - 3n/4 + 1).

    Exact for even n; for odd n this is the floored evaluation of the even
    formula (the construction route certifies only the even case).
    """
    if not is_int(n) or n < 2:
        raise ValueError(f"general upper bound needs n >= 2, got {n!r}")
    return (5 * n * n - 6 * n + 8) // 8


def lemma_upper_bound(n: int) -> int:
    """Pair-blocking construction bound for even n: 5n^2/8 - n/4."""
    if not is_int(n) or n < 2 or n % 2:
        raise ValueError(f"pair-blocking bound needs even n >= 2, got {n!r}")
    return (5 * n * n - 2 * n) // 8


def directed_path_din(n: int) -> int:
    """Exact minimum palette of the directed path on n vertices: floor((n+1)^2/4)."""
    if not is_int(n) or n < 2:
        raise ValueError(f"directed path needs n >= 2, got {n!r}")
    return (n + 1) ** 2 // 4


def source_arc_path_din(n: int) -> int:
    """Exact minimum palette of the source arc-path: floor(n^2/2)."""
    if not is_int(n) or n < 4:
        raise ValueError(f"source arc-path value needs n >= 4, got {n!r}")
    return n * n // 2


def augmented_din(n: int) -> int:
    """Exact minimum palette of the augmented family (even n >= 8)."""
    if not is_int(n) or n < 8 or n % 2:
        raise ValueError(f"augmented family needs even n >= 8, got {n!r}")
    return n * n // 2 + (n - 2) ** 2 // 16 - 1


def p_intersection_upper_bound(din: int, p: int) -> int:
    """Bound for the p-intersection variant: din + p - 1.

    Adding p - 1 globally shared colors to every vertex turns a valid
    1-intersection representation into a valid p-intersection one.
    """
    if not is_int(din) or din < 1:
        raise ValueError(f"din must be >= 1, got {din!r}")
    if not is_int(p) or p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    return din + p - 1
