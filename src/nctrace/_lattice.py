"""Shared integer-lattice enumeration.

Shell membership is decided on exact integer squared norms, so no point near a
radius boundary is ever misclassified. Iteration order is fixed (the box in C
order, cut into blocks along as few leading axes as keep a chunk within
`target`), which makes every downstream reduction deterministic.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np


def _digits(flat: np.ndarray, width: int, count: int) -> np.ndarray:
    """Base-`width` digits of each flat index, most significant first: shape (len(flat), count)."""
    return flat[:, None] // width ** np.arange(count - 1, -1, -1, dtype=np.int64) % width


def iter_shell(d: int, r2_min: int, r2_max: int, target: int = 1 << 22) -> Iterator[np.ndarray]:
    """Yield chunks of integer points n with r2_min < |n|^2 <= r2_max.

    Chunks are int64 arrays of shape (k, d). Points come in a fixed order; chunk
    sizes aim at `target` candidate points each, for every d. With r2_min = 0
    the origin is excluded automatically.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    M = isqrt(r2_max)
    width = 2 * M + 1
    # a chunk is `rows` values of the leading `lead` axes times the whole box of the rest
    lead = 1
    while lead < d and width ** (d - lead) > target:
        lead += 1
    tail = _digits(np.arange(width ** (d - lead), dtype=np.int64), width, d - lead) - M
    heads = width**lead
    rows = max(1, min(heads, target // len(tail)))
    for start in range(0, heads, rows):
        head = _digits(np.arange(start, min(start + rows, heads), dtype=np.int64), width, lead) - M
        pts = np.empty((len(head), len(tail), d), dtype=np.int64)
        pts[:, :, :lead] = head[:, None, :]
        pts[:, :, lead:] = tail
        pts = pts.reshape(-1, d)
        r2 = np.einsum("ij,ij->i", pts, pts)
        keep = (r2 > r2_min) & (r2 <= r2_max)
        if np.any(keep):
            yield pts[keep]


def ball_points(d: int, radius: int) -> np.ndarray:
    """All integer points with |n| <= radius, origin included, materialized. Small radii only."""
    return np.concatenate(list(iter_shell(d, -1, radius * radius)), axis=0)
