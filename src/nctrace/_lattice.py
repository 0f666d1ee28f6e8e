"""Shared integer-lattice enumeration.

Shell membership is decided on exact integer squared norms, so no point near a
radius boundary is ever misclassified. Iteration order is fixed (blocks of the
first coordinate, remaining axes in C order), which makes every downstream
reduction deterministic.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np


def iter_shell(d: int, r2_min: int, r2_max: int, target: int = 1 << 22) -> Iterator[np.ndarray]:
    """Yield chunks of integer points n with r2_min < |n|^2 <= r2_max.

    Chunks are int64 arrays of shape (k, d). Points come in a fixed order; chunk
    sizes aim at `target` candidate points each. With r2_min = 0 the origin is
    excluded automatically.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    M = isqrt(r2_max)
    axis = np.arange(-M, M + 1, dtype=np.int64)
    width = axis.size
    inner = width ** (d - 1)
    rows = max(1, min(width, target // max(inner, 1)))
    for start in range(0, width, rows):
        block = axis[start : start + rows]
        mesh = np.meshgrid(block, *([axis] * (d - 1)), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        r2 = np.einsum("ij,ij->i", pts, pts)
        keep = (r2 > r2_min) & (r2 <= r2_max)
        if np.any(keep):
            yield pts[keep]


def ball_points(d: int, radius: int) -> np.ndarray:
    """All integer points with |n| <= radius, origin included, materialized. Small radii only."""
    return np.concatenate(list(iter_shell(d, -1, radius * radius)), axis=0)

