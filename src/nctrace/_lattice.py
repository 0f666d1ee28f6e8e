"""Shared integer-lattice enumeration.

Shell membership is decided on exact integer squared norms, so no point near a
radius boundary is ever misclassified. Iteration order is fixed (the box in C
order, cut into blocks along as few leading axes as keep a chunk within
`target`), which makes every downstream reduction deterministic.

`iter_shell` builds only the points it yields. Per prefix of the leading d-1
coordinates (itself a ball point, enumerated the same way one axis down) the
last coordinate of the annulus is the exact pair of integer ranges
[-b, -a] and [a, b], with a and b integer square roots. The chunks are those
of the box: the same points, in the same order, cut at the same places.

`iter_orbits` walks only the fundamental domain n_1 >= ... >= n_d >= 0 of the
hyperoctahedral group (coordinate permutations and sign changes) and gives each
point its orbit size, for sums whose summand is constant on orbits.

Both enumerators refuse, before building any chunk, a request whose bound on
the points it would visit exceeds POINT_BUDGET.
"""

from __future__ import annotations

from math import exp, factorial, isqrt, lgamma, log, pi
from typing import Iterator

import numpy as np

POINT_BUDGET = 2**31
# 2**d * d!, the largest orbit size, fits in int64 up to this dimension
ORBIT_MAX_D = 16


def _check_budget(d: int, r2_max: int, bound: int | float) -> None:
    if bound > POINT_BUDGET:
        shown = bound if isinstance(bound, int) else f"{bound:.4g}"
        raise ValueError(
            f"lattice enumeration in d={d} up to radius {isqrt(r2_max)} would visit up to {shown} points, "
            f"over the budget of {POINT_BUDGET}"
        )


def check_shell_budget(d: int, r2_max: int) -> None:
    """Refuse, as iter_shell does, a shell whose box of (2 floor(sqrt r2_max) + 1)^d candidates exceeds POINT_BUDGET."""
    _check_budget(d, r2_max, (2 * isqrt(r2_max) + 1) ** d)


def iter_shell(d: int, r2_min: int, r2_max: int, target: int = 1 << 22) -> Iterator[np.ndarray]:
    """Yield chunks of integer points n with r2_min < |n|^2 <= r2_max.

    Chunks are int64 arrays of shape (k, d). Points come in the C order of the
    box [-M, M]^d, M = floor(sqrt r2_max); a chunk holds the shell points of a
    block of the box of about `target` candidates, for every d, and empty
    blocks yield nothing. With r2_min = 0 the origin is excluded
    automatically. A box of more than POINT_BUDGET candidates raises
    ValueError.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    check_shell_budget(d, r2_max)
    M = isqrt(r2_max)
    width = 2 * M + 1
    # a block is `rows` values of the leading `lead` axes times the whole box of the rest
    lead = 1
    while lead < d and width ** (d - lead) > target:
        lead += 1
    per_head = width ** (d - lead)
    heads = width**lead
    rows = max(1, min(heads, target // per_head))
    for start in range(0, heads, rows):
        pts = _last_axis(d, M, r2_min, r2_max, start * per_head, min(start + rows, heads) * per_head)[0]
        if len(pts):
            yield pts


def _ball_range(d: int, M: int, r2_max: int, start: int, stop: int) -> tuple:
    """Points of [-M, M]^d with |n|^2 <= r2_max and C-order flat index in [start, stop): (points, |n|^2, flat index)."""
    if d == 0:
        # the one empty prefix; callers ask for it with start <= 0 < stop
        return np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    pts, norm2, zero, row, last = _last_axis(d, M, -1, r2_max, start, stop)
    return pts, norm2[row] + last * last, zero[row] + last


def _last_axis(d: int, M: int, r2_min: int, r2_max: int, start: int, stop: int) -> tuple:
    """Points of [-M, M]^d with r2_min < |n|^2 <= r2_max and flat index in [start, stop), in that order.

    Returns (points, |prefix|^2, flat index of prefix + (0,), row, last): point
    i is prefix row[i] followed by last[i]. Per prefix of d-1 coordinates the
    last one runs over [-b, -max(a, 1)] and [a, b], a = least c >= 0 with
    c^2 > r2_min - |prefix|^2 and b = floor(sqrt(r2_max - |prefix|^2)), both
    clipped to the flat range.
    """
    width = 2 * M + 1
    prefixes, norm2, flat = _ball_range(d - 1, M, r2_max, start // width, -(-stop // width))
    zero = flat * width + M
    b = _isqrt(r2_max - norm2)
    q = r2_min - norm2
    a = np.where(q < 0, 0, _isqrt(np.maximum(q, 0)) + 1)
    first = np.maximum(start - zero, -M)
    final = np.minimum(stop - 1 - zero, M)
    lo = np.column_stack([np.maximum(-b, first), np.maximum(a, first)]).ravel()
    hi = np.column_stack([np.minimum(-np.maximum(a, 1), final), np.minimum(b, final)]).ravel()
    total = int(np.sum(np.maximum(hi - lo + 1, 0)))
    if total == 0:
        row = last = np.zeros(0, dtype=np.int64)
    else:
        idx, last = _expand(lo, hi, 0, total)
        row = idx >> 1
    pts = np.empty((total, d), dtype=np.int64)
    pts[:, :-1] = prefixes[row]
    pts[:, -1] = last
    return pts, norm2, zero, row, last


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(a)) of a nonnegative int64 array, exact."""
    s = np.sqrt(a.astype(float)).astype(np.int64)
    s -= s * s > a
    s += (s + 1) * (s + 1) <= a
    return s


def _next_coordinate(norm2: np.ndarray, last: np.ndarray, r2_min: int, r2_max: int, left: int) -> tuple:
    """Range [lo, hi] of the next coordinate c <= last of each prefix, `left` coordinates c included still to choose.

    hi keeps |n|^2 <= r2_max; lo is the least c whose completion by `left - 1`
    more coordinates, each at most c, can exceed r2_min. For the last
    coordinate (left = 1) the range is exact.
    """
    hi = np.minimum(last, _isqrt(r2_max - norm2))
    q = r2_min - norm2
    lo = np.where(q < 0, 0, _isqrt(np.maximum(q, 0) // left) + 1)
    return lo, hi


def _orbit_sizes(pts: np.ndarray) -> np.ndarray:
    """2^(#nonzero) * d! / prod(run lengths of equal values)! for rows sorted in descending order."""
    k, d = pts.shape
    run = np.ones(k, dtype=np.int64)
    stabiliser = np.ones(k, dtype=np.int64)
    nonzero = (pts[:, 0] != 0).astype(np.int64)
    for j in range(1, d):
        # run length of the value at column j so far; the product of these is prod(runs)!
        run = run * (pts[:, j] == pts[:, j - 1]) + 1
        stabiliser *= run
        nonzero += pts[:, j] != 0
    return (factorial(d) // stabiliser) << nonzero


def _orbit_bound(d: int, r2_max: int) -> float:
    """Upper bound on the points n_1 >= ... >= n_d >= 0 with |n|^2 <= r2_max.

    n -> m = n + (d-1, ..., 1, 0) is one-to-one onto strictly decreasing m >= 0,
    and the unit cubes m + [0,1)^d are disjoint and lie in the sorted,
    nonnegative part of the ball of radius |n| + |(d-1, ..., 0)| + sqrt(d),
    whose volume is V_d R^d / (2^d d!). R is rounded up to an integer and the
    volume computed in logs and capped at e^700, far over any budget, so that
    no radius overflows a float.
    """
    radius = isqrt(r2_max) + isqrt((d - 1) * d * (2 * d - 1) // 6) + isqrt(d) + 3  # each square root rounded up
    log_volume = d * log(radius) + d / 2 * log(pi) - lgamma(d / 2 + 1) - d * log(2) - lgamma(d + 1)
    return exp(min(log_volume, 700.0))


def iter_orbits(d: int, r2_min: int, r2_max: int, target: int = 1 << 22) -> Iterator[tuple]:
    """Yield (points, orbit_sizes) over n_1 >= ... >= n_d >= 0 with r2_min < |n|^2 <= r2_max.

    Every integer point of the shell lies in the orbit of exactly one yielded
    point under coordinate permutations and sign changes, and orbit_sizes
    (int64) counts that orbit, so the orbit sizes sum to the shell's point
    count. Coordinates are chosen one at a time, each an integer range per
    prefix; the last coordinate's range is exact, so every point built is
    yielded. Points come in lexicographic order, at most `target` rows per
    chunk, and no level of prefixes holds more than `target` rows at once.
    A bound (_orbit_bound) over POINT_BUDGET, or d > ORBIT_MAX_D, raises
    ValueError.
    """
    if not 1 <= d <= ORBIT_MAX_D:
        raise ValueError(f"dimension must be in 1..{ORBIT_MAX_D}, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    M = isqrt(r2_max)
    _check_budget(d, r2_max, _orbit_bound(d, r2_max))
    start = (np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), np.full(1, M, dtype=np.int64))
    yield from _complete(*start, d, r2_min, r2_max, target)


def _complete(heads, norm2, last, left: int, r2_min: int, r2_max: int, target: int) -> Iterator[tuple]:
    """Complete each prefix row of `heads` by `left` more coordinates, at most `target` new rows at a time."""
    lo, hi = _next_coordinate(norm2, last, r2_min, r2_max, left)
    total = int(np.sum(np.maximum(hi - lo + 1, 0)))
    for start in range(0, total, target):
        idx, values = _expand(lo, hi, start, min(start + target, total))
        pts = np.column_stack([heads[idx], values])
        if left == 1:
            yield pts, _orbit_sizes(pts)
        else:
            yield from _complete(pts, norm2[idx] + values * values, values, left - 1, r2_min, r2_max, target)


def _expand(lo: np.ndarray, hi: np.ndarray, start: int, stop: int) -> tuple:
    """Flat positions start..stop (start < stop) of the concatenated ranges [lo_i, hi_i]: (range index, value) each."""
    sizes = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(sizes)
    # ranges first..final hold the positions; clip the two end ranges to them
    first, final = np.searchsorted(ends, [start, stop - 1], side="right")
    take = sizes[first : final + 1].copy()
    take[0] -= start - (ends[first] - sizes[first])
    take[-1] -= ends[final] - stop
    idx = np.repeat(np.arange(first, final + 1), take)
    offset = ends - sizes - lo  # flat position of value 0 in each range
    return idx, np.arange(start, stop, dtype=np.int64) - offset[idx]


def ball_points(d: int, radius: int) -> np.ndarray:
    """All integer points with |n| <= radius, origin included, materialized. Small radii only."""
    return np.concatenate(list(iter_shell(d, -1, radius * radius)), axis=0)
