"""Shared integer-lattice enumeration.

Shell membership is decided on exact integer squared norms, so no point near a
radius boundary is ever misclassified. Iteration order is fixed
(lexicographic), which makes every downstream reduction deterministic.

Both enumerators run one walk (`_complete`): coordinates are chosen one at a
time, each as integer ranges per prefix given by a range rule, and the points
are built at most CHUNK rows at a time, level by level. A chunk takes runs of
consecutive values from consecutive ranges, and is filled by repeating each
range's prefix row, prefix |n|^2 and value offset over its run; no per-point
index is built. The last coordinate's ranges are exact, so every point built
is yielded.

`iter_shell` walks the whole lattice: each coordinate but the last runs over
[-b, b], and the last over the exact pair [-b, -a] and [a, b] of the annulus,
with a and b integer square roots.

`iter_orbits` walks only the fundamental domain n_1 >= ... >= n_d >= 0 of the
hyperoctahedral group (coordinate permutations and sign changes) and gives each
point its orbit size, for sums whose summand is constant on orbits, and its
exact squared norm, which the walk has built anyway. Within a run of the last
coordinate only the first and last rows can lie on a wall n_d = 0 or
n_d = n_(d-1), so only those two are classified; the rows between share their
prefix's orbit size.

Both enumerators refuse, before building any chunk, a request whose bound on
the points it would visit exceeds POINT_BUDGET.
"""

from __future__ import annotations

from functools import partial
from math import exp, factorial, isqrt, lgamma, log, pi
from typing import Iterator

import numpy as np

POINT_BUDGET = 2**31
# rows per chunk of every walk, read at call time; chunk edges fix the summation order of dixmier._orbit_sums. Suite
# wall_time_s at 2^12, 2^13, 2^14, 2^15, 2^16 (the range of the medians of three sweeps of 7-15 fresh processes each
# on a shared 2-vCPU machine): `torus-trace --d 2 --nmax 2048` 0.044-0.072, 0.037-0.059, 0.033-0.054, 0.040-0.063,
# 0.045-0.065 s; `--d 3 --nmax 192` 0.043-0.066, 0.062-0.066, 0.047-0.060, 0.048-0.072, 0.058-0.080 s;
# `symbol-compactness --d 2` summed over seeds 0-11, 0.47-0.69, 0.50-0.80, 0.57-0.81, 0.61-0.83, 0.74-0.86 s
CHUNK = 1 << 13
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
    """Refuse, as iter_shell does, a shell whose bounding box of (2 floor(sqrt r2_max) + 1)^d points exceeds POINT_BUDGET."""
    _check_budget(d, r2_max, (2 * isqrt(r2_max) + 1) ** d)


def check_orbit_budget(d: int, r2_max: int) -> None:
    """Refuse, as iter_orbits does, a fundamental domain whose point bound (_orbit_bound) exceeds POINT_BUDGET."""
    _check_budget(d, r2_max, _orbit_bound(d, r2_max))


def iter_shell(d: int, r2_min: int, r2_max: int) -> Iterator[np.ndarray]:
    """Yield chunks of integer points n with r2_min < |n|^2 <= r2_max.

    Chunks are nonempty int64 arrays of shape (k, d) with k <= CHUNK, and
    points come in lexicographic order. With r2_min = 0 the origin is excluded
    automatically. A request over budget (check_shell_budget) raises ValueError.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    check_shell_budget(d, r2_max)
    for pts, _, _ in _complete(*_root(), d, partial(_shell_coordinate, r2_min, r2_max)):
        yield pts


def _shell_coordinate(r2_min: int, r2_max: int, heads: np.ndarray, norm2: np.ndarray, left: int) -> tuple:
    """Ranges of the next coordinate of a shell point, `left` coordinates c included still to choose.

    With b = floor(sqrt(r2_max - |prefix|^2)) a coordinate before the last runs
    over [-b, b]; the last one over [-b, -max(a, 1)] and [a, b], a = least
    c >= 0 with c^2 > r2_min - |prefix|^2.
    """
    b = _isqrt(r2_max - norm2)
    if left > 1:
        return -b[:, None], b[:, None]
    q = r2_min - norm2
    a = np.where(q < 0, 0, _isqrt(np.maximum(q, 0)) + 1)
    return np.column_stack([-b, a]), np.column_stack([-np.maximum(a, 1), b])


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(a)) of a nonnegative int64 array, exact."""
    s = np.sqrt(a.astype(float)).astype(np.int64)
    s -= s * s > a
    s += (s + 1) * (s + 1) <= a
    return s


def _domain_coordinate(r2_min: int, r2_max: int, heads: np.ndarray, norm2: np.ndarray, left: int) -> tuple:
    """Range [lo, hi] of the next coordinate c <= last of each prefix, `left` coordinates c included still to choose.

    hi keeps |n|^2 <= r2_max; lo is the least c whose completion by `left - 1`
    more coordinates, each at most c, can exceed r2_min. For the last
    coordinate (left = 1) the range is exact.
    """
    hi = _isqrt(r2_max - norm2)
    if heads.shape[1]:
        hi = np.minimum(hi, heads[:, -1])
    q = r2_min - norm2
    lo = np.where(q < 0, 0, _isqrt(np.maximum(q, 0) // left) + 1)
    return lo[:, None], hi[:, None]


def _orbit_table(d: int) -> np.ndarray:
    """Orbit size of each pattern code of _orbit_sizes: 2^(#nonzero) * d! / prod(run lengths of equal values)!.

    Bit j-1 of a code (j = 1..d-1) says n_(j+1) = n_j, bit d-1 that n_d = 0. The
    runs of equal values follow from the first d-1 bits, and the zeros of a
    sorted nonnegative point are its last run when n_d = 0.
    """
    codes = np.arange(1 << d, dtype=np.int64)
    run = np.ones(1 << d, dtype=np.int64)
    stabiliser = np.ones(1 << d, dtype=np.int64)
    for j in range(1, d):
        # run length of the value at column j so far; the product of these is prod(runs)!
        run = run * ((codes >> (j - 1)) & 1) + 1
        stabiliser *= run
    zeros = ((codes >> (d - 1)) & 1) * run
    return (factorial(d) // stabiliser) << (d - zeros)


def _orbit_sizes(pts: np.ndarray, runs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Orbit sizes of a chunk of _complete with its runs, looked up in table = _orbit_table(d) by pattern code.

    Along a run the prefix is fixed and n_d increases, so only the run's first
    row can have n_d = 0 and only its last n_d = n_(d-1). The rows between
    take their prefix's code, and only each run's two edge rows are
    classified. The edges of a run of length 0 are the rows either side of
    it, edges of their own runs, since a chunk's first and last runs are
    never empty.
    """
    d = pts.shape[1]
    last = np.cumsum(runs) - 1
    edges = np.concatenate([last - (runs - 1), last])
    rows = pts[edges]
    code = (rows[:, -1] == 0) << (d - 1)
    for j in range(1, d):
        code |= (rows[:, j] == rows[:, j - 1]) << (j - 1)
    prefix = code[: len(runs)] & ((1 << max(d - 2, 0)) - 1)  # a first row's code without n_d's two bits
    sizes = np.repeat(table[prefix], runs)
    sizes[edges] = table[code]
    return sizes


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


def iter_orbits(d: int, r2_min: int, r2_max: int) -> Iterator[tuple]:
    """Yield (points, norms2, orbit_sizes) over n_1 >= ... >= n_d >= 0 with r2_min < |n|^2 <= r2_max.

    Every integer point of the shell lies in the orbit of exactly one yielded
    point under coordinate permutations and sign changes, and orbit_sizes
    (int64) counts that orbit, so the orbit sizes sum to the shell's point
    count. norms2 (int64) holds each point's exact |n|^2, carried by the walk.
    Points come in lexicographic order, at most CHUNK rows per chunk, and no
    level of prefixes holds more than CHUNK rows at once. A request
    over budget (check_orbit_budget), or d > ORBIT_MAX_D, raises ValueError.
    """
    if not 1 <= d <= ORBIT_MAX_D:
        raise ValueError(f"dimension must be in 1..{ORBIT_MAX_D}, got {d}")
    if r2_max < 0 or r2_max <= r2_min:
        return
    check_orbit_budget(d, r2_max)
    table = _orbit_table(d)
    for pts, norms2, runs in _complete(*_root(), d, partial(_domain_coordinate, r2_min, r2_max)):
        yield pts, norms2, _orbit_sizes(pts, runs, table)


def _root() -> tuple:
    """The one empty prefix and its squared norm, where every walk starts."""
    return np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)


def _complete(heads, norm2, left: int, rule) -> Iterator[tuple]:
    """Complete each prefix row of `heads` by `left` more coordinates, at most CHUNK new rows at a time.

    rule(heads, norm2, left) gives the next coordinate's integer ranges
    [lo, hi] as two (prefixes, k) arrays: k disjoint ranges per prefix, in
    increasing order, so that points come in lexicographic order. A chunk
    takes a run of consecutive values from each of some consecutive ranges,
    so it is filled by repeating each range's prefix row, prefix |n|^2 and
    value offset over its run. Yields (points, exact int64 |n|^2, runs), runs
    being the lengths of the chunk's runs of the last coordinate, in order;
    an empty range gives a run of length 0.
    """
    lo, hi = rule(heads, norm2, left)
    k = lo.shape[1]
    lo, hi = lo.ravel(), hi.ravel()
    sizes = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(sizes)
    offset = ends - sizes - lo  # flat position of value 0 in each range
    total = int(ends[-1])
    steps = np.arange(min(CHUNK, total), dtype=np.int64)
    d = heads.shape[1] + 1
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        # ranges first..final hold the positions; clip the two end ranges to them
        first, final = np.searchsorted(ends, [start, stop - 1], side="right")
        runs = sizes[first : final + 1].copy()
        runs[0] -= start - (ends[first] - sizes[first])
        runs[-1] -= ends[final] - stop
        row = np.arange(first, final + 1) // k  # range index -> prefix row
        values = np.repeat(start - offset[first : final + 1], runs)
        values += steps[: stop - start]
        pts = np.empty((stop - start, d), dtype=np.int64)
        pts[:, :-1] = np.repeat(heads[row], runs, axis=0)
        pts[:, -1] = values
        values *= values
        values += np.repeat(norm2[row], runs)
        if left > 1:
            yield from _complete(pts, values, left - 1, rule)
        else:
            yield pts, values, runs


def ball_points(d: int, radius: int) -> np.ndarray:
    """All integer points with |n| <= radius, origin included, materialized. Small radii only."""
    return np.concatenate(list(iter_shell(d, -1, radius * radius)), axis=0)
