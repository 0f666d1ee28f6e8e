"""Tests for the shared lattice enumeration: chunk sizes (_lattice.CHUNK), order and shell membership."""

from functools import partial
from itertools import permutations, product
from math import isqrt

import numpy as np
import pytest

import nctrace._lattice as lattice
from nctrace._lattice import (
    POINT_BUDGET,
    _complete,
    _domain_coordinate,
    _orbit_bound,
    _orbit_table,
    _root,
    _shell_coordinate,
    check_orbit_budget,
    check_shell_budget,
    iter_orbits,
    iter_shell,
)


def _walk(monkeypatch, enumerator, chunk, *args):
    """The chunks of enumerator(*args), built while _lattice.CHUNK is chunk."""
    monkeypatch.setattr(lattice, "CHUNK", chunk)
    return list(enumerator(*args))


def _digits(flat, width, count):
    return flat[:, None] // width ** np.arange(count - 1, -1, -1, dtype=np.int64) % width


def _box_chunks(d, r2_min, r2_max, target=1 << 22):
    """The enumerator that built each block of the box and masked it, kept as the oracle of iter_shell."""
    if r2_max < 0 or r2_max <= r2_min:
        return
    M = isqrt(r2_max)
    width = 2 * M + 1
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


def _assert_same_points(got, want, d, target):
    """The chunks hold the oracle's points in its order, and each holds 1..target of them."""
    assert all(1 <= len(c) <= target and c.dtype == np.int64 and c.shape[1] == d for c in got)
    points = np.concatenate(got) if got else np.zeros((0, d), dtype=np.int64)
    want = np.concatenate(want) if want else np.zeros((0, d), dtype=np.int64)
    np.testing.assert_array_equal(points, want)


@pytest.mark.parametrize(
    "d, r2_max, small", [(1, 50, 4), (1, 1000, 7), (2, 50, 3), (2, 400, 50), (3, 30, 40), (4, 12, 100)]
)
def test_shell_chunks_equal_box_and_mask(monkeypatch, d, r2_max, small):
    for r2_min in (-1, 0, 1, r2_max // 3, r2_max - 1):
        for target in (small, 1 << 22):
            got = _walk(monkeypatch, iter_shell, target, d, r2_min, r2_max)
            _assert_same_points(got, list(_box_chunks(d, r2_min, r2_max, target)), d, target)


@pytest.mark.parametrize(
    "d, r2_min, r2_max, points",
    [(1, -1, 0, 1), (2, -1, 0, 1), (4, -5, 0, 1), (1, 3, 4, 2), (2, 2, 3, 0), (3, 6, 7, 0), (4, 1, 1, 0), (2, 5, 4, 0),
     (3, 0, 0, 0), (2, 24, 25, 12), (1, 0, -1, 0)],
)
def test_empty_and_tiny_shells_equal_box_and_mask(monkeypatch, d, r2_min, r2_max, points):
    for target in (1, 2, 1 << 22):
        got = _walk(monkeypatch, iter_shell, target, d, r2_min, r2_max)
        _assert_same_points(got, list(_box_chunks(d, r2_min, r2_max, target)), d, target)
        assert sum(len(c) for c in got) == points


@pytest.mark.parametrize("d, r2_min, r2_max, target", [(5, 0, 4, 30), (5, 1, 4, 2), (6, 0, 2, 10), (6, -1, 3, 100)])
def test_chunks_honour_target_for_every_d(monkeypatch, d, r2_min, r2_max, target):
    width = 2 * isqrt(r2_max) + 1
    chunks = _walk(monkeypatch, iter_shell, target, d, r2_min, r2_max)
    assert len(chunks) > 1
    assert max(len(c) for c in chunks) <= target
    whole = _walk(monkeypatch, iter_shell, width**d, d, r2_min, r2_max)
    assert len(whole) == 1
    np.testing.assert_array_equal(np.concatenate(chunks), whole[0])
    axis = range(-isqrt(r2_max), isqrt(r2_max) + 1)
    brute = [p for p in product(axis, repeat=d) if r2_min < sum(v * v for v in p) <= r2_max]
    np.testing.assert_array_equal(whole[0], np.array(brute, dtype=np.int64))


def _hyperoctahedral_orbit(p):
    """All signed permutations of a point, brute force."""
    signs = list(product((1, -1), repeat=len(p)))
    return {tuple(s * v for s, v in zip(sign, perm)) for perm in permutations(p) for sign in signs}


@pytest.mark.parametrize(
    "d, r2_min, r2_max, target",
    [(1, 0, 50, 3), (2, 0, 400, 7), (2, 100, 401, 1 << 22), (3, 4, 100, 5), (3, -1, 64, 50), (4, 10, 40, 3),
     (5, 0, 16, 100), (6, 3, 12, 17), (3, 6, 7, 4), (2, 0, 400, 1), (3, 4, 100, 2), (4, 10, 40, 1)],
)
def test_orbits_tile_the_shell(monkeypatch, d, r2_min, r2_max, target):
    shell = list(iter_shell(d, r2_min, r2_max))
    shell = {tuple(p) for p in np.concatenate(shell).tolist()} if shell else set()
    chunks = _walk(monkeypatch, iter_orbits, target, d, r2_min, r2_max)
    assert all(0 < len(pts) <= target and pts.dtype == norms2.dtype == orbit.dtype == np.int64
               for pts, norms2, orbit in chunks)
    for pts, norms2, _ in chunks:
        np.testing.assert_array_equal(norms2, np.einsum("ij,ij->i", pts, pts))
    points = [tuple(p) for pts, _, _ in chunks for p in pts.tolist()]
    sizes = [int(o) for _, _, orbit in chunks for o in orbit]
    assert points == sorted(points)  # lexicographic, each point once
    assert len(set(points)) == len(points)
    covered = set()
    for p, size in zip(points, sizes):
        assert list(p) == sorted(p, reverse=True) and p[-1] >= 0
        orbit = _hyperoctahedral_orbit(p)
        assert size == len(orbit)
        assert not covered & orbit
        covered |= orbit
    assert covered == shell
    assert sum(sizes) == len(shell)


def test_budget_refuses_before_building_a_chunk():
    assert POINT_BUDGET == 2**31
    with pytest.raises(ValueError, match=f"d=6 up to radius 64 would visit up to {129**6} points"):
        next(iter_shell(6, 0, 64 * 64))
    with pytest.raises(ValueError, match="d=6 up to radius 4096"):
        next(iter_orbits(6, 0, 4096 * 4096))
    with pytest.raises(ValueError, match="d=3 up to radius 4096"):
        next(iter_orbits(3, 0, 4096 * 4096))
    next(iter_orbits(2, 0, 4096 * 4096))


def test_budget_message_shows_a_bound_of_any_size():
    # (2 * 256 + 1)^2000 has 5421 digits, past the 4300 that str() converts; from 10^15 on the bound is m.mmme+k
    with pytest.raises(ValueError, match=r"d=2000 up to radius 256 would visit up to 1\.717e\+5420 points, over the"):
        check_shell_budget(2000, 256 * 256)
    with pytest.raises(ValueError, match=r"d=17 up to radius 10 would visit up to 3\.004e\+22 points, over the budget"):
        check_shell_budget(17, 100)
    with pytest.raises(ValueError, match=f"up to {129**6} points"):
        check_shell_budget(6, 64 * 64)
    next(iter_orbits(3, 0, 2048 * 2048))
    # the check iter_orbits runs, on its own: the same refusals, no walk
    for d, radius in ((6, 4096), (3, 4096), (12, 64)):
        with pytest.raises(ValueError, match=f"d={d} up to radius {radius} would visit"):
            check_orbit_budget(d, radius * radius)
    check_orbit_budget(2, 4096 * 4096)
    check_orbit_budget(3, 2048 * 2048)


def test_orbit_bound_holds_and_is_tight():
    for d in range(1, 7):
        for r2 in (0, 1, 2, 5, 30, 100, 1000):
            points = sum(len(pts) for pts, _, _ in iter_orbits(d, -1, r2))
            assert points <= _orbit_bound(d, r2)
    # the sorted box comb(M + d, d) = 7.2e9 would refuse d=6 at radius 128; the domain holds about 5e8
    assert _orbit_bound(6, 128 * 128) < POINT_BUDGET
    assert _orbit_bound(16, 10**400) > POINT_BUDGET  # no float overflow


def test_orbit_prefixes_stay_within_target(monkeypatch):
    # about 1e8 sorted 5-coordinate prefixes at radius 128: built level by level in blocks of CHUNK
    monkeypatch.setattr(lattice, "CHUNK", 1000)
    pts, _, orbit = next(iter_orbits(6, 0, 128 * 128))
    assert len(pts) <= 1000 and pts[0].tolist() == [1, 0, 0, 0, 0, 0] and orbit[0] == 12



def _gather_complete(heads, norm2, left, rule, chunk):
    """The walk that gathered each point's prefix by a per-point range index, kept as the oracle of _complete."""
    lo, hi = rule(heads, norm2, left)
    k = lo.shape[1]
    lo, hi = lo.ravel(), hi.ravel()
    total = int(np.sum(np.maximum(hi - lo + 1, 0)))
    for start in range(0, total, chunk):
        row, values = _gather_expand(lo, hi, start, min(start + chunk, total))
        if k > 1:
            row //= k
        pts = np.column_stack([heads[row], values])
        if left > 1:
            yield from _gather_complete(pts, norm2[row] + values * values, left - 1, rule, chunk)
        else:
            yield pts, norm2[row] + values * values


def _gather_expand(lo, hi, start, stop):
    """Flat positions start..stop of the concatenated ranges [lo_i, hi_i]: (range index, value) each."""
    sizes = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(sizes)
    first, final = np.searchsorted(ends, [start, stop - 1], side="right")
    take = sizes[first : final + 1].copy()
    take[0] -= start - (ends[first] - sizes[first])
    take[-1] -= ends[final] - stop
    idx = np.repeat(np.arange(first, final + 1), take)
    offset = ends - sizes - lo
    return idx, np.arange(start, stop, dtype=np.int64) - offset[idx]


def _row_orbit_sizes(pts, table):
    """Orbit sizes classified row by row, every column compared: the oracle of _orbit_sizes."""
    d = pts.shape[1]
    code = (pts[:, -1] == 0) << (d - 1)
    for j in range(1, d):
        code |= (pts[:, j] == pts[:, j - 1]) << (j - 1)
    return table[code]


def _assert_bitwise(got, want):
    """Equal chunk by chunk and array by array, dtype and shape included."""
    assert len(got) == len(want)
    for g_chunk, w_chunk in zip(got, want):
        for g, w in zip(g_chunk, w_chunk, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


# shells with empty ranges of the last coordinate between full ones, so with runs of length 0 in both walks
_ZERO_RUN_SHELLS = [(2, 48, 50), (3, 26, 28), (4, 25, 27)]
# full balls, shells from the origin out, and thin shells
_ORACLE_SHELLS = _ZERO_RUN_SHELLS + [
    (1, -1, 400), (1, 0, 400), (1, 100, 400),
    (2, -1, 200), (2, 0, 200), (2, 24, 25), (2, 100, 101),
    (3, -1, 40), (3, 0, 40), (3, 30, 34),
    (4, -1, 20), (4, 10, 12),
    (5, 0, 10), (5, 6, 9),
    (6, -1, 6), (6, 4, 6),
    (7, 0, 5), (7, 3, 5),
    (8, -1, 4), (8, 2, 4),
]


@pytest.mark.parametrize("chunk", [1, 2, 3, 64, 1000, 1 << 13])
def test_walk_equals_gather_walk_bitwise(monkeypatch, chunk):
    for d, r2_min, r2_max in _ORACLE_SHELLS:
        shell, domain = partial(_shell_coordinate, r2_min, r2_max), partial(_domain_coordinate, r2_min, r2_max)
        got = [(pts,) for pts in _walk(monkeypatch, iter_shell, chunk, d, r2_min, r2_max)]
        _assert_bitwise(got, [(pts,) for pts, _ in _gather_complete(*_root(), d, shell, chunk)])
        table = _orbit_table(d)
        want = [(pts, n2, _row_orbit_sizes(pts, table)) for pts, n2 in _gather_complete(*_root(), d, domain, chunk)]
        _assert_bitwise(_walk(monkeypatch, iter_orbits, chunk, d, r2_min, r2_max), want)


@pytest.mark.parametrize("d, r2_min, r2_max", _ZERO_RUN_SHELLS)
def test_thin_shells_give_zero_length_runs(d, r2_min, r2_max):
    # the runs of each chunk add up to its rows, and both rules leave a range of the last coordinate empty mid-chunk
    for rule in (_shell_coordinate, _domain_coordinate):
        chunks = list(_complete(*_root(), d, partial(rule, r2_min, r2_max)))
        assert all(runs.sum() == len(values) and len(prefixes) == len(prefix_norms2) == len(runs)
                   for prefixes, prefix_norms2, values, runs in chunks)
        assert any((runs == 0).any() for *_, runs in chunks)


# walls n_d = 0 and n_d = n_(d-1) inside a run and at its edges, full balls, thin shells and empty ranges
_WALL_SHELLS = _ZERO_RUN_SHELLS + [
    (1, -1, 400), (1, 0, 1), (1, 24, 400),
    (2, -1, 200), (2, 0, 2), (2, 1, 8), (2, 49, 50), (2, 100, 401),
    (3, -1, 60), (3, 0, 3), (3, 2, 12), (3, 26, 27),
    (4, -1, 30), (4, 3, 4), (4, 12, 16),
    (5, 0, 12), (5, 4, 5), (5, 7, 20),
    (6, -1, 8), (6, 5, 6), (6, 8, 12),
]


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 13])
def test_walk_without_points_equals_point_walk(monkeypatch, chunk):
    # points=False builds no (k, d) array; its norms2 and orbit sizes are the point walk's, and the row-by-row oracle's
    monkeypatch.setattr(lattice, "CHUNK", chunk)
    for d, r2_min, r2_max in _WALL_SHELLS:
        with_points = list(iter_orbits(d, r2_min, r2_max))
        without = list(iter_orbits(d, r2_min, r2_max, points=False))
        assert all(pts is None for pts, _, _ in without)
        table = _orbit_table(d)
        want = [(np.einsum("ij,ij->i", pts, pts), _row_orbit_sizes(pts, table)) for pts, _, _ in with_points]
        _assert_bitwise([(norms2, orbit) for _, norms2, orbit in without], want)
        _assert_bitwise([(norms2, orbit) for _, norms2, orbit in with_points], want)
        assert d == 1 or any(((pts[:, -1] == 0) | (pts[:, -1] == pts[:, -2])).any() for pts, _, _ in with_points)
