"""Tests for the shared lattice enumeration: chunk sizes, order and shell membership."""

from itertools import product
from math import isqrt

import numpy as np
import pytest

from nctrace._lattice import iter_shell


def _first_axis_chunks(d, r2_min, r2_max, target):
    """The enumeration that cut the box along the first axis only, kept as the oracle for d <= 4."""
    M = isqrt(r2_max)
    axis = np.arange(-M, M + 1, dtype=np.int64)
    rows = max(1, min(axis.size, target // axis.size ** (d - 1)))
    for start in range(0, axis.size, rows):
        mesh = np.meshgrid(axis[start : start + rows], *([axis] * (d - 1)), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        r2 = np.einsum("ij,ij->i", pts, pts)
        keep = (r2 > r2_min) & (r2 <= r2_max)
        if np.any(keep):
            yield pts[keep]


@pytest.mark.parametrize("d, r2_min, r2_max, target", [(5, 0, 4, 30), (5, 1, 4, 2), (6, 0, 2, 10), (6, -1, 3, 100)])
def test_chunks_honour_target_for_every_d(d, r2_min, r2_max, target):
    width = 2 * isqrt(r2_max) + 1
    chunks = list(iter_shell(d, r2_min, r2_max, target))
    assert len(chunks) > 1
    assert max(len(c) for c in chunks) <= max(target, width)
    whole = list(iter_shell(d, r2_min, r2_max, target=width**d))
    assert len(whole) == 1
    np.testing.assert_array_equal(np.concatenate(chunks), whole[0])
    axis = range(-isqrt(r2_max), isqrt(r2_max) + 1)
    brute = [p for p in product(axis, repeat=d) if r2_min < sum(v * v for v in p) <= r2_max]
    np.testing.assert_array_equal(whole[0], np.array(brute, dtype=np.int64))


@pytest.mark.parametrize("d, r2_min, r2_max, target", [(1, 0, 50, 4), (2, 0, 400, 100), (3, 4, 100, 500), (4, -1, 16, 729)])
def test_chunk_boundaries_unchanged_when_one_axis_suffices(d, r2_min, r2_max, target):
    # width**(d-1) <= target: the chunks are exactly those of the first-axis enumeration
    chunks = list(iter_shell(d, r2_min, r2_max, target))
    oracle = list(_first_axis_chunks(d, r2_min, r2_max, target))
    assert [len(c) for c in chunks] == [len(c) for c in oracle]
    for got, want in zip(chunks, oracle):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
