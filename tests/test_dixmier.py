import dataclasses
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import nctrace
from nctrace import _lattice, dixmier, verify
from nctrace._core import line_fit
from nctrace.dixmier import (
    LatticeDiagonal,
    _batch_sums,
    _distinct_permutations,
    _mean_monomial,
    connes_trace_torus,
    doubling_grid,
    lattice_partial_sum,
    log_fit,
    log_fits,
    model_diagonal,
    normalised_trace_estimate,
    partial_sum_quotient,
    radial_integral_check,
)
from nctrace.sphere import SphereFunction, SpherePoly, _multi_indices, vg_action
from nctrace.torus import ThetaMatrix, torus_identity, torus_trace, unitary_generator

THETA = ThetaMatrix.from_upper(2, [np.pi / 2])
ONE2 = SpherePoly.constant(2, 1.0)


def _sums(diag, radii):
    """The library's sums and counts for one request."""
    (result,) = _batch_sums([(diag, radii)])
    return result


def _grid_sums(diag, radii):
    """One request's own walk, shell by shell between its radii, kept as the oracle of the batched walk.

    A SpherePoly symbol is summed orbit by orbit with |n|^2 from the points
    themselves, any other diagonal point by point.
    """
    rs = [int(r) for r in radii]
    if diag.symbol is None:
        sums, counts = [], []
        acc, count, prev2 = 0j, 0, 0
        for r in rs:
            for chunk in _lattice.iter_shell(diag.d, prev2, r * r):
                acc += complex(np.sum(diag.entry(chunk)))
                count += len(chunk)
            prev2 = r * r
            sums.append(acc)
            counts.append(count)
        return sums, counts
    d = diag.d
    columns = {}
    for alpha, c in diag.symbol.coeffs.items():
        if not any(e % 2 for e in alpha):
            key = tuple(sorted(alpha, reverse=True))
            columns[key] = columns.get(key, 0) + c
    rearrangements = [_distinct_permutations(key) for key in columns]
    table = np.zeros((len(rs), len(columns)))
    counts = []
    count, prev2 = 0, 0
    for row, r in enumerate(rs):
        for pts, _, orbit in _lattice.iter_orbits(d, prev2, r * r):
            count += int(np.sum(orbit))
            norms2 = np.einsum("ij,ij->i", pts, pts).astype(float)
            base = orbit * (1.0 + norms2) ** (-d / 2.0)
            u2 = pts * pts / norms2[:, None]
            for col, betas in enumerate(rearrangements):
                table[row, col] += np.sum(base * _mean_monomial(u2, betas))
        prev2 = r * r
        counts.append(count)
    coeffs = np.array(list(columns.values()), dtype=complex)
    sums = [complex(diag.scale * np.sum(coeffs * row)) for row in np.cumsum(table, axis=0)]
    return sums, counts


def test_partial_sum_first_shell():
    # four unit vectors, each weighted (1+1)^{-1}
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    assert lattice_partial_sum(diag, 1) == pytest.approx(2.0, abs=1e-14)


def test_partial_sum_second_shell():
    # adds (±1,±1) at weight 1/3 and (±2,0),(0,±2) at weight 1/5
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    assert lattice_partial_sum(diag, 2) == pytest.approx(2.0 + 4 / 3 + 4 / 5, abs=1e-14)


def test_partial_sum_odd_symbol_cancels():
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.coordinate(2, 1))
    for N in (1, 7, 40):
        assert abs(lattice_partial_sum(diag, N)) < 1e-13


def test_shell_difference_approaches_log2_coefficient():
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    diff = lattice_partial_sum(diag, 512) - lattice_partial_sum(diag, 256)
    assert diff == pytest.approx(2 * np.pi * np.log(2), rel=0.05)


def test_log_fit_slope_d3():
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.monomial(3, (2, 0, 0)))
    fit = log_fit(diag, [32, 64, 128, 256])
    assert fit.slope == pytest.approx(4 * np.pi / 3, rel=0.03)


def test_log_fit_zero_slope_for_odd():
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.coordinate(2, 1))
    fit = log_fit(diag, [32, 64, 128, 256])
    assert abs(fit.slope) < 1e-10


def test_log_fit_needs_four_points():
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    with pytest.raises(ValueError):
        log_fit(diag, [16, 32, 64])


def test_log_fit_residual_stays_bounded():
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    half = log_fit(diag, doubling_grid(512)).max_residual
    full = log_fit(diag, doubling_grid(1024)).max_residual
    assert full <= 2 * half + 1e-12


@pytest.mark.parametrize("d, N", [(2, 512), (3, 64)])
def test_log_fit_estimate_is_normalised_trace_estimate(d, N):
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.monomial(d, (2,)) + SpherePoly.coordinate(d, 1))
    fit = log_fit(diag, doubling_grid(N))
    assert fit.estimate == normalised_trace_estimate(diag, N)


@pytest.mark.parametrize("d", [2, 3])
def test_log_fit_counts_match_brute_force(d):
    grid = [1, 2, 3, 5, 8, 13, 16]
    box = np.indices((33,) * d).reshape(d, -1).T - 16
    norms2 = np.einsum("ij,ij->i", box, box)
    expected = tuple(int(np.count_nonzero((norms2 > 0) & (norms2 <= n * n))) for n in grid)
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.constant(d, 1.0))
    for path in (diag, dataclasses.replace(diag, symbol=None)):
        assert log_fit(path, grid).counts == expected


def test_torus_trace_walks_each_ball_once(monkeypatch):
    walks = Counter()

    def counted(d, r2_min, r2_max):
        walks[r2_min, r2_max] += 1
        return walk(d, r2_min, r2_max)

    walk = dixmier.iter_orbits
    monkeypatch.setattr(dixmier, "iter_orbits", counted)
    assert verify.main(["torus-trace", "--nmax", "256", "--out", os.devnull]) == 0

    # the four fits' grids (16..256 for the constant and the Connes record, 4..64 for t1^2 and
    # the odd symbol) share one walk of their union: each shell between its radii exactly once
    radii = [0, 4, 8, 16, 32, 64, 128, 256]
    assert walks == Counter(zip((r * r for r in radii), (r * r for r in radii[1:])))


def test_radial_check_closed_form_d2():
    for N in (100.0, 1000.0):
        expected = 0.5 * np.log(1 + N * N) - np.log(N)
        assert radial_integral_check(2, N) == pytest.approx(expected, abs=1e-9)


def _radial_quad(d, N):
    """Oracle: adaptive quadrature split at r = 1, with r = e^u on [1, N] (a bounded integrand)."""
    head, _ = quad(lambda r: r ** (d - 1) * (1.0 + r * r) ** (-d / 2.0), 0.0, 1.0)
    tail, _ = quad(lambda u: (1.0 + np.exp(-2.0 * u)) ** (-d / 2.0), 0.0, np.log(N))
    return head + tail - float(np.log(N))


@pytest.mark.parametrize("d", range(1, 8))
def test_radial_check_closed_form_matches_quadrature(d):
    for N in (1.5, 2, 32, 512, 2048, 4096, 1e6):
        assert abs(radial_integral_check(d, N) - _radial_quad(d, N)) <= 1e-12


def test_radial_check_rejects_bad_input():
    for d, N in ((2, 1.0), (2, 0.5), (0, 10.0)):
        with pytest.raises(ValueError):
            radial_integral_check(d, N)


def test_import_loads_neither_scipy_integrate_nor_stats():
    code = (
        "import sys, nctrace\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "for d in range(2, 11):\n"
        "    rule = nctrace.quadrature_rule(d)\n"
        "    assert rule.points.shape == (rule.size, d) and rule.weights.shape == (rule.size,)\n"
        "assert not scipy(), scipy()\n"
    )
    src = str(Path(nctrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_suite_loads_scipy():
    # scipy is a test-only dependency, so no suite may load it, at any d;
    # nor may a suite load any other module inside its clock, where it would count as suite time
    code = (
        "import sys, nctrace, nctrace.verify as v\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "clocked = []\n"
        "def watch(run):\n"
        "    def timed(cfg):\n"
        "        before = set(sys.modules)\n"
        "        records = run(cfg)\n"
        "        clocked.extend(sorted(set(sys.modules) - before))\n"
        "        return records\n"
        "    return timed\n"
        "v._SUITE_RUNNERS.update({name: watch(run) for name, run in v._SUITE_RUNNERS.items()})\n"
        "assert v.main(['su2', '--lmax', '8']) == 0\n"
        "assert v.main(['su2', '--word', 'b1b1b2b2', '--lmax', '8']) == 0\n"
        "assert v.main(['moments', '--d', '4', '--max-degree', '4']) == 0\n"
        "assert v.main(['moments', '--d', '6']) == 0\n"
        "assert v.main(['torus-trace', '--nmax', '128']) == 0\n"
        "assert v.main(['symbol-compactness']) == 0\n"
        "assert v.main(['symplectic', '--d', '2']) == 0\n"
        "assert v.main(['symplectic', '--d', '4', '--max-degree', '0']) == 0\n"
        "assert v.main(['moyal']) == 0\n"
        "assert not scipy(), scipy()\n"
        "assert not clocked, clocked\n"
    )
    src = str(Path(nctrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_radial_check_drift():
    vals2 = [radial_integral_check(2, N) for N in (1e2, 1e3, 1e4)]
    assert max(vals2) - min(vals2) < 1e-3
    vals4 = [radial_integral_check(4, N) for N in (1e2, 1e3)]
    assert abs(vals4[1] - vals4[0]) < 0.01


def test_doubling_grid_bounds():
    assert doubling_grid(1024) == [64, 128, 256, 512, 1024]
    with pytest.raises(ValueError):
        doubling_grid(16)


def test_estimate_d3_volume_over_d():
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.constant(3, 1.0))
    est = normalised_trace_estimate(diag, 256)
    assert est == pytest.approx(4 * np.pi / 3, rel=0.05)


def test_estimate_even_symbol():
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.monomial(2, (2, 0)))
    assert normalised_trace_estimate(diag, 1024) == pytest.approx(np.pi / 2, rel=0.05)


def test_estimate_linear_in_symbol():
    y1 = SpherePoly.monomial(2, (2, 0))
    y2 = SpherePoly.monomial(2, (0, 2))
    combo = 2.0 * y1 + y2
    est = normalised_trace_estimate(LatticeDiagonal.symbol_weighted(combo), 512)
    parts = [normalised_trace_estimate(LatticeDiagonal.symbol_weighted(y), 512) for y in (y1, y2)]
    assert est == pytest.approx(2 * parts[0] + parts[1], abs=1e-12)


def test_estimate_rotation_invariant_within_tolerance():
    y = SpherePoly.monomial(2, (2, 0))
    phi = 0.9
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    base = normalised_trace_estimate(LatticeDiagonal.symbol_weighted(y), 512)
    turned = normalised_trace_estimate(LatticeDiagonal.symbol_weighted(vg_action(rot, y)), 512)
    assert turned == pytest.approx(base, rel=0.05)


def test_quotient_agrees_loosely():
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    assert partial_sum_quotient(diag, 1024) == pytest.approx(np.pi, rel=0.1)


def test_model_diagonal_closed_form():
    rng = np.random.default_rng(12)
    x = torus_identity(THETA) + 0.3 * unitary_generator(THETA, (1, 1)) + 0.1 * unitary_generator(THETA, (0, -2))
    y = SpherePoly.monomial(2, (2, 0))
    diag = model_diagonal(x, y)
    pts = rng.integers(-15, 16, size=(200, 2))
    pts = pts[np.any(pts != 0, axis=1)]
    got = diag.entry(pts)
    norms2 = np.einsum("ij,ij->i", pts, pts).astype(float)
    dirs = pts / np.sqrt(norms2)[:, None]
    expected = torus_trace(x) * y.evaluate(dirs) * (1 + norms2) ** -1.0
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_model_diagonal_pure_shift_vanishes():
    diag = model_diagonal(unitary_generator(THETA, (1, 0)), ONE2)
    est, ref = connes_trace_torus(unitary_generator(THETA, (1, 0)), ONE2, 512)
    assert ref == 0
    assert est == 0
    assert np.abs(diag.entry(np.array([[3, 4], [1, 0]]))).max() == 0.0


def test_connes_identity_element():
    est, ref = connes_trace_torus(torus_identity(THETA), ONE2, 2048)
    assert ref == pytest.approx(np.pi, abs=1e-14)
    assert est == pytest.approx(np.pi, rel=0.03)


def test_connes_mixed_example():
    x = (
        torus_identity(THETA)
        + 0.5 * unitary_generator(THETA, (1, 1))
        + 0.5 * unitary_generator(THETA, (-1, -1))
    )
    est, ref = connes_trace_torus(x, SpherePoly.monomial(2, (0, 2)), 1024)
    assert ref == pytest.approx(np.pi / 2, abs=1e-14)
    assert abs(est - ref) / max(abs(ref), 0.01) < 0.05


def _random_poly(d, rng):
    """Complex coefficients on a random half of the monomials up to degree 4, odd and even alike."""
    indices = list(map(tuple, _multi_indices(d, 4).tolist()))
    chosen = rng.choice(len(indices), size=len(indices) // 2, replace=False)
    return SpherePoly(d, {indices[i]: complex(*rng.normal(size=2)) for i in chosen})


@pytest.mark.parametrize(
    "d, grid", [(2, [1, 2, 5, 17, 40]), (3, [1, 3, 8, 20]), (4, [1, 2, 5, 9]), (5, [1, 2, 4, 6]), (6, [1, 2, 3])]
)
def test_symmetric_sums_match_direct_path(d, grid):
    rng = np.random.default_rng(100 + d)
    y = _random_poly(d, rng)
    x = torus_identity(ThetaMatrix.from_upper(d, rng.normal(size=d * (d - 1) // 2))) * complex(*rng.normal(size=2))
    for diag in (LatticeDiagonal.symbol_weighted(y), model_diagonal(x, y)):
        assert diag.symbol is y
        fast, fast_counts = _sums(diag, grid)
        direct, counts = _sums(dataclasses.replace(diag, symbol=None), grid)
        assert fast_counts == counts
        np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0)
        # each shell r2_min < |n|^2 <= r2_max with r2_min > 0 on its own
        np.testing.assert_allclose(np.diff(fast), np.diff(direct), rtol=1e-12, atol=0)
    odd = SpherePoly(d, {n: c for n, c in y.coeffs.items() if any(e % 2 for e in n)})
    assert odd.coeffs
    sums, counts = _sums(LatticeDiagonal.symbol_weighted(odd), grid)
    assert sums == [0j] * len(grid)
    assert counts == _sums(LatticeDiagonal(d, odd.evaluate), grid)[1]


# per d, interleaved grids that nest in no order: a general symbol, the constant, an odd-only symbol (at d = 2 and 3
# its grid reaches furthest, so the outer shells only count), a scaled model diagonal and two direct-path diagonals
BATCHES = {
    2: [[3, 7, 20, 41], [5, 6, 30, 33, 60], [1, 2, 4, 8, 70], [2, 9, 25, 50], [4, 11, 19, 30], [1, 13, 14, 45]],
    3: [[2, 5, 9, 14], [3, 4, 10, 16, 20], [1, 2, 4, 8, 22], [2, 6, 11, 13], [3, 7, 8, 12], [1, 9, 15, 18]],
    4: [[1, 3, 5, 8], [2, 4, 6, 9], [1, 2, 4, 7], [2, 3, 5, 10], [1, 4, 6, 7], [3, 5, 8, 9]],
}


@pytest.mark.parametrize("d", sorted(BATCHES))
def test_log_fits_equal_one_walk_per_request(d):
    rng = np.random.default_rng(300 + d)
    y = _random_poly(d, rng)
    odd = SpherePoly(d, {n: c for n, c in y.coeffs.items() if any(e % 2 for e in n)})
    x = torus_identity(ThetaMatrix.from_upper(d, rng.normal(size=d * (d - 1) // 2))) * complex(*rng.normal(size=2))
    w = rng.normal(size=d)
    wave = SphereFunction(d, lambda u: np.cos(u @ w) + 1j * u[..., 0] ** 2)
    diags = [
        LatticeDiagonal.symbol_weighted(y),
        LatticeDiagonal.symbol_weighted(SpherePoly.constant(d, 1.0)),
        LatticeDiagonal.symbol_weighted(odd),
        model_diagonal(x, y),
        LatticeDiagonal.symbol_weighted(wave),
        dataclasses.replace(model_diagonal(x, y), symbol=None),
    ]
    assert diags[3].scale != 1 and diags[4].symbol is None
    requests = list(zip(diags, BATCHES[d]))
    batch = _batch_sums(requests)
    fits = log_fits(requests)
    for (diag, grid), (sums, counts), fit in zip(requests, batch, fits):
        oracle, oracle_counts = _grid_sums(diag, grid)
        assert counts == oracle_counts and fit.counts == tuple(oracle_counts) and fit.N_grid == tuple(grid)
        # the union's radii split a request's shells, so its chunks and the pairwise sums over them differ from
        # its own walk's: equal to roundoff, not bit for bit
        np.testing.assert_allclose(sums, oracle, rtol=1e-12, atol=0)
        slope, intercept, _ = line_fit(np.log(grid), oracle)
        estimate, _, _ = line_fit(np.log(oracle_counts), oracle)
        got = [fit.slope, fit.intercept, fit.estimate]
        np.testing.assert_allclose(got, [slope, intercept, estimate], rtol=1e-10, atol=1e-12)
    assert batch[2][0] == [0j] * len(BATCHES[d][2])


def test_log_fits_refuses_bad_input_before_any_walk(monkeypatch):
    def walked(*args):
        raise AssertionError(f"walked {args}")

    checks = []
    check = dixmier.check_orbit_budget
    monkeypatch.setattr(dixmier, "iter_orbits", walked)
    monkeypatch.setattr(dixmier, "iter_shell", walked)
    monkeypatch.setattr(dixmier, "check_orbit_budget", lambda d, r2: checks.append(r2) or check(d, r2))
    one = LatticeDiagonal.symbol_weighted(ONE2)
    good = (one, [2, 4, 8, 16])
    with pytest.raises(ValueError, match="no requests"):
        log_fits([])
    with pytest.raises(ValueError, match=r"requests mix dimensions \[2, 3\]"):
        log_fits([good, (LatticeDiagonal.symbol_weighted(SpherePoly.constant(3, 1.0)), [2, 4, 8, 16])])
    for grid, message in (([2, 4, 8], "need at least 4 grid points"), ([2, 8, 4, 16], "strictly increasing"),
                          ([0, 4, 8, 16], "radii must be >= 1")):
        for refuse in (lambda: log_fits([good, (one, grid)]), lambda: log_fit(one, grid)):
            with pytest.raises(ValueError, match=message):
                refuse()
    assert not checks
    # one budget check, at the union's largest radius, though the other grids are within budget
    one12 = LatticeDiagonal.symbol_weighted(SpherePoly.constant(12, 1.0))
    with pytest.raises(ValueError, match="d=12 up to radius 64 .* over the budget"):
        log_fits([(one12, [1, 2, 3, 4]), (one12, [2, 4, 8, 64]), (one12, [1, 3, 5, 7])])
    assert checks == [64 * 64]


@pytest.mark.parametrize("d, grid", [(2, [3, 40, 200, 360]), (3, [3, 10, 30, 56])])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "direct"])
def test_chunked_sums_match_one_chunk_walk(d, grid, symmetric, monkeypatch):
    # the walk in chunks of at most 2^22 points, one per shell here, is the oracle
    y = _random_poly(d, np.random.default_rng(200 + d))
    diag = LatticeDiagonal.symbol_weighted(y)
    if not symmetric:
        diag = dataclasses.replace(diag, symbol=None)
    name = "iter_orbits" if symmetric else "iter_shell"
    walk = getattr(dixmier, name)
    chunks = []

    def recorded(*args, **kwargs):
        for chunk in walk(*args, **kwargs):
            chunks.append(len(chunk[0] if symmetric else chunk))
            yield chunk

    chunk = _lattice.CHUNK
    monkeypatch.setattr(dixmier, name, recorded)
    monkeypatch.setattr(_lattice, "CHUNK", 1 << 22)
    oracle, oracle_counts = _sums(diag, grid)
    assert len(chunks) == len(grid)
    for target in (1 << 10, chunk):
        chunks.clear()
        monkeypatch.setattr(_lattice, "CHUNK", target)
        sums, counts = _sums(diag, grid)
        # the outer shell alone spans several chunks
        assert max(chunks) <= target and len(chunks) > len(grid)
        assert counts == oracle_counts
        np.testing.assert_allclose(sums, oracle, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.diff(sums), np.diff(oracle), rtol=1e-12, atol=0)


def test_symmetric_path_never_calls_entry():
    def entry(chunk):
        raise AssertionError("entry evaluated")

    diag = dataclasses.replace(LatticeDiagonal.symbol_weighted(ONE2), entry=entry)
    assert lattice_partial_sum(diag, 2) == pytest.approx(2.0 + 4 / 3 + 4 / 5, abs=1e-14)


def test_symbol_dimension_must_match():
    with pytest.raises(ValueError):
        LatticeDiagonal(3, LatticeDiagonal.symbol_weighted(ONE2).entry, ONE2)


def test_point_budget_refuses_direct_path():
    diag = LatticeDiagonal(6, lambda chunk: np.ones(len(chunk)))
    with pytest.raises(ValueError, match="d=6"):
        lattice_partial_sum(diag, 64)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "direct"])
def test_over_budget_grid_is_refused_before_the_first_shell(symmetric, monkeypatch):
    # radii 2 and 4 are within budget; the largest one is not, so no shell may be walked
    d = 12 if symmetric else 6
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.constant(d, 1.0))
    if not symmetric:
        diag = dataclasses.replace(diag, symbol=None)
    name = "iter_orbits" if symmetric else "iter_shell"

    def walked(*args):
        raise AssertionError(f"{name}{args} walked")

    monkeypatch.setattr(dixmier, name, walked)
    with pytest.raises(ValueError, match=f"d={d} up to radius 64 .* over the budget"):
        _sums(diag, [2, 4, 64])


@pytest.mark.parametrize(
    "key",
    [(), (0,), (2, 0), (0, 2), (2, 2, 0), (4, 2, 2, 0, 0), (0, 0, 0), (6, 4, 2, 0), (2, 2, 2, 2, 0, 0, 0), (3, 1, 3, 1, 0)],
)
def test_distinct_permutations_equal_the_set_of_all_orderings(key):
    # the expression the generator replaced, kept as its oracle
    assert _distinct_permutations(key) == sorted(set(permutations(key)))


def _ball_counts(d, radii):
    """Exact counts of the points with 0 < |n| <= r, from the coefficients of theta(q)^d, theta = sum_m q^(m^2)."""
    top = max(radii) ** 2
    theta = [0] * (top + 1)
    for m in range(-max(radii), max(radii) + 1):
        theta[m * m] += 1
    series = [1] + [0] * top
    for _ in range(d):
        series = [sum(series[i] * theta[k - i] for i in range(k + 1)) for k in range(top + 1)]
    return tuple(sum(series[1 : r * r + 1]) for r in radii)


def test_log_fit_at_d16_visits_no_factorial_orderings():
    # sorted(set(permutations(key))) walked 16! = 2.1e13 orderings of the constant's key
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.constant(16, 1.0))
    start = time.perf_counter()
    fit = log_fit(diag, [1, 2, 3, 4])
    assert time.perf_counter() - start < 10.0
    assert fit.counts == _ball_counts(16, [1, 2, 3, 4])
    assert _ball_counts(2, [1, 2, 5]) == (4, 12, 80)


def test_direct_path_beyond_orbit_dimension(monkeypatch):
    # orbit sizes 2^d d! overflow int64 for d > ORBIT_MAX_D; such diagonals are summed point by point
    monkeypatch.setattr("nctrace.dixmier.ORBIT_MAX_D", 1)
    calls = []
    diag = LatticeDiagonal.symbol_weighted(ONE2)
    diag = dataclasses.replace(diag, entry=lambda chunk, f=diag.entry: calls.append(len(chunk)) or f(chunk))
    assert lattice_partial_sum(diag, 2) == pytest.approx(2.0 + 4 / 3 + 4 / 5, abs=1e-14)
    assert sum(calls) == 12
