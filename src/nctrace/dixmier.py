"""Normalised-trace estimation from log-divergent lattice partial sums.

The operators here are diagonal in the lattice basis, with entries
y(n/|n|) (1+|n|^2)^{-d/2}. Their partial sums over balls grow like
slope * log(radius) + O(1); every continuous normalised trace evaluates to a
multiple of that slope, so the estimator fits partial sums against the log of
the eigenvalue count over a doubling grid instead of taking a single quotient
(the quotient carries the O(1) intercept as an O(1/log N) error, which no
desk-scale N outruns; the slope does not).

Diagonals built by `LatticeDiagonal.symbol_weighted` or `model_diagonal` from a
SpherePoly carry it as `symbol`, and their partial sums take the symmetric
path: the weight (1+|n|^2)^{-d/2} is constant on each orbit of the
hyperoctahedral group (coordinate permutations and sign changes), and so is
the orbit sum of every monomial u^alpha, u = n/|n| -- 0 when an exponent is
odd, otherwise the orbit size times the mean of u^beta over the distinct
rearrangements beta of alpha. One walk over the fundamental domain
n_1 >= ... >= n_d >= 0 (`_lattice.iter_orbits`, which supplies each point's
exact |n|^2 and orbit size) fills a table of these orbit-weighted sums per
shell, and every partial sum is that table dotted with the coefficients. A
SphereFunction symbol gives only point values, which are not constant on
orbits, so it cannot be summed orbit by orbit: such diagonals take the direct
path, which evaluates `entry` at every lattice point and is the oracle the
tests check the symmetric path against.

`log_fits` batches fits of one dimension: each path walks the shells of the
union of its requests' grids once, inside-out, and a shell fills the table
columns, or calls the entries, only of the requests whose grid reaches it. A
symbol with no even exponent fills no column, so its fit only reads the
counts. `log_fit` is the batch of one, so every sum takes this code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p, sqrt
from typing import Callable, Sequence

import numpy as np

from ._core import line_fit, real_if_close
from ._lattice import ORBIT_MAX_D, check_orbit_budget, check_shell_budget, iter_orbits, iter_shell
from .sphere import SpherePoly, sphere_integrate
from .torus import TorusElement, torus_trace


@dataclass(frozen=True)
class LatticeDiagonal:
    """Diagonal operator given by a total entry rule on Z^d.

    entry maps an integer chunk of shape (k, d) to the k diagonal values. It
    is never called at n = 0: partial sums exclude the origin (one bounded
    term, absorbed by every intercept).

    symbol and scale are set by the factories when the entries are
    scale * symbol(n/|n|) * (1+|n|^2)^{-d/2} for a SpherePoly symbol. When
    symbol is set it, not entry, defines the partial sums (the symmetric path
    of the module docstring); entry stays the pointwise view of the same
    values. So dataclasses.replace(diag, entry=f) keeps summing the symbol:
    that suits a wrapper of the same entry, such as a call counter, which
    then sees no calls. To sum a different rule, build LatticeDiagonal(d, f),
    or replace symbol=None as well.
    """

    d: int
    entry: Callable[[np.ndarray], np.ndarray]
    symbol: SpherePoly | None = None
    scale: complex = 1.0

    def __post_init__(self):
        if self.symbol is not None and self.symbol.d != self.d:
            raise ValueError("dimension mismatch")

    @classmethod
    def symbol_weighted(cls, y) -> "LatticeDiagonal":
        """Entries y(n/|n|) * (1 + |n|^2)^{-d/2} of the sphere function y, d = y.d."""
        return _symbol_diagonal(y, y.d)


def _symbol_diagonal(y, d: int, scale: complex | None = None) -> LatticeDiagonal:
    """Entries [scale *] y(n/|n|) * (1 + |n|^2)^{-d/2}, carrying y when it is a SpherePoly."""
    poly = y if isinstance(y, SpherePoly) else None
    return LatticeDiagonal(d, _weighted_entry(y, d, scale), poly, 1.0 if scale is None else scale)


def _weighted_entry(y, d: int, scale: complex | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Entry rule [scale *] y(n/|n|) * (1 + |n|^2)^{-d/2} on nonzero points."""
    if y.d != d:
        raise ValueError("dimension mismatch")

    def entry(chunk: np.ndarray) -> np.ndarray:
        pts = chunk.astype(float)
        norms2 = np.einsum("ij,ij->i", pts, pts)
        dirs = pts / np.sqrt(norms2)[:, None]
        vals = y.evaluate(dirs) * (1.0 + norms2) ** (-d / 2.0)
        return vals if scale is None else scale * vals

    return entry


def _batch_sums(requests: Sequence[tuple]) -> list:
    """Partial sums S(N) and counts K(N) over 0 < |n| <= N, one list of each per (diag, radii) request.

    All diagonals share one dimension. Requests on the symmetric path share one
    orbit walk, the rest one shell walk (see the module docstring); each walk
    covers the union of its requests' radii, shell by shell inside-out, after
    one budget check at the union's largest radius, made for both walks before
    either starts. Per-chunk reduction is numpy pairwise summation in a fixed
    chunk order, so results are reproducible bit for bit.
    """
    if not requests:
        raise ValueError("no requests to sum")
    d = requests[0][0].d
    if any(diag.d != d for diag, _ in requests):
        raise ValueError(f"requests mix dimensions {sorted({diag.d for diag, _ in requests})}")
    grids = [_radii(radii) for _, radii in requests]
    symmetric = [diag.symbol is not None and d <= ORBIT_MAX_D for diag, _ in requests]
    walks = []
    for path, check, walk in ((True, check_orbit_budget, _orbit_sums), (False, check_shell_budget, _shell_sums)):
        group = [i for i, s in enumerate(symmetric) if s is path and grids[i]]
        union = sorted({r for i in group for r in grids[i]})
        if union:
            check(d, union[-1] ** 2)
            walks.append((group, union, walk))
    results = [([], []) for _ in requests]
    for group, union, walk in walks:
        for i, sums in zip(group, walk(d, [requests[i][0] for i in group], [grids[i] for i in group], union)):
            results[i] = sums
    return results


def _radii(radii: Sequence[int]) -> list:
    """The radii as ints, refused unless strictly increasing from at least 1."""
    rs = [int(r) for r in radii]
    if rs != sorted(rs) or len(set(rs)) != len(rs):
        raise ValueError("radii must be strictly increasing")
    if rs and rs[0] < 1:
        raise ValueError("radii must be >= 1")
    return rs


def _shell_sums(d: int, diags: list, grids: list, union: list) -> list:
    """_batch_sums on the direct path: each shell's chunks go to the entry of every request whose grid reaches it."""
    accs = [0j] * len(diags)
    results = [([], []) for _ in diags]
    count, prev2 = 0, 0
    for r in union:
        live = [i for i, grid in enumerate(grids) if grid[-1] >= r]
        for chunk in iter_shell(d, prev2, r * r):
            for i in live:
                accs[i] += complex(np.sum(diags[i].entry(chunk)))
            count += len(chunk)
        prev2 = r * r
        for acc, grid, (sums, counts) in zip(accs, grids, results):
            if r in grid:
                sums.append(acc)
                counts.append(count)
    return results


def _orbit_sums(d: int, diags: list, grids: list, union: list) -> list:
    """_batch_sums on the symmetric path, summed orbit by orbit (see the module docstring).

    table[i, j] is the sum over the shell between union radii i-1 and i of
    orbit(n) * (1+|n|^2)^{-d/2} * mean_beta u^beta for the j-th distinct sorted
    even exponent of the requests, filled only up to the largest radius of a
    request that has it. A request whose symbol has no even exponent only counts.
    """
    columns = [_even_columns(diag.symbol) for diag in diags]
    keys = list(dict.fromkeys(key for cols in columns for key in cols))
    rearrangements = [_distinct_permutations(key) for key in keys]
    reach = [max(grid[-1] for cols, grid in zip(columns, grids) if key in cols) for key in keys]
    table = np.zeros((len(union), len(keys)))
    shell_counts = []
    count, prev2 = 0, 0
    for row, r in enumerate(union):
        live = [j for j, top in enumerate(reach) if top >= r]
        needs_u = any(any(keys[j]) for j in live)
        for pts, norms2, orbit in iter_orbits(d, prev2, r * r):
            count += int(np.sum(orbit))
            if not live:
                continue
            norms2 = norms2.astype(float)
            base = orbit * (1.0 + norms2) ** (-d / 2.0)
            u2 = pts * pts / norms2[:, None] if needs_u else None
            for j in live:
                table[row, j] += np.sum(base * _mean_monomial(u2, rearrangements[j]))
        prev2 = r * r
        shell_counts.append(count)
    cumulative = np.cumsum(table, axis=0)
    results = []
    for diag, cols, grid in zip(diags, columns, grids):
        rows = np.searchsorted(union, grid)
        coeffs = np.array(list(cols.values()), dtype=complex)
        own = cumulative[:, [keys.index(key) for key in cols]]
        sums = [complex(diag.scale * np.sum(coeffs * own[row])) for row in rows]
        results.append((sums, [shell_counts[row] for row in rows]))
    return results


def _even_columns(symbol: SpherePoly) -> dict:
    """Coefficient per sorted exponent, summed over the symbol's monomials whose exponents are all even."""
    columns: dict = {}
    for alpha, c in symbol.coeffs.items():
        if not any(e % 2 for e in alpha):
            key = tuple(sorted(alpha, reverse=True))
            columns[key] = columns.get(key, 0) + c
    return columns


def _distinct_permutations(key: tuple) -> list:
    """The distinct rearrangements of key in lexicographic order, built without visiting its d! orderings."""
    if len(key) < 2:
        return [key]
    rest = {head: key[: key.index(head)] + key[key.index(head) + 1 :] for head in sorted(set(key))}
    return [(head,) + tail for head, others in rest.items() for tail in _distinct_permutations(others)]


def _mean_monomial(u2: np.ndarray | None, betas: list):
    """Mean over the exponents beta (all even) of u^beta, given u2 = u*u per point."""
    total = 0.0
    for beta in betas:
        term = 1.0
        for i, e in enumerate(beta):
            if e:
                term = term * u2[:, i] ** (e // 2)
        total = total + term
    return total / len(betas)


def lattice_partial_sum(diag: LatticeDiagonal, N: int) -> float | complex:
    """Sum of the diagonal over 0 < |n| <= N (origin excluded); N < 1 raises ValueError."""
    ((s,), _), = _batch_sums([(diag, [N])])
    return real_if_close(s)


@dataclass(frozen=True)
class LogFit:
    """Both line fits of the partial sums S(N) over one grid, from one walk of its largest ball.

    slope, intercept and max_residual fit S against log N. counts are the
    eigenvalue counts K(N), the lattice points with 0 < |n| <= N, and estimate
    is the slope of S against log K (see normalised_trace_estimate).
    """

    slope: float | complex
    intercept: float | complex
    max_residual: float
    N_grid: tuple
    counts: tuple
    estimate: float | complex


def log_fit(diag: LatticeDiagonal, N_grid: Sequence[int]) -> LogFit:
    """Least-squares fits of S(N) against log N and against log K(N) over the grid."""
    return log_fits([(diag, N_grid)])[0]


def log_fits(requests: Sequence[tuple]) -> list:
    """The log_fit of each (diag, N_grid) request, all of one dimension, from one walk of the union of their grids.

    Each shell of the union is walked once and feeds only the requests whose
    grid reaches it; a symbol with no even exponent only counts. Bad input (no
    request, mixed dimensions, a grid of fewer than 4 radii or not strictly
    increasing from 1, or a union over the point budget) raises ValueError
    before any shell is walked.
    """
    grids = [tuple(int(n) for n in N_grid) for _, N_grid in requests]
    if any(len(grid) < 4 for grid in grids):
        raise ValueError("need at least 4 grid points")
    fits = []
    for grid, (sums, counts) in zip(grids, _batch_sums([(diag, grid) for (diag, _), grid in zip(requests, grids)])):
        slope, intercept, max_residual = line_fit(np.log(grid), sums)
        estimate, _, _ = line_fit(np.log(counts), sums)
        slope, intercept, estimate = (real_if_close(v) for v in (slope, intercept, estimate))
        fits.append(LogFit(slope, intercept, max_residual, grid, tuple(counts), estimate))
    return fits


def doubling_grid(N: int) -> list:
    """{N/16, N/8, N/4, N/2, N}; N must be at least 32, leaving the smallest radius >= 2."""
    if N < 32:
        raise ValueError("N must be at least 32")
    return [N >> k for k in range(4, -1, -1)]


def normalised_trace_estimate(diag: LatticeDiagonal, N: int) -> float | complex:
    """Slope of S against log K over the doubling grid ending at N.

    K(N) counts the lattice points in the ball, i.e. the eigenvalue count, so
    for entries y(n/|n|)(1+|n|^2)^{-d/2} the estimate converges to
    (1/d) * integral of y over the sphere. It is the estimate field of the
    log_fit over that grid.
    """
    return log_fit(diag, doubling_grid(int(N))).estimate


def partial_sum_quotient(diag: LatticeDiagonal, N: int) -> float | complex:
    """The single-point quotient S(N) / log K(N).

    Converges to the same limit as normalised_trace_estimate but only at an
    O(1/log N) rate; kept for comparison, not used by the acceptance checks.
    """
    ((s,), (k,)), = _batch_sums([(diag, [int(N)])])
    return real_if_close(s / np.log(k))


def radial_integral_check(d: int, N: float) -> float:
    """integral_0^N r^{d-1} (1+r^2)^{-d/2} dr - log N; bounded in N.

    Closed form: with T = N^2/(1+N^2) and S = sqrt(T), t = r^2/(1+r^2) turns the integral
    into (1/2) integral_0^T t^{d/2-1}/(1-t) dt, whose -(1/2) log(1-T) cancels log N exactly:
        even d: (1/2) log1p(1/N^2) - (1/2) sum_{k=1}^{d/2-1} T^k/k
        odd d:  log1p(S) + (1/2) log1p(1/N^2) - sum_{k=0}^{(d-3)/2} S^(2k+1)/(2k+1)
    """
    if d < 1 or N <= 1:
        raise ValueError("need d >= 1 and N > 1")
    T = N * N / (1.0 + N * N)
    excess = 0.5 * log1p(1.0 / (N * N))  # log sqrt(1+N^2) - log N
    if d % 2 == 0:
        return excess - 0.5 * sum(T**k / k for k in range(1, d // 2))
    S = sqrt(T)
    return log1p(S) + excess - sum(S ** (2 * k + 1) / (2 * k + 1) for k in range((d - 1) // 2))


def model_diagonal(x: TorusElement, y) -> LatticeDiagonal:
    """Diagonal of pi1(x) pi2(y) (1-Laplacian)^{-d/2} in the lattice basis.

    Mode m of x shifts e_n to e_{n+m}, which reaches <e_n, . e_n> only when
    m = 0, with phase exp((i/2)<0, theta n>) = 1. So the entries are
    trace(x) * y(n/|n|) (1+|n|^2)^{-d/2}.
    """
    return _symbol_diagonal(y, x.d, torus_trace(x))


def connes_trace_torus(x: TorusElement, y, N: int) -> tuple:
    """(slope estimate over the doubling grid, (1/d) trace(x) * integral of y)."""
    estimate = normalised_trace_estimate(model_diagonal(x, y), N)
    reference = real_if_close(torus_trace(x) * sphere_integrate(y) / x.d)
    return estimate, reference
