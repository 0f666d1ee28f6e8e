"""Kernels shared across modules: sparse coefficient maps, the line fit and the
real-if-close rule.

A coefficient map is a dict from hashable keys (torus modes, multi-indices,
generator words) to complex amplitudes. Terms at or below PRUNE_TOL in
magnitude are dropped as they arrive, before accumulation, which keeps
supports finite under repeated products. Every loop runs in dict insertion
order, so sums are reproducible bit for bit.
"""

from __future__ import annotations

import cmath
from typing import Callable, Iterable, Mapping

import numpy as np

PRUNE_TOL = 1e-15


def coeff_map(items: Iterable[tuple], key: Callable) -> dict:
    """Accumulate (raw key, coefficient) pairs into a pruned map.

    key normalises and validates each raw key. Non-finite coefficients are
    refused: a NaN would otherwise fail the prune test and vanish silently.
    """
    out: dict = {}
    for raw, c in items:
        k = key(raw)
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient of {k} is not finite: {c}")
        if abs(c) > PRUNE_TOL:
            out[k] = out.get(k, 0j) + c
    return out


def add_maps(a: Mapping, b: Mapping) -> dict:
    """Termwise sum; keys of a first, then the new keys of b."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0j) + c
    return out


def convolve_maps(a: Mapping, b: Mapping, combine: Callable, weight: Callable | None = None) -> dict:
    """sum over pairs of a_n b_m [weight(n, m)] placed at combine(n, m)."""
    out: dict = {}
    for n, cn in a.items():
        for m, cm in b.items():
            p = combine(n, m)
            term = cn * cm if weight is None else cn * cm * weight(n, m)
            out[p] = out.get(p, 0j) + term
    return out


def add_keys(n: tuple, m: tuple) -> tuple:
    """Elementwise sum of two equal-length integer tuples (modes, multi-indices)."""
    return tuple(a + b for a, b in zip(n, m))


def line_fit(x, y) -> tuple:
    """Least-squares y ~ slope * x + intercept: (slope, intercept, max |residual|).

    y keeps its dtype (real, or complex for a list of complex values), which
    selects the solver.
    """
    y = np.asarray(y)
    design = np.stack([np.asarray(x, dtype=float), np.ones(len(y))], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.abs(y - design @ np.array([slope, intercept]))
    return slope, intercept, float(resid.max())


def real_if_close(z: complex) -> float | complex:
    """z.real when the imaginary part is roundoff (1e-12) relative to max(1, |Re z|)."""
    z = complex(z)
    return z.real if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)) else z
