"""Twisted torus algebra with finitely supported coefficient series.

Elements are finite sums x = sum_n c_n u_n over integer vectors n, multiplied by
the relation u_n u_m = exp((i/2) <n, theta m>) u_{n+m} for a fixed real
antisymmetric matrix theta. Coefficients are complex doubles; the phases are
unimodular so no symbolic field is needed. nctrace._core builds the coefficient
maps: it drops magnitudes at or below its PRUNE_TOL after every operation, to
keep supports finite under repeated products, and refuses non-finite ones.

Since <n, theta n> = 0, each u_n is unitary with u_n* = u_{-n}; the adjoint rule
below follows from that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ._core import add_keys, add_maps, coeff_map, convolve_maps

ANTISYM_TOL = 1e-12


def _check_theta_entries(arr: np.ndarray, ndim: int = 2) -> None:
    """Refuse arr unless it is one d x d theta (ndim 2) or a stack (k, d, d) of them (ndim 3).

    d must be at least 2, every entry finite and every member antisymmetric
    within ANTISYM_TOL.
    """
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"theta must be square, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError("theta needs dimension >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta entries must be finite")
    if np.abs(arr + np.swapaxes(arr, -1, -2)).max(initial=0.0) > ANTISYM_TOL:
        raise ValueError("theta is not antisymmetric within 1e-12")


@dataclass(frozen=True)
class ThetaMatrix:
    """Real antisymmetric d x d twist matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        _check_theta_entries(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_upper(cls, d: int, upper: Iterable[float]) -> "ThetaMatrix":
        """Build from the row-major strict upper triangle (d(d-1)/2 entries)."""
        vals = list(upper)
        need = d * (d - 1) // 2
        if len(vals) != need:
            raise ValueError(f"expected {need} upper-triangular entries for d={d}, got {len(vals)}")
        arr = np.zeros((d, d))
        k = 0
        for i in range(d):
            for j in range(i + 1, d):
                arr[i, j] = vals[k]
                arr[j, i] = -vals[k]
                k += 1
        return cls(arr)

    def same_as(self, other: "ThetaMatrix") -> bool:
        return self is other or (
            self.entries.shape == other.entries.shape
            and np.array_equal(self.entries, other.entries)
        )


def _check_same_theta(x: "TorusElement", y: "TorusElement") -> None:
    if not x.theta.same_as(y.theta):
        raise ValueError("elements live over different theta matrices; refusing to combine")


@dataclass(frozen=True)
class TorusElement:
    """Finitely supported twisted series over Z^d.

    coeffs maps integer tuples to complex amplitudes. Instances are immutable
    values; all arithmetic returns new elements.
    """

    theta: ThetaMatrix
    coeffs: Mapping[tuple, complex] = field(default_factory=dict)

    def __post_init__(self):
        d = self.theta.d

        def mode(n) -> tuple:
            key = tuple(int(v) for v in n)
            if len(key) != d:
                raise ValueError(f"mode {key} has wrong length for d={d}")
            return key

        object.__setattr__(self, "coeffs", coeff_map(self.coeffs.items(), mode))

    @property
    def d(self) -> int:
        return self.theta.d

    def support(self) -> list:
        return sorted(self.coeffs)

    def coeff(self, n) -> complex:
        return self.coeffs.get(tuple(int(v) for v in n), 0j)

    def support_radius(self) -> float:
        """Largest Euclidean norm over the support (0 for the zero element)."""
        if not self.coeffs:
            return 0.0
        return max(float(np.linalg.norm(n)) for n in self.coeffs)

    def __add__(self, other: "TorusElement") -> "TorusElement":
        _check_same_theta(self, other)
        return TorusElement(self.theta, add_maps(self.coeffs, other.coeffs))

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TorusElement":
        s = complex(scalar)
        return TorusElement(self.theta, {n: s * c for n, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            return torus_mul(self, other)
        return complex(other) * self

    def l2_norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))


def unitary_generator(theta: ThetaMatrix, n) -> TorusElement:
    """The generator u_n."""
    return TorusElement(theta, {tuple(int(v) for v in n): 1.0 + 0j})


def torus_identity(theta: ThetaMatrix) -> TorusElement:
    return unitary_generator(theta, (0,) * theta.d)


def twist_phase(theta: ThetaMatrix, n, m) -> complex:
    """exp((i/2) <n, theta m>)."""
    val = float(np.dot(np.asarray(n, dtype=float), theta.entries @ np.asarray(m, dtype=float)))
    return complex(np.exp(0.5j * val))


def torus_mul(x: TorusElement, y: TorusElement) -> TorusElement:
    """(x y)_p = sum over n+m=p of x_n y_m exp((i/2)<n, theta m>)."""
    _check_same_theta(x, y)
    th = x.theta
    return TorusElement(th, convolve_maps(x.coeffs, y.coeffs, add_keys, lambda n, m: twist_phase(th, n, m)))


def torus_adjoint(x: TorusElement) -> TorusElement:
    """(x*)_n = conj(x_{-n}); satisfies (xy)* = y* x*."""
    return TorusElement(x.theta, {tuple(-v for v in n): c.conjugate() for n, c in x.coeffs.items()})


def torus_trace(x: TorusElement) -> complex:
    """The zero-mode coefficient."""
    return x.coeffs.get((0,) * x.d, 0j)


def torus_derivation(j: int, x: TorusElement) -> TorusElement:
    """Coefficientwise derivation: mode n picks up a factor i n_j. j is 1-based."""
    if not 1 <= j <= x.d:
        raise ValueError(f"derivation index {j} out of range 1..{x.d}")
    return TorusElement(x.theta, {n: 1j * n[j - 1] * c for n, c in x.coeffs.items()})
