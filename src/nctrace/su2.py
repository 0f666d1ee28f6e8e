"""Irreducible matrix models for the three normalized rotation generators.

Each half-integer spin l gives a (2l+1) x (2l+1) block carrying generators
gens = (D1, D2, D3) with [D1, D2] = 2i D3 cyclically, D1 diagonal and Casimir
D1^2+D2^2+D3^2 = 4 l(l+1) I. The normalized generators b_k = D_k / sqrt(4l(l+1))
commute up to norm 1/(l+1), so words in them converge, block by block, to
commuting variables on the unit 2-sphere: the module measures that convergence
(diagonal pinchings against the Beta closed form, block norms against sup
norms, trace ratios against sphere integrals).

All limit quantities are invariant under the overall scale of the generators,
which is why the block construction can fix D = 2J without loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma
from typing import Sequence

import numpy as np

from ._core import add_maps, coeff_map, line_fit, real_if_close
from .sphere import SpherePoly, sphere_integrate

# ordered so the diagonal one comes first, matching gens[0]
PAULI_TRIPLE = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
)


@dataclass(frozen=True, order=True)
class HalfInteger:
    """l = twice_value / 2, stored exactly."""

    twice_value: int

    def __post_init__(self):
        if not isinstance(self.twice_value, int) or self.twice_value < 0:
            raise ValueError("twice_value must be a nonnegative integer")

    @property
    def value(self) -> float:
        return self.twice_value / 2.0

    @property
    def dim(self) -> int:
        return self.twice_value + 1

    def l_squared(self) -> float:
        """l(l+1), exact: twice(twice+2)/4 is a dyadic rational."""
        return self.twice_value * (self.twice_value + 2) / 4.0


def _as_half(l) -> HalfInteger:
    if isinstance(l, HalfInteger):
        return l
    if isinstance(l, int):
        return HalfInteger(2 * l)
    raise TypeError("spin must be a HalfInteger or a plain integer")


@dataclass(frozen=True)
class IrrepBlock:
    l: HalfInteger
    gens: np.ndarray  # shape (3, dim, dim); gens[0] diagonal

    @property
    def dim(self) -> int:
        return self.l.dim

    @property
    def casimir_scalar(self) -> float:
        """The scalar value of gens[0]^2 + gens[1]^2 + gens[2]^2."""
        return 4.0 * self.l.l_squared()

    @property
    def unit_gens(self) -> np.ndarray:
        """b_k = D_k / sqrt(4 l(l+1)); satisfy sum b_k^2 = I."""
        return self.gens / np.sqrt(self.casimir_scalar)


def _ladder(l) -> tuple:
    """(spin, weights m ascending, l(l+1), raising coefficients sqrt(l(l+1) - m(m+1)) for m < l)."""
    half = _as_half(l)
    if half.twice_value < 1:
        raise ValueError("need l >= 1/2")
    m = (np.arange(half.dim) - half.value).astype(float)
    ll = half.l_squared()
    return half, m, ll, np.sqrt(ll - m[:-1] * (m[:-1] + 1.0))


def build_block(l) -> IrrepBlock:
    """Ladder construction of the spin-l block, first generator diagonal.

    The raising operator acts by sqrt(l(l+1) - m(m+1)) on the basis ordered by
    ascending weight m; D = (2 Jz, 2 Jx, 2 Jy) gives [D1, D2] = 2i D3 cyclic
    with D1 = diag(-2l ... 2l).
    """
    half, m, ll, raise_ = _ladder(l)
    dim = half.dim
    jz = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(1, dim), np.arange(dim - 1)] = raise_
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return IrrepBlock(half, 2.0 * np.stack([jz, jx, jy]))


def block_commutator_norm(block: IrrepBlock, j: int, k: int) -> float:
    """Spectral norm of [b_j, b_k]; equals 1/(l+1) for j != k."""
    if not (1 <= j <= 3 and 1 <= k <= 3):
        raise ValueError("generator indices are 1..3")
    b = block.unit_gens
    c = b[j - 1] @ b[k - 1] - b[k - 1] @ b[j - 1]
    return float(np.linalg.norm(c, 2))


def exp_i_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    """e^{ish} for a Hermitian matrix h and a real s, as V diag(e^{is lambda}) V*.

    V and lambda come from the spectral decomposition h = V diag(lambda) V*,
    so the result is unitary to roundoff for every s.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries are not finite")
    if np.abs(h - h.conj().T).max() > 1e-12 * max(1.0, np.abs(h).max()):
        raise ValueError("matrix is not Hermitian")
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * s * lam)) @ v.conj().T


def su2_to_so3(g: np.ndarray) -> np.ndarray:
    """Image of a special-unitary 2x2 matrix under the 2-to-1 covering map.

    Entry (k, j) is (1/2) tr(g P_k g* P_j) over the Pauli triple; row k then
    expands g P_k g* in the triple. Composition reverses order:
    su2_to_so3(gh) = su2_to_so3(h) @ su2_to_so3(g).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries are not finite")
    if np.abs(g.conj().T @ g - np.eye(2)).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValueError("matrix must have determinant 1")
    out = np.empty((3, 3))
    for k, pk in enumerate(PAULI_TRIPLE):
        conj = g @ pk @ g.conj().T
        for j, pj in enumerate(PAULI_TRIPLE):
            val = 0.5 * np.trace(conj @ pj)
            out[k, j] = val.real
    return out


def conjugation_covariance_check(block: IrrepBlock, j: int, s: float) -> float:
    """Residual of the rotation covariance of the generator triple.

    Conjugating D_k by e^{isD_j} reshuffles the triple by the SO(3) image of
    e^{is P_j}: the return value is max over k of
    || e^{isD_j} D_k e^{-isD_j} - sum_m R_{mk} D_m ||.
    """
    if not 1 <= j <= 3:
        raise ValueError("generator index is 1..3")
    rot = su2_to_so3(exp_i_hermitian(PAULI_TRIPLE[j - 1], s))
    u = exp_i_hermitian(block.gens[j - 1], s)
    uinv = u.conj().T
    worst = 0.0
    for k in range(3):
        lhs = u @ block.gens[k] @ uinv
        rhs = np.tensordot(rot[:, k], block.gens, axes=(0, 0))
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


def block_conditional_expectation(block: IrrepBlock, M: np.ndarray) -> np.ndarray:
    """Pinching onto the eigenspaces of the diagonal generator.

    Eigenvalues of gens[0] are simple on an irrep, so this is diagonal
    extraction: idempotent, trace-preserving, norm-nonincreasing.
    """
    M = np.asarray(M)
    if M.shape != (block.dim, block.dim):
        raise ValueError(f"matrix must be {block.dim}x{block.dim}")
    return np.diag(np.diag(M))


# ---------------------------------------------------------------------------
# noncommutative polynomials in the three normalized generators


def _letters(word) -> tuple:
    w = tuple(int(v) for v in word)
    if any(v not in (1, 2, 3) for v in w):
        raise ValueError(f"letters must be 1, 2 or 3, got {w}")
    return w


@dataclass(frozen=True)
class GenPoly:
    """Formal complex combination of words in the three normalized generators.

    Words are tuples of letter indices in {1, 2, 3}; the empty word is the
    identity.
    """

    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "coeffs", coeff_map(self.coeffs.items(), _letters))

    @classmethod
    def one(cls) -> "GenPoly":
        return cls({(): 1.0 + 0j})

    @classmethod
    def word(cls, letters: Sequence[int], coeff=1.0) -> "GenPoly":
        return cls({tuple(letters): complex(coeff)})

    @classmethod
    def parse(cls, text: str) -> "GenPoly":
        """Parse strings like "b1b2b2" or "1" (the empty word)."""
        t = text.strip().replace(" ", "")
        if t in ("1", ""):
            return cls.one()
        letters = []
        i = 0
        while i < len(t):
            if t[i] != "b" or i + 1 >= len(t) or t[i + 1] not in "123":
                raise ValueError(f"cannot parse generator word {text!r}")
            letters.append(int(t[i + 1]))
            i += 2
        return cls.word(letters)

    def __add__(self, other: "GenPoly") -> "GenPoly":
        return GenPoly(add_maps(self.coeffs, other.coeffs))


def su2_symbol(w: GenPoly) -> SpherePoly:
    """Commutative image on the 2-sphere: letter k becomes the coordinate t_k."""
    return SpherePoly(3, coeff_map(w.coeffs.items(), lambda word: tuple(word.count(k) for k in (1, 2, 3))))


# A word of k letters is a band matrix of width 2k+1 in the weight basis: b1 is
# diagonal, b2 and b3 sit on the two first off-diagonals. A band matrix M is kept
# as a map offset a -> vector v with v[j] = M[j+a, j] (zero where row j+a leaves
# the block), so a product or a trace costs O(dim) per pair of offsets.


def _unit_bands(l) -> tuple:
    """(spin, bands of b1, b2, b3) straight from the ladder coefficients."""
    half, m, ll, raise_ = _ladder(l)
    scale = np.sqrt(4.0 * ll)
    up = np.zeros(half.dim)
    up[:-1] = raise_ / scale  # b2[j+1, j]
    down = np.roll(up, 1)  # b2[j-1, j]
    return half, ({0: (2.0 * m / scale).astype(complex)}, {1: up + 0j, -1: down + 0j}, {1: -1j * up, -1: 1j * down})


def _window(a: int, dim: int) -> tuple:
    """Columns j with row j+a inside the block, and those rows."""
    return (slice(0, dim - a), slice(a, dim)) if a >= 0 else (slice(-a, dim), slice(0, dim + a))


def _band_mul(left: dict, right: dict, dim: int) -> dict:
    """Bands of LR: (LR)[j+a+b, j] = L[j+a+b, j+b] R[j+b, j]."""
    out: dict = {}
    for a, u in left.items():
        for b, v in right.items():
            if abs(a + b) >= dim:
                continue
            cols, rows = _window(b, dim)
            out.setdefault(a + b, np.zeros(dim, dtype=complex))[cols] += u[rows] * v[cols]
    return out


def _word_bands(word: tuple, gens: tuple, dim: int) -> dict:
    """Bands of the product of unit generators along word; the empty word is I."""
    out = {0: np.ones(dim, dtype=complex)}
    for k in word:
        out = _band_mul(out, gens[k - 1], dim)
    return out


def _band_trace(left: dict, right: dict, dim: int) -> complex:
    """tr(LR) as the sum over offsets a of the aligned dot products of L's band a and R's band -a."""
    total = 0j
    for a in sorted(left):
        if -a in right:
            cols, rows = _window(a, dim)
            total += np.dot(left[a][cols], right[-a][rows])
    return complex(total)


def block_trace(w: GenPoly, l) -> complex:
    """tr w(b) on the block of spin l (a HalfInteger or a plain integer).

    Each word is cut in half and traced from the bands of its two halves, in
    O(dim k^2) for k letters; halves are cached, so powers of one letter build
    one half product per block. Only the spin is read: no dense matrix is built.
    """
    half, gens = _unit_bands(l)
    dim = half.dim
    cache: dict = {}

    def half_bands(word: tuple) -> dict:
        if word not in cache:
            cache[word] = _word_bands(word, gens, dim)
        return cache[word]

    total = 0j
    for word, c in sorted(w.coeffs.items()):
        cut = len(word) // 2
        total += c * _band_trace(half_bands(word[:cut]), half_bands(word[cut:]), dim)
    return total


def beta_formula_residual(l, n1: int, n2: int, n3: int) -> float:
    """Distance of the pinched word diagonal from its closed-form limit.

    The word is b1^n1 b2^n2 b3^n3; its pinching is compared entrywise, on the
    Hermitian part, against c * x^n1 (1-x^2)^{(n2+n3)/2} over the eigenvalues x
    of b1, with c = Beta((n2+1)/2, (n3+1)/2) / pi for n2, n3 both even and
    c = 0 when either is odd. The skew part of the diagonal is pure commutator
    residue of size O(1/l), pinned separately by tests. The pinching is band 0
    of the word, so no dense block is built.
    """
    if min(n1, n2, n3) < 0:
        raise ValueError("exponents must be nonnegative")
    half, gens = _unit_bands(l)
    bands = _word_bands((1,) * n1 + (2,) * n2 + (3,) * n3, gens, half.dim)
    x = np.real(gens[0][0])  # eigenvalues of b1: m / sqrt(l(l+1))
    diag = np.real(bands[0]) if 0 in bands else np.zeros_like(x)  # diagonal of the Hermitian part (W + W*)/2
    if n2 % 2 or n3 % 2:
        closed = np.zeros_like(x)
    else:
        log_c = lgamma((n2 + 1) / 2.0) + lgamma((n3 + 1) / 2.0) - lgamma((n2 + n3 + 2) / 2.0)
        c = exp(log_c) / np.pi
        closed = c * x**n1 * (1.0 - x * x) ** ((n2 + n3) // 2)
    return float(np.abs(diag - closed).max())


# ---------------------------------------------------------------------------
# trace ratio estimation


def _spin_range(twice_max: int):
    for twice in range(1, twice_max + 1):
        yield HalfInteger(twice)


def _ratio_partial_sums(w: GenPoly, twice_grid: Sequence[int]) -> tuple:
    """Weighted numerator/denominator partial sums at each grid point.

    Numerator adds (2l+1) * tr(w(b)) * (1 + l(l+1))^{-3/2} per spin (the word
    acts identically on the (2l+1) copies of the block); denominator adds
    (2l+1)^2 * (1 + l(l+1))^{-3/2}. Spin 0 is excluded: a single bounded term
    absorbed by the fit intercept, mirroring the lattice-sum convention.
    """
    grid = [int(t) for t in twice_grid]
    if grid != sorted(grid) or grid[0] < 1:
        raise ValueError("twice grid must be increasing with positive entries")
    nums, dens = [], []
    num = 0j
    den = 0.0
    it = iter(grid)
    nxt = next(it)
    for half in _spin_range(grid[-1]):
        weight = (1.0 + half.l_squared()) ** -1.5
        num += half.dim * block_trace(w, half) * weight
        den += half.dim**2 * weight
        while nxt is not None and half.twice_value == nxt:
            nums.append(num)
            dens.append(den)
            nxt = next(it, None)
    return nums, dens


def su2_dixmier_ratio(w: GenPoly, L_max: int) -> tuple:
    """(slope estimate, (1/4pi) * sphere integral of the symbol).

    The estimate is the least-squares slope of numerator partial sums against
    denominator partial sums over the doubling grid of spins ending at L_max.
    Both sums diverge logarithmically with the same weights, so the slope
    strips the shared O(1) intercept that a single quotient would keep as an
    O(1/log L) error.
    """
    if L_max < 4:
        raise ValueError("L_max must be >= 4")
    tmax = 2 * int(L_max)
    grid = [tmax >> 3, tmax >> 2, tmax >> 1, tmax]
    nums, dens = _ratio_partial_sums(w, grid)
    slope, _, _ = line_fit(dens, nums)
    reference = sphere_integrate(su2_symbol(w)) / (4.0 * np.pi)
    return real_if_close(slope), real_if_close(reference)
