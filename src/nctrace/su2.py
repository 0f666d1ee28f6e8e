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
        t = self.twice_value
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 0:
            raise ValueError("twice_value must be a nonnegative integer")
        object.__setattr__(self, "twice_value", int(t))

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
    if isinstance(l, (int, np.integer)) and not isinstance(l, bool):
        return HalfInteger(2 * int(l))
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


def build_block(l) -> IrrepBlock:
    """Ladder construction of the spin-l block, first generator diagonal.

    The raising operator acts by sqrt(l(l+1) - m(m+1)) on the basis ordered by
    ascending weight m; D = (2 Jz, 2 Jx, 2 Jy) gives [D1, D2] = 2i D3 cyclic
    with D1 = diag(-2l ... 2l).
    """
    half = _as_half(l)
    if half.twice_value < 1:
        raise ValueError("need l >= 1/2")
    m = (np.arange(half.dim) - half.value).astype(float)
    raise_ = np.sqrt(half.l_squared() - m[:-1] * (m[:-1] + 1.0))
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


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def exp_i_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    """e^{ish} for a Hermitian matrix h, or each of a stack of shape (..., n, n), and a real s.

    The result has h's shape and is V diag(e^{is lambda}) V* for each member,
    with V and lambda from its spectral decomposition h = V diag(lambda) V*, so
    it is unitary to roundoff for every s. Every member must be finite and
    Hermitian.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if not np.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries are not finite")
    skew = np.abs(h - _adjoint(h)).max(axis=(-2, -1))
    if np.any(skew > 1e-12 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))):
        raise ValueError("matrix is not Hermitian")
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * s * lam)[..., None, :]) @ _adjoint(v)


def su2_to_so3(g: np.ndarray) -> np.ndarray:
    """Image of a special-unitary 2x2 matrix, or of each of a stack of shape (..., 2, 2), under the 2-to-1 covering map.

    The result has shape (..., 3, 3). Entry (k, j) is (1/2) tr(g P_k g* P_j)
    over the Pauli triple; row k then expands g P_k g* in the triple.
    Composition reverses order: su2_to_so3(gh) = su2_to_so3(h) @ su2_to_so3(g).
    Every member must be finite, unitary and of determinant 1.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix or a stack of them")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries are not finite")
    g_adj = _adjoint(g)
    if np.any(np.abs(g_adj @ g - np.eye(2)).max(axis=(-2, -1)) > 1e-10):
        raise ValueError("matrix is not unitary")
    if np.any(np.abs(np.linalg.det(g) - 1.0) > 1e-10):
        raise ValueError("matrix must have determinant 1")
    pauli = np.stack(PAULI_TRIPLE)
    conj = (g[..., None, :, :] @ pauli) @ g_adj[..., None, :, :]  # g P_k g*, shape (..., 3, 2, 2)
    return (0.5 * np.trace(conj[..., :, None, :, :] @ pauli, axis1=-2, axis2=-1)).real


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
# diagonal, b2 and b3 sit on the two first off-diagonals. The blocks of a run of
# spins are laid end to end in one flat index, and a band matrix M is kept as a
# map offset a -> flat vector v with v[j] = M[j+a, j], zero wherever row j+a
# leaves column j's block. A shift by a over the whole flat vector then never
# mixes two blocks, so each product is exact block by block, and a product or a
# trace of every block at once costs O(total dim) per pair of offsets.

# Flat entries per block_trace call of _ratio_partial_sums. Sweep of
# `su2 --lmax 200` + `su2 --word b1b1b2b2 --lmax 150`, one process each (2 vCPUs,
# one BLAS thread, median of 9), suite time and peak RSS:
#   2^11: 41.9 ms, 39.4 MB    2^12: 44.4 ms, 39.4 MB    2^13: 44.8 ms, 39.8 MB
#   2^14: 48.7 ms, 39.7 MB    2^15: 55.1 ms, 41.3 MB    all spins: 55.6 ms, 49.3 MB
# against 219 ms and 39.3 MB for one call per spin. At L = 2000 the b1b1 ratio
# takes 1.3x the time of 2^12 at 2^11 (every spin past l = 1023 is its own
# call) and 1.6x at 2^13, where each 128 KiB complex band comes back fresh
# from the OS (6x the page faults).
SPIN_CHUNK = 1 << 12
# Flat entries of the spin range 1/2 ... L, L(2L+3), that a ratio or a beta
# residual may reach: L <= 2895. The README table's L = 2000 lays 8.0M entries,
# and a four-letter ratio there takes 0.5-1.0 s; at L = 2895 it takes 1.1-1.8 s
# (2 vCPUs, one BLAS thread). Time grows like L^2 with no end, so a larger L is
# refused.
SPIN_BUDGET = 1 << 24


def _check_spin_budget(twice_max: int) -> None:
    entries = twice_max * (twice_max + 3) // 2  # sum of 2l+1 over the spins 1/2 ... twice_max/2
    if entries > SPIN_BUDGET:
        raise ValueError(
            f"spins up to l = {twice_max / 2:g} lay {entries} band entries, over the budget of {SPIN_BUDGET}"
        )


def _unit_bands(spins: Sequence, letters) -> tuple:
    """(start of each block, bands by letter) over the blocks of spins laid end to end.

    The bands map 0 to the identity and each of letters to the unit generator
    b1, b2 or b3; a letter not asked for is not built.
    """
    twice = np.array([_as_half(l).twice_value for l in spins], dtype=np.int64)
    if twice.size == 0 or twice.min() < 1:
        raise ValueError("need l >= 1/2")
    dims = twice + 1
    starts = np.cumsum(dims) - dims
    m = np.arange(starts[-1] + dims[-1]) - np.repeat(starts + twice / 2.0, dims)  # weights, ascending in each block
    ll = twice * (twice + 2) / 4.0
    scale = np.repeat(np.sqrt(4.0 * ll), dims)
    gens = {0: {0: np.ones(len(m))}}
    if 1 in letters:
        gens[1] = {0: (2.0 * m / scale).astype(complex)}
    if 2 in letters or 3 in letters:
        up = np.sqrt(np.repeat(ll, dims) - m * (m + 1.0)) / scale  # b2[j+1, j]
        up[starts + twice] = 0.0  # each block's top weight raises out of the block
        down = np.roll(up, 1)  # b2[j-1, j]; the roll moves those zeros onto each block's first column
        if 2 in letters:
            gens[2] = {1: up + 0j, -1: down + 0j}
        if 3 in letters:
            gens[3] = {1: -1j * up, -1: 1j * down}
    return starts, gens


def _window(a: int, n: int) -> tuple:
    """Columns j with row j+a inside the flat index, and those rows."""
    return (slice(0, n - a), slice(a, n)) if a >= 0 else (slice(-a, n), slice(0, n + a))


def _band_mul(left: dict, right: dict, width: int) -> dict:
    """Bands of LR: (LR)[j+a+b, j] = L[j+a+b, j+b] R[j+b, j]; offsets past the widest block are dropped."""
    out: dict = {}
    for a, u in left.items():
        for b, v in right.items():
            if abs(a + b) >= width:
                continue
            cols, rows = _window(b, len(v))
            out.setdefault(a + b, np.zeros(len(v), dtype=complex))[cols] += u[rows] * v[cols]
    return out


def _word_bands(word: tuple, gens: dict, width: int) -> dict:
    """Bands of the product of unit generators along word, on blocks at most width wide; the empty word is I."""
    out = gens[word[0] if word else 0]
    for k in word[1:]:
        out = _band_mul(out, gens[k], width)
    return out


def _band_trace(left: dict, right: dict, starts: np.ndarray) -> np.ndarray:
    """tr(LR) of each block: L's band a times R's band -a, aligned and summed per column, then per block."""
    n = len(next(iter(left.values())))
    per_column = np.zeros(n, dtype=complex)
    for a in sorted(left):
        if -a in right:
            cols, rows = _window(a, n)
            per_column[cols] += left[a][cols] * right[-a][rows]
    return np.add.reduceat(per_column, starts)


def block_trace(w: GenPoly, l):
    """tr w(b) on the block of spin l, or on each block of a sequence of spins.

    A spin is a HalfInteger or a plain or numpy integer. One spin gives a
    complex; a sequence of n spins gives a complex array of shape (n,), from
    one pass over their blocks laid end to end. Each word is cut in half and
    traced from the bands of its two halves, in O(dim k^2) per block for k
    letters; halves are cached, so powers of one letter build one half product
    per call, and only the generators the word reads are laid out. Only the
    spins are read: no dense matrix is built.
    """
    single = np.ndim(l) == 0
    starts, gens = _unit_bands([l] if single else l, {k for word in w.coeffs for k in word})
    width = int(np.diff(starts, append=len(gens[0][0])).max())
    cache: dict = {}

    def half_bands(word: tuple) -> dict:
        if word not in cache:
            cache[word] = _word_bands(word, gens, width)
        return cache[word]

    total = np.zeros(len(starts), dtype=complex)
    for word, c in sorted(w.coeffs.items()):
        cut = len(word) // 2
        total += c * _band_trace(half_bands(word[:cut]), half_bands(word[cut:]), starts)
    return complex(total[0]) if single else total


def beta_formula_residual(l, n1: int, n2: int, n3: int) -> float:
    """Distance of the pinched word diagonal from its closed-form limit.

    The word is b1^n1 b2^n2 b3^n3; its pinching is compared entrywise, on the
    Hermitian part, against c * x^n1 (1-x^2)^{(n2+n3)/2} over the eigenvalues x
    of b1, with c = Beta((n2+1)/2, (n3+1)/2) / pi for n2, n3 both even and
    c = 0 when either is odd. The skew part of the diagonal is pure commutator
    residue of size O(1/l), pinned separately by tests. The pinching is band 0
    of the word, so no dense block is built. A spin past SPIN_BUDGET is refused.
    """
    if min(n1, n2, n3) < 0:
        raise ValueError("exponents must be nonnegative")
    half = _as_half(l)
    _check_spin_budget(half.twice_value)
    word = (1,) * n1 + (2,) * n2 + (3,) * n3
    _, gens = _unit_bands([half], {1, *word})
    bands = _word_bands(word, gens, half.dim)
    x = np.real(gens[1][0])  # eigenvalues of b1: m / sqrt(l(l+1))
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


def _spin_chunks(twice: np.ndarray) -> list:
    """twice cut into consecutive runs of at most SPIN_CHUNK flat entries; a wider block runs alone."""
    ends = np.cumsum(twice + 1)
    chunks = []
    lo = 0
    while lo < twice.size:
        limit = ends[lo] - (twice[lo] + 1) + SPIN_CHUNK
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        chunks.append(twice[lo:hi])
        lo = hi
    return chunks


def _ratio_partial_sums(w: GenPoly, twice_grid: Sequence[int]) -> tuple:
    """Weighted numerator/denominator partial sums at each grid point, as two arrays.

    Numerator adds (2l+1) * tr(w(b)) * (1 + l(l+1))^{-3/2} per spin (the word
    acts identically on the (2l+1) copies of the block); denominator adds
    (2l+1)^2 * (1 + l(l+1))^{-3/2}. Spin 0 is excluded: a single bounded term
    absorbed by the fit intercept, mirroring the lattice-sum convention. The
    traces come from one block_trace call per chunk of spins (_spin_chunks),
    and the terms are summed in spin order.
    """
    grid = [int(t) for t in twice_grid]
    if grid != sorted(grid) or grid[0] < 1:
        raise ValueError("twice grid must be increasing with positive entries")
    twice = np.arange(1, grid[-1] + 1)
    traces = np.concatenate([block_trace(w, [HalfInteger(t) for t in chunk]) for chunk in _spin_chunks(twice)])
    weight = (1.0 + twice * (twice + 2) / 4.0) ** -1.5
    dim = twice + 1
    at = np.array(grid) - 1
    return np.cumsum(dim * traces * weight)[at], np.cumsum(dim**2 * weight)[at]


def su2_dixmier_ratio(w: GenPoly, L_max: int) -> tuple:
    """(slope estimate, (1/4pi) * sphere integral of the symbol).

    The estimate is the least-squares slope of numerator partial sums against
    denominator partial sums over the doubling grid of spins ending at L_max.
    Both sums diverge logarithmically with the same weights, so the slope
    strips the shared O(1) intercept that a single quotient would keep as an
    O(1/log L) error. An L_max past SPIN_BUDGET is refused before any block is
    laid out.
    """
    if L_max < 4:
        raise ValueError("L_max must be >= 4")
    tmax = 2 * int(L_max)
    _check_spin_budget(tmax)
    grid = [tmax >> 3, tmax >> 2, tmax >> 1, tmax]
    nums, dens = _ratio_partial_sums(w, grid)
    slope, _, _ = line_fit(dens, nums)
    reference = sphere_integrate(su2_symbol(w)) / (4.0 * np.pi)
    return real_if_close(slope), real_if_close(reference)
