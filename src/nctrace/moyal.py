"""Symplectic linear algebra and grid checks for the flat twisted plane.

Three groups of tools: the normal form beta with beta^T theta beta = Omega and
the Sp(theta) machinery built on it; phase-shift unitaries on a zero-padded
uniform grid, where the commutation phase law is an exact finite identity; and
the scalar decay profiles behind the trace-ideal memberships (the weighted
pullback multiplier, its difference from the flat weight, and the Riesz-kernel
difference), certified by sampled shell suprema.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from ._core import integer_value
from ._lattice import iter_shell
from .sphere import _check_invertible, _moments, _monomial_integrals, _multi_indices, _probe_directions, vg_action
from .torus import ThetaMatrix, _check_theta_entries

MEMBERSHIP_TOL = 1e-9
# random directions per sampled shell of h_decay_profile and riesz_difference_decay,
# besides the 2d signed axes
SHELL_DIRECTIONS = 2000
SHELL_SAMPLE_BYTES = 2**31  # largest point array of one sampled shell profile


def _theta_entries(theta) -> np.ndarray:
    """The entries of one theta or of a stack (k, d, d) of them, refused whole by torus._check_theta_entries."""
    th = theta.entries if isinstance(theta, ThetaMatrix) else np.asarray(theta, dtype=float)
    _check_theta_entries(th, 3 if th.ndim == 3 else 2)
    return th


@dataclass(frozen=True)
class SymplecticForm:
    """The fixed block form [[0,1],[-1,0]] repeated along the diagonal."""

    d: int

    def __post_init__(self):
        if self.d < 2 or self.d % 2:
            raise ValueError("the block form needs even d >= 2")

    @property
    def matrix(self) -> np.ndarray:
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = np.zeros((self.d, self.d))
        for k in range(self.d // 2):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        return out


@dataclass(frozen=True)
class NormalForm:
    beta: np.ndarray  # (d, d), or (k, d, d) for a stack of k thetas
    residual: float | np.ndarray  # a float, or one per member of a stack


def expm(a: np.ndarray) -> np.ndarray:
    """e^a for a real square matrix a, or for each member of a stack (k, d, d) of them.

    By scaling and squaring a Taylor polynomial: a member is halved s times
    until its 1-norm is at most 1/2, the degree-18 Taylor polynomial of the
    scaled matrix is evaluated by Horner's rule and squared s times. At 1-norm
    1/2 the dropped tail is below (1/2)^19 e^{1/2} / 19! < 1e-22, far under
    roundoff (Moler and Van Loan, SIAM Rev. 45, 2003; Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005). The halving loop takes every member's count at
    once, Horner's rule runs on the whole input and squaring step j on the
    members with s > j, so each member of a stack is bitwise its own call.
    """
    if np.iscomplexobj(a):
        raise ValueError("expected a real matrix")
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries are not finite")
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.zeros(norm.shape, dtype=int)
    while np.any(norm > 0.5):
        s += norm > 0.5
        norm = np.where(norm > 0.5, norm / 2.0, norm)
    a = a / (2.0**s)[..., None, None]
    eye = np.eye(a.shape[-1])
    out = eye + a / 18.0
    for k in range(17, 0, -1):
        out = eye + (a @ out) / k
    for j in range(s.max(initial=0)):
        more = s > j
        out[more] = out[more] @ out[more]
    return out


def antisymmetric_normal_form(theta) -> NormalForm:
    """Real invertible beta with beta^T theta beta = Omega, for one theta or a stack (k, d, d) of them.

    i theta is Hermitian, and its eigenvalues come in pairs +-lam_j. An
    eigenvector a + ib of lam_j > 0 has theta a = lam_j b, theta b = -lam_j a,
    a orthogonal to b and |a| = |b|, and the d/2 such vectors give mutually
    orthogonal planes. So the unit vectors b/|b|, a/|a| of every pair, scaled
    by lam_j^{-1/2} with lam_j = (b/|b|)^T theta (a/|a|), are the columns of
    beta. Each eigenvector's phase is fixed first: its first component of
    modulus at least half the largest is made positive imaginary, and the
    pairs are ordered by that component's index. So a theta already in block
    form comes back as a diagonal scaling. One theta gives a (d, d) beta and
    a float residual; a stack gives (k, d, d) and (k,), is refused whole if
    any member would be, and each member's beta and residual are bitwise
    those of its own call.
    """
    th = _theta_entries(theta)
    d = th.shape[-1]
    if d % 2:
        raise ValueError("antisymmetric normal form needs even d")
    w, v = np.linalg.eigh(1j * th)
    # eigenvalues ascend: the d/2 positive ones, lam_min to lam_max, come last. Their ratio,
    # unlike det theta, does not change when theta is scaled; lam_max = 0 is refused too
    if not np.all(w[..., d // 2] > 1e-12 * w[..., -1]):
        raise ValueError("theta is numerically singular")
    v = v[..., d // 2 :]
    mod = np.abs(v)
    first = np.argmax(mod >= 0.5 * mod.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    order = np.argsort(first, axis=-1, kind="stable")
    v = np.take_along_axis(v * (1j * lead.conj() / np.abs(lead)), order[..., None, :], axis=-1)
    q = np.empty(th.shape)
    q[..., 0::2] = v.imag
    q[..., 1::2] = v.real
    q /= np.linalg.norm(q, axis=-2, keepdims=True)
    lam = np.einsum("...ik,...ij,...jk->...k", q[..., 0::2], th, q[..., 1::2])
    beta = q * np.repeat(lam**-0.5, 2, axis=-1)[..., None, :]
    omega = SymplecticForm(d).matrix
    residual = np.abs(np.swapaxes(beta, -1, -2) @ th @ beta - omega).max(axis=(-2, -1))
    return NormalForm(beta, residual)


def random_sp_block(d: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Random element of the group of the block form: e^{Omega S / 2}, S symmetric; or a stack (n, d, d) of them.

    Omega S runs over the full Lie algebra as S runs over symmetric matrices.
    S is normalised to unit spectral norm so that cond(g) <= e independently
    of d; quadrature error in the invariance checks grows with cond(g)^d, so
    unbounded generators would drown the identity being tested. A stack
    draws its n generators in one call, the same stream as n calls, and
    takes one stacked norm and one stacked expm; each member is bitwise the
    matrix of its own call.
    """
    return _sp_exp(rng.normal(size=(d, d) if n is None else (n, d, d)), 0.5)


def _sp_exp(s: np.ndarray, scale) -> np.ndarray:
    """e^{scale Omega S}, S the symmetric part of s at unit spectral norm, for one s or a stack (k, d, d).

    scale is a number or one per member, shaped (k, 1, 1). The norms are one
    stacked call and the exponentials one stacked expm.
    """
    s = (s + np.swapaxes(s, -1, -2)) / 2.0
    s /= np.linalg.norm(s, 2, axis=(-2, -1))[..., None, None]
    return expm(scale * SymplecticForm(s.shape[-1]).matrix @ s)


def _form_residuals(g: np.ndarray, form: np.ndarray) -> np.ndarray:
    """max |g^T form g - form| for g, or one per member of a stack of g and of forms."""
    if g.shape[-2:] != form.shape[-2:] or g.shape[-1] != g.shape[-2]:
        raise ValueError("dimension mismatch")
    return np.abs(np.swapaxes(g, -1, -2) @ form @ g - form).max(axis=(-2, -1))


def sp_theta_conjugate(g: np.ndarray, beta: np.ndarray, theta=None) -> np.ndarray:
    """beta g beta^{-1}; maps the block-form group onto Sp(theta).

    g must preserve the block form. When theta is supplied the output is
    verified against it as well. Any of g, beta and theta may be a stack
    (k, d, d), the others broadcast against it; the residuals are taken per
    member, a stack is refused whole if any member fails, and each member is
    bitwise the output of its own call.
    """
    g = np.asarray(g, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(_form_residuals(g, SymplecticForm(g.shape[-1]).matrix) > MEMBERSHIP_TOL):
        raise ValueError("g does not preserve the block form")
    out = beta @ g @ np.linalg.inv(beta)
    if theta is not None and np.any(_form_residuals(out, _theta_entries(theta)) > MEMBERSHIP_TOL):
        raise ValueError("conjugated matrix fails the theta-form membership")
    return out


def random_sp_theta(theta, rng: np.random.Generator) -> np.ndarray:
    nf = antisymmetric_normal_form(theta)
    return sp_theta_conjugate(random_sp_block(nf.beta.shape[0], rng), nf.beta, theta)


@dataclass(frozen=True)
class InvarianceReport:
    indices: np.ndarray  # (M, d) monomial exponents, in the order of sphere._multi_indices
    residuals: np.ndarray  # (transforms, M): |quadrature - exact| of each monomial under each transform

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max(initial=0.0))


def sp_invariant_functional_check(theta, degree: int, rule, n_transforms: int = 20, seed: int = 0) -> InvarianceReport:
    """Invariance of the homogeneous integration functional under Sp(theta).

    Symplectic matrices have determinant 1, so the weighted pullback must
    preserve every monomial integral exactly; the report holds the quadrature
    residual per (random transform, monomial up to the degree). theta is one
    d x d matrix of the rule's d, and n_transforms a positive int; anything
    else is a ValueError raised before any draw. The transforms are drawn,
    conjugated into Sp(theta) and validated as one stack (k, d, d), their
    determinants are one stacked det, and one stacked
    sphere._monomial_integrals call gives the (k, M) table of their batch
    passes over the rule's nodes, which on a HopfRule are streamed from
    per-angle tables, never stored. The per-monomial form of the same values
    is sphere.quadrature_integrate(sphere.vg_action(g, t^n), rule).
    """
    if not isinstance(n_transforms, (int, np.integer)) or isinstance(n_transforms, bool) or n_transforms < 1:
        raise ValueError(f"n_transforms must be a positive int, got {n_transforms!r}")
    th = _theta_entries(theta)
    d = rule.d
    if th.shape != (d, d):
        raise ValueError(f"theta of shape {th.shape} does not match the quadrature rule on S^{d - 1}")
    rng = np.random.default_rng(seed)
    nf = antisymmetric_normal_form(th)
    indices = _multi_indices(d, degree)
    exact = _moments(indices, d)
    g = sp_theta_conjugate(random_sp_block(d, rng, n_transforms), nf.beta, th)
    quad = _monomial_integrals(rule, degree, g)
    return InvarianceReport(indices, np.abs(quad - exact / np.linalg.det(g)[:, None]))


# ---------------------------------------------------------------------------
# grid model of the phase-shift unitaries


@dataclass(frozen=True)
class UniformGrid:
    """Uniform box grid (points - n//2) * spacing per axis, zero-padded outside."""

    d: int
    points_per_axis: int
    spacing: float

    def __post_init__(self):
        if self.points_per_axis < 4 or self.spacing <= 0:
            raise ValueError("need at least 4 points per axis and positive spacing")

    @property
    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def mesh(self) -> np.ndarray:
        axes = np.meshgrid(*([self.axis] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    def steps_of(self, t) -> np.ndarray:
        """Integer step count of a grid-aligned shift; rejects misaligned t."""
        t = np.asarray(t, dtype=float)
        if t.shape != (self.d,):
            raise ValueError(f"shift must have shape ({self.d},)")
        steps = t / self.spacing
        rounded = np.round(steps)
        if np.abs(steps - rounded).max() > 1e-9:
            raise ValueError("shift is not aligned with the grid")
        return rounded.astype(int)


def grid_unitary_apply(grid: UniformGrid, theta, t, xi: np.ndarray) -> np.ndarray:
    """(U(t) xi)(u) = exp(+(i/2) <t, theta u>) xi(u - t), zero-padded.

    The phase sign is fixed so that U(t)U(s) = exp(+(i/2)<t, theta s>) U(t+s).
    """
    th = _theta_entries(theta)
    if th.shape != (grid.d, grid.d):
        raise ValueError(f"theta of shape {th.shape} does not match the grid's d={grid.d}")
    t = np.asarray(t, dtype=float)
    steps = grid.steps_of(t)
    xi = np.asarray(xi)
    if xi.shape != (grid.points_per_axis,) * grid.d:
        raise ValueError("state shape does not match the grid")
    shifted = np.zeros_like(xi, dtype=complex)
    src = []
    dst = []
    for k, step in enumerate(steps):
        n = grid.points_per_axis
        if abs(step) >= n:
            return shifted
        if step >= 0:
            dst.append(slice(step, n))
            src.append(slice(0, n - step))
        else:
            dst.append(slice(0, n + step))
            src.append(slice(-step, n))
    shifted[tuple(dst)] = xi[tuple(src)]
    mesh = grid.mesh()
    phase = np.exp(0.5j * np.tensordot(mesh, th.T @ t, axes=(-1, 0)))
    return phase * shifted


def ccr_phase(t, s, theta) -> complex:
    th = _theta_entries(theta)
    if th.ndim != 2:
        raise ValueError(f"ccr_phase takes one theta, got shape {th.shape}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return complex(np.exp(0.5j * float(t @ th @ s)))


def _test_vectors(grid: UniformGrid) -> list:
    mesh = grid.mesh()
    r2 = np.sum(mesh**2, axis=-1)
    gauss = np.exp(-0.5 * r2)
    wave = np.exp(1j * np.tensordot(mesh, np.arange(1, grid.d + 1, dtype=float), axes=(-1, 0)))
    poly = (1.0 + mesh[..., 0]) * np.exp(-0.7 * r2)
    return [gauss, gauss * wave, poly]


def ccr_phase_residual(t, s, theta, grid: UniformGrid) -> float:
    """max |U(t)U(s) xi - phase * U(t+s) xi| over an interior window.

    The window keeps the points whose preimages under both shift orders stay
    inside the box, so zero padding never enters the comparison.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    steps_t = grid.steps_of(t)
    steps_total = steps_t + grid.steps_of(s)
    n = grid.points_per_axis
    interior = []
    # u is comparable when both u - t and u - t - s stayed inside the box
    for outer, total in zip(steps_t, steps_total):
        lo = max(0, outer, total)
        hi = min(n, n + outer, n + total)
        if lo >= hi:
            raise ValueError("shifts leave no interior window on this grid")
        interior.append(slice(lo, hi))
    interior = tuple(interior)
    phase = ccr_phase(t, s, theta)
    worst = 0.0
    for xi in _test_vectors(grid):
        lhs = grid_unitary_apply(grid, theta, t, grid_unitary_apply(grid, theta, s, xi))
        rhs = phase * grid_unitary_apply(grid, theta, t + s, xi)
        worst = max(worst, float(np.abs((lhs - rhs)[interior]).max()))
    return worst


# ---------------------------------------------------------------------------
# scalar decay profiles


def multiplier_identity_residual(g: np.ndarray, b, seed: int = 0) -> float:
    """Pointwise residual of the conjugated-multiplier factorization for the sphere function b.

    Checks b(gt/|gt|)(1+|gt|^2)^{-d/2} against
    (V_g b)(t/|t|) * (|gt|/|t|)^d * (1+|gt|^2)^{-d/2} on 10000 sampled t
    spanning several orders of magnitude; the two sides are equal as scalars,
    so the residual is pure roundoff.
    """
    g = np.asarray(g, dtype=float)
    _check_invertible(g)
    d = g.shape[0]
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(10000, d)) * np.exp(rng.uniform(-3, 3, size=(10000, 1)))
    norms = np.linalg.norm(t, axis=1)
    keep = norms > 1e-12
    t, norms = t[keep], norms[keep]
    gt = t @ g.T
    gnorms = np.linalg.norm(gt, axis=1)
    lhs = b.evaluate(gt / gnorms[:, None]) * (1.0 + gnorms**2) ** (-d / 2.0)
    rhs = vg_action(g, b).evaluate(t / norms[:, None]) * (gnorms / norms) ** d * (1.0 + gnorms**2) ** (-d / 2.0)
    return float(np.abs(lhs - rhs).max())


def _shell_points(d: int, R: float, rng: np.random.Generator) -> np.ndarray:
    """Points on 17 spheres from radius R to 2R along the probe directions; a ValueError over SHELL_SAMPLE_BYTES."""
    nbytes = (2 * d + SHELL_DIRECTIONS) * 17 * d * 8
    if nbytes > SHELL_SAMPLE_BYTES:
        raise ValueError(
            f"shell samples in d={d} need {nbytes / 2**30:.1f} GiB, over the {SHELL_SAMPLE_BYTES // 2**30} GiB limit"
        )
    dirs = _probe_directions(SHELL_DIRECTIONS, d, rng)
    radii = np.geomspace(R, 2.0 * R, 17)
    return (dirs[:, None, :] * radii[None, :, None]).reshape(-1, d)


def _shell_radii(radii: Sequence[float]) -> tuple:
    """The shell radii as floats, refused with a ValueError naming the first one that is not positive and finite."""
    for R in radii:
        if not 0 < float(R) < np.inf:  # NaN fails both comparisons
            raise ValueError(f"shell radius must be positive and finite, got {R!r}")
    return tuple(float(R) for R in radii)


def _h_weight(g: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """(|gt|/|t|)^d (1+|gt|^2)^{-d/2} - (1+|t|^2)^{-d/2}."""
    norms = np.linalg.norm(t, axis=-1)
    gnorms = np.linalg.norm(t @ g.T, axis=-1)
    return (gnorms / norms) ** d * (1.0 + gnorms**2) ** (-d / 2.0) - (1.0 + norms**2) ** (-d / 2.0)


@dataclass(frozen=True)
class ShellProfile:
    radii: tuple
    sups: tuple
    cell_sums: tuple = ()  # one per cell radius of h_decay_profile

    def bounded_ratio(self) -> float:
        """max over the last two radii / max over the first two."""
        if len(self.sups) < 4:
            raise ValueError("need at least four radii")
        head = max(self.sups[0], self.sups[1])
        tail = max(self.sups[-2], self.sups[-1])
        return tail / head if head > 0 else float("inf")


def h_decay_profile(
    g: np.ndarray,
    shell_radii: Sequence[float],
    seed: int = 0,
    cell_radii: Sequence[int] | None = None,
) -> ShellProfile:
    """Weighted sups sup_{|t| in [R, 2R]} |h(t)| |t|^{d+2} per shell radius.

    Bounded profiles certify the quadratic-decay margin of h beyond mere
    integrability. The shell radii must be positive and finite. When cell_radii
    is given (affordable for d = 2), partial sums of per-unit-cell sups of |h|
    over balls are returned as cell_sums; their stabilization is the summability
    surrogate. The cell radii must be integers, nonnegative and strictly
    increasing, so that one walk over the shells between consecutive radii,
    keeping a running total, gives every sum. Bad radii raise ValueError.
    """
    g = np.asarray(g, dtype=float)
    _check_invertible(g)
    d = g.shape[0]
    radii = _shell_radii(shell_radii)
    cells = [] if cell_radii is None else [integer_value(R, "cell radius") for R in cell_radii]
    if cells != sorted(set(cells)) or min(cells, default=0) < 0:
        raise ValueError(f"cell radii must be nonnegative and strictly increasing, got {cells}")
    rng = np.random.default_rng(seed)
    sups = []
    for R in radii:
        pts = _shell_points(d, R, rng)
        vals = np.abs(_h_weight(g, pts, d)) * np.linalg.norm(pts, axis=1) ** (d + 2)
        sups.append(float(vals.max()))
    offsets = np.array([*product((0.0, 1.0), repeat=d), (0.5,) * d])  # cell n + [0,1]^d: its corners and center
    cell_sums, total, prev2 = [], 0.0, -1
    for R in cells:
        for chunk in iter_shell(d, prev2, R * R):
            flat = (chunk[:, None, :].astype(float) + offsets[None, :, :]).reshape(-1, d)
            ok = np.linalg.norm(flat, axis=1) > 1e-9
            vals = np.zeros(len(flat))
            vals[ok] = np.abs(_h_weight(g, flat[ok], d))
            total += float(np.sum(vals.reshape(len(chunk), -1).max(axis=1)))
        prev2 = R * R
        cell_sums.append(total)
    return ShellProfile(radii, tuple(sups), tuple(cell_sums))


def riesz_difference_decay(k: int, d: int, radii: Sequence[float], seed: int = 0) -> ShellProfile:
    """Shell sups of |t_k/|t| - t_k/(1+|t|^2)^{1/2}| * |t|^2.

    The weighted difference tends to (1/2)|t_k|/|t| <= 1/2 along rays, so the
    profile is bounded by 1/2 up to sampling slack and approaches it on the
    k-th axis. A radius that is not positive and finite raises ValueError.
    """
    if not 1 <= k <= d:
        raise ValueError(f"coordinate index {k} out of range 1..{d}")
    radii = _shell_radii(radii)
    rng = np.random.default_rng(seed)
    sups = []
    for R in radii:
        pts = _shell_points(d, R, rng)
        norms = np.linalg.norm(pts, axis=1)
        hk = pts[:, k - 1] / norms - pts[:, k - 1] / np.sqrt(1.0 + norms**2)
        sups.append(float((np.abs(hk) * norms**2).max()))
    return ShellProfile(radii, tuple(sups))
