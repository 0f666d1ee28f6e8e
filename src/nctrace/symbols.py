"""Represented operator words on l2(Z^d) and their principal symbols.

A word is an ordered product of two kinds of letters: left twisted shifts
coming from a torus element (pi1), and diagonal operators evaluating a sphere
polynomial at the lattice direction n/|n| (pi2). The symbol map forgets the
ordering; the defect of a word against the normal-ordered representative of
its symbol is a finite sum of weighted shift differences, whose tail operator
norms this module certifies with a shell scan plus an analytic remainder.

Certification layout for one word: expand the word exactly into "atoms", one
per choice of a torus mode for each pi1 letter. An atom acts as

    e_n -> coeff * exp((i/2) <a, theta n>) * prod_j y_j(unit(n + s_j)) * e_{n+M}

with M the total shift, a the accumulated phase vector and s_j the partial
shifts seen by each diagonal factor. The same expansion applied to the
normal-ordered representative produces atoms with identical (coeff, a, M) and
all s_j = 0, so the difference pairs off atom by atom and its tail norm is a
sum of terms sup_{|n|>R} |prod y_j(unit(n+s_j)) - prod y_j(unit(n))|.

Each sup is a scan of the shell R < |n| <= hi = SCAN_FACTOR * R plus an
analytic remainder beyond hi. One request, all the radii of a report or of a
commutator, scans in one pass: the scan edges cut the lattice into annulus
pieces (each in PIECE_STEPS geometric steps), walked innermost first, and
every signature is reduced to a per-piece max on the shared directions and
letter values. Each (signature, radius) keeps a running max that starts at
its remainder. A bound at a piece's inner edge bounds every point beyond it,
so a piece is scanned only for the signatures where that bound reaches a
running max of a radius covering the piece; the pieces left out cannot change
a reported number. The bound that skips pieces is the sharper of that
remainder and _sharp_remainder, a certified first-order bound from a sphere
grid that is close to the lattice sup; the reported norms keep the looser
remainder. A request costs at most the points of the ball of radius hi_max
minus the ball of radius R_min, and usually the inner part of each range only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._core import PRUNE_TOL, add_keys, line_fit
from ._lattice import ball_points, check_shell_budget, iter_shell
from .sphere import SpherePoly, SphereFunction, _probe_directions, sphere_integrate, sphere_volume
from .torus import ThetaMatrix, TorusElement, torus_adjoint, torus_identity, torus_mul, twist_phase

# a tail scan covers R < |n| <= SCAN_FACTOR * R; over 1, so that the remainder edge clears every shift (|s| <= R)
SCAN_FACTOR = 4
# geometric steps per annulus piece of a tail scan, so that pruning can skip the
# outer part of a piece. The d=2 suite at seed 0 scans 2.51M points at 1, 837k at
# 2, 348k at 4 and 161k at 8; its tail requests at seeds 0-11 (timed as for
# _lattice.CHUNK) take 1.15 s at 2, 0.63 s at 4, 0.52 s at 8 and 0.63 s at 16,
# and 8 beat 4 in 15 of 16 further alternating rounds (median 0.54 s against 0.65 s)
PIECE_STEPS = 8
# the sphere grid of _sharp_remainder: the coarsest with m*h <= _GRID_MH, at most
# about _GRID_POINTS directions (m the degree sampled, h the covering radius)
_GRID_MH = 0.01
_GRID_POINTS = 1 << 18


# ---------------------------------------------------------------------------
# words and symbols


@dataclass(frozen=True)
class TorusLetter:
    """Left twisted-shift letter pi1(x)."""

    x: TorusElement


@dataclass(frozen=True)
class SphereLetter:
    """Diagonal letter pi2(y), entry y(n/|n|)."""

    y: SpherePoly


@dataclass(frozen=True)
class OperatorWord:
    """Nonempty ordered product of letters, leftmost applied last."""

    theta: ThetaMatrix
    letters: tuple

    def __post_init__(self):
        letters = tuple(self.letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        for let in letters:
            if isinstance(let, TorusLetter):
                if not let.x.theta.same_as(self.theta):
                    raise ValueError("letter lives over a different theta")
            elif isinstance(let, SphereLetter):
                # sym and the tail scans read the letter's coefficients
                if not isinstance(let.y, SpherePoly):
                    raise TypeError(f"a sphere letter needs a SpherePoly, not {type(let.y).__name__}")
                if let.y.d != self.theta.d:
                    raise ValueError("sphere letter dimension mismatch")
            else:
                raise TypeError(f"not a word letter: {let!r}")
        object.__setattr__(self, "letters", letters)

    @property
    def d(self) -> int:
        return self.theta.d

    def __mul__(self, other: "OperatorWord") -> "OperatorWord":
        if not self.theta.same_as(other.theta):
            raise ValueError("cannot concatenate words over different theta")
        return OperatorWord(self.theta, self.letters + other.letters)

    def adjoint(self) -> "OperatorWord":
        out = []
        for let in reversed(self.letters):
            if isinstance(let, TorusLetter):
                out.append(TorusLetter(torus_adjoint(let.x)))
            else:
                out.append(SphereLetter(let.y.conjugate()))
        return OperatorWord(self.theta, tuple(out))


@dataclass(frozen=True)
class Symbol:
    """Finite sum of (torus element, sphere polynomial) product pairs."""

    theta: ThetaMatrix
    terms: tuple

    def __post_init__(self):
        kept = []
        for x, y in self.terms:
            if not x.theta.same_as(self.theta):
                raise ValueError("symbol term over a different theta")
            if y.d != self.theta.d:
                raise ValueError("sphere factor dimension mismatch")
            if x.coeffs and y.coeffs:
                kept.append((x, y))
        object.__setattr__(self, "terms", tuple(kept))

    @property
    def d(self) -> int:
        return self.theta.d

    def __add__(self, other: "Symbol") -> "Symbol":
        if not self.theta.same_as(other.theta):
            raise ValueError("symbols over different theta")
        merged = list(self.terms)
        for x, y in other.terms:
            for i, (xi, yi) in enumerate(merged):
                if yi.coeffs == y.coeffs:
                    merged[i] = (xi + x, yi)
                    break
            else:
                merged.append((x, y))
        return Symbol(self.theta, tuple(merged))

    def __mul__(self, other: "Symbol") -> "Symbol":
        if not self.theta.same_as(other.theta):
            raise ValueError("symbols over different theta")
        out = Symbol(self.theta, ())
        for x1, y1 in self.terms:
            for x2, y2 in other.terms:
                out = out + Symbol(self.theta, ((torus_mul(x1, x2), y1 * y2),))
        return out

    def adjoint(self) -> "Symbol":
        return Symbol(self.theta, tuple((torus_adjoint(x), y.conjugate()) for x, y in self.terms))

    def gap(self, other: "Symbol", seed: int = 0) -> float:
        """Max l2 distance of direction slices over the 2d signed axes and 64 sampled unit directions.

        The slice at a direction s is the torus element sum_k y_k(s) x_k.
        Slices determine the symbol (polynomials of the tested degrees are
        pinned by finitely many directions with probability one), so this is a
        practical semantic distance for tests. Every probe is evaluated at once
        (_direction_slices); a mode's difference is pruned at PRUNE_TOL as
        TorusElement arithmetic prunes it, so symbols whose slices agree to
        PRUNE_TOL are at distance exactly 0.
        """
        if not self.theta.same_as(other.theta):
            raise ValueError("symbols over different theta")
        probes = _probe_directions(64, self.d, np.random.default_rng(seed))
        mine, theirs = _direction_slices(self, probes), _direction_slices(other, probes)
        zero = np.zeros(len(probes), dtype=complex)
        norm2 = np.zeros(len(probes))
        for m in dict.fromkeys([*mine, *theirs]):
            norm2 += np.abs(_prune(mine.get(m, zero) - theirs.get(m, zero))) ** 2
        return float(np.sqrt(norm2).max())


def _prune(v: np.ndarray) -> np.ndarray:
    """v with the entries of magnitude at most PRUNE_TOL set to 0, as coefficient maps drop them."""
    return np.where(np.abs(v) > PRUNE_TOL, v, 0j)


def _direction_slices(symbol: Symbol, probes: np.ndarray) -> dict:
    """mode -> the coefficients of sum_k y_k(s) x_k at each probe direction s (rows of probes).

    Terms accumulate in order and each product and partial sum is pruned, as
    repeated TorusElement sums of complex(y_k(s)) * x_k prune them.
    """
    out: dict = {}
    for x, y in symbol.terms:
        vals = y.evaluate(probes)
        for m, c in x.coeffs.items():
            term = _prune(vals * c)
            out[m] = _prune(out[m] + term) if m in out else term
    return out


def sym(word: OperatorWord) -> Symbol:
    """Principal symbol: product of letter symbols, letter order forgotten."""
    one_poly = SpherePoly.constant(word.d, 1.0)
    out = Symbol(word.theta, ((torus_identity(word.theta), one_poly),))
    for let in word.letters:
        if isinstance(let, TorusLetter):
            term = Symbol(word.theta, ((let.x, one_poly),))
        else:
            term = Symbol(word.theta, ((torus_identity(word.theta), let.y),))
        out = out * term
    return out


# ---------------------------------------------------------------------------
# operator models on finite windows
#
# A window operator is a dict from a lattice shift m to a complex vector v_m
# over the window's columns: A e_n = sum_m v_m[n] e_{n+m}, with v_m[n] = 0
# wherever n + m leaves the window. pi1(x) has one shift per mode of x, pi2(y)
# the zero shift alone.


@dataclass(frozen=True)
class LatticeWindow:
    """The lattice ball {|n| <= radius}, its points in lexicographic order.

    Points are enumerated once, at construction, and returned read-only.
    Their mixed-radix keys sum_k (n_k + r) (2r+1)^(d-k), n_1 most significant,
    are sorted in that order too, so rows() is one search over them.
    """

    d: int
    radius: int
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _radix: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")
        pts = ball_points(self.d, self.radius)
        pts.flags.writeable = False
        # the enumeration refuses a box of more than 2^31 points, so every key fits in int64
        radix = (2 * self.radius + 1) ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        object.__setattr__(self, "_points", pts)
        object.__setattr__(self, "_radix", radix)
        object.__setattr__(self, "_keys", (pts + self.radius) @ radix)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def size(self) -> int:
        return len(self._points)

    def index(self) -> dict:
        return {tuple(p): i for i, p in enumerate(self.points)}

    def interior(self, margin: float) -> np.ndarray:
        """Indices of points with |n| <= radius - margin; none when margin > radius."""
        if margin > self.radius:
            return np.zeros(0, dtype=np.intp)
        pts = self.points
        keep = np.einsum("ij,ij->i", pts, pts) <= (self.radius - margin) ** 2
        return np.nonzero(keep)[0]

    def rows(self, shift: tuple) -> np.ndarray:
        """Per column n, the row of n + shift, or -1 where n + shift leaves the box [-r, r]^d or the ball."""
        r = self.radius
        targets = self._points + np.asarray(shift, dtype=np.int64)
        target_keys = (targets + r) @ self._radix
        at = np.minimum(np.searchsorted(self._keys, target_keys), self.size - 1)
        hit = (np.abs(targets) <= r).all(axis=1) & (self._keys[at] == target_keys)
        return np.where(hit, at, -1)


def build_pi1_matrix(x: TorusElement, window: LatticeWindow) -> dict:
    """pi1(x) on the window, e_n -> sum_m x_m exp((i/2)<m, theta n>) e_{n+m}, as {m: weights}."""
    if window.d != x.d:
        raise ValueError("window dimension mismatch")
    if x.support_radius() > window.radius:
        raise ValueError("window radius must cover the support of x")
    pts = window.points.astype(float)
    theta = x.theta.entries
    out = {}
    for m, c in x.coeffs.items():
        # column n carries exp((i/2) <m, theta n>); n . (theta^T m) = <m, theta n>
        phases = c * np.exp(0.5j * (pts @ (theta.T @ np.array(m, dtype=float))))
        out[m] = np.where(window.rows(m) >= 0, phases, 0j)
    return out


def _direction_values(y: SpherePoly, window: LatticeWindow) -> np.ndarray:
    pts = window.points.astype(float)
    norms = np.linalg.norm(pts, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    vals = y.evaluate(pts / safe[:, None])
    return np.where(norms == 0.0, complex(sphere_integrate(y) / sphere_volume(y.d)), vals)


def build_pi2_matrix(y: SpherePoly, window: LatticeWindow) -> dict:
    """pi2(y) on the window, the zero shift with weights y(n/|n|).

    The origin gets the normalized spherical mean of y (any fixed choice
    differs by a rank-one perturbation; this one is basis-independent).
    """
    return {(0,) * window.d: _direction_values(y, window)}


def _product(a: dict, b: dict, window: LatticeWindow) -> dict:
    """The window operator AB: (AB)_{s+t}[n] = A_s[row of n + t] B_t[n], summed over the pairs (s, t) in order."""
    out: dict = {}
    for t, vb in b.items():
        rows = window.rows(t)
        for s, va in a.items():
            v = np.where(rows >= 0, va[rows] * vb, 0j)
            key = add_keys(s, t)
            out[key] = out[key] + v if key in out else v
    return out


def word_matrix(word: OperatorWord, window: LatticeWindow) -> dict:
    """Product of the letter operators on the window, leftmost letter leftmost.

    Boundary columns are unreliable whenever a pi1 letter shifts mass out of
    the window; restrict comparisons to window.interior(total shift bound).
    """
    out = None
    for let in word.letters:
        op = build_pi1_matrix(let.x, window) if isinstance(let, TorusLetter) else build_pi2_matrix(let.y, window)
        out = op if out is None else _product(out, op, window)
    return out


def representative_matrix(symbol: Symbol, window: LatticeWindow) -> dict:
    """Normal-ordered model of a symbol, sum_k pi1(x_k) pi2(y_k): each shift of pi1(x_k) scaled by y_k."""
    out: dict = {}
    for x, y in symbol.terms:
        vals = _direction_values(y, window)
        for m, v in build_pi1_matrix(x, window).items():
            out[m] = out[m] + v * vals if m in out else v * vals
    return out


# ---------------------------------------------------------------------------
# atoms and certified tail norms


@dataclass(frozen=True)
class _Atom:
    shift: tuple
    coeff: complex
    phase: tuple
    factors: tuple  # ((poly, shift tuple), ...)


def _compose(left: _Atom, right: _Atom, theta: ThetaMatrix) -> _Atom:
    coeff = left.coeff * right.coeff * twist_phase(theta, left.phase, right.shift)
    factors = tuple((y, add_keys(s, right.shift)) for y, s in left.factors)
    return _Atom(add_keys(left.shift, right.shift), coeff, add_keys(left.phase, right.phase), factors + right.factors)


def _word_atoms(word: OperatorWord) -> list:
    zero = (0,) * word.d
    acc = [_Atom(zero, 1.0 + 0j, zero, ())]
    for let in word.letters:
        if isinstance(let, TorusLetter):
            opts = [_Atom(m, c, m, ()) for m, c in sorted(let.x.coeffs.items())]
        else:
            opts = [_Atom(zero, 1.0 + 0j, zero, ((let.y, zero),))]
        acc = [_compose(a, o, word.theta) for a in acc for o in opts]
    return acc


def _shifted_signatures(word: OperatorWord) -> list:
    """Aggregate |coeff| over atoms sharing a diagonal-factor signature.

    Atoms whose factors all carry zero shift cancel exactly against the
    normal-ordered representative and are dropped here.
    """
    weights: dict = {}
    factors_of: dict = {}
    for atom in _word_atoms(word):
        if not atom.factors or all(not any(s) for _, s in atom.factors):
            continue
        # content-based key: summation order must not depend on object identity
        key = tuple(
            (tuple(sorted((n, c.real, c.imag) for n, c in y.coeffs.items())), s)
            for y, s in atom.factors
        )
        weights[key] = weights.get(key, 0.0) + abs(atom.coeff)
        factors_of[key] = atom.factors
    return [(factors_of[k], w) for k, w in sorted(weights.items())]


def _factor_bounds(y) -> tuple:
    """(sup bound or None, c, near): the one-factor tail at shift |s| beyond r is c|s| / (r - |s|) if near, else c|s| / r."""
    if isinstance(y, SpherePoly):
        # chord from n to n+s avoids the ball of radius beyond - |s|, where the
        # degree-0 homogeneous extension has gradient at most g / (beyond - |s|)
        return y.sup_bound(), y.gradient_sup_bound(), True
    if isinstance(y, SphereFunction):
        if y.lipschitz is None:
            raise ValueError("remainder bound needs a Lipschitz constant")
        # |unit(n+s) - unit(n)| <= 2|s| / max(|n+s|, |n|)
        return None, y.lipschitz * 2.0, False
    raise TypeError(f"unsupported diagonal factor {type(y)!r}")


class _RemainderBound(NamedTuple):
    """|prod y(unit(n+s)) - prod y(unit(n))| <= at(beyond) for all |n| > beyond."""

    # per factor with a nonzero shift: (|s|, c|s|, the denominator's offset |s| or 0.0,
    # the product of the other factors' sup bounds, None if one has none)
    terms: tuple

    def at(self, beyond: float) -> float:
        total = 0.0
        for sh, numerator, offset, others in self.terms:
            if beyond <= sh:
                raise ValueError("scan window too small for the shift sizes")
            if others is None:
                raise ValueError("product remainders need sup bounds for every factor")
            total += others * (numerator / (beyond - offset))
        return total


def _remainder_bound(factors) -> _RemainderBound:
    """The remainder of one signature, with its per-factor constants computed once."""
    bounds = [_factor_bounds(y) for y, _ in factors]
    terms = []
    for j, ((_, s), (_, c, near)) in enumerate(zip(factors, bounds)):
        sh = float(np.linalg.norm(s))
        if sh == 0.0:
            continue
        sups = [sup for i, (sup, _, _) in enumerate(bounds) if i != j]
        terms.append((sh, c * sh, sh if near else 0.0, None if None in sups else math.prod(sups, start=1.0)))
    return _RemainderBound(tuple(terms))


class _SharpBound(NamedTuple):
    """|prod y_j(unit(n+s_j)) - prod y_j(unit(n))| <= a / r + b / (2 (r - smax)^2) for every |n| > r > smax."""

    a: float
    b: float
    smax: float

    def at(self, r: float) -> float:
        return self.a / r + self.b / (2.0 * (r - self.smax) ** 2) if r > self.smax else np.inf


def _sharp_remainder(factors, d: int) -> _SharpBound:
    """A bound on |prod y_j(unit(n+s_j)) - prod y_j(unit(n))| over |n| > r, sharper than _remainder_bound.

    With phi(t) = prod_j y_j(unit(n + t s_j)), the difference is
    phi'(0) + int_0^1 (1-t) phi''(t) dt. phi'(0) = H(unit(n)) / |n| with
    H(w) = sum_j [grad y_j(w).s_j - (w.grad y_j(w))(w.s_j)] prod_{i!=j} y_i(w),
    a polynomial of degree m <= 1 + sum_j deg y_j; a bounds sup|H| on the
    sphere by its max on a grid of geodesic covering radius h: on a great
    circle H is a trigonometric polynomial of degree m, so |H'| <= m sup|H|
    (Bernstein) and sup|H| <= max_grid|H| / (1 - m*h). |phi''| is at most b /
    (r - max|s_j|)^2 from sup_bound, gradient_sup_bound and the Hessian bound
    sum |c_n| |n|_2^2, with |grad f| <= |grad y| / |v| and
    ||hess f|| <= (3|grad y| + ||hess y||) / |v|^2 for f = y(unit(v)).
    The bound is inf where it does not apply: a factor that is not a
    SpherePoly, r <= max|s_j|, or m*h >= 1/2 on the largest grid.
    """
    unbounded = _SharpBound(np.inf, 0.0, 0.0)
    if not all(isinstance(y, SpherePoly) for y, _ in factors):
        return unbounded
    m = 1 + sum(y.degree() for y, _ in factors)
    # the mesh of spacing 2/q on the faces of [-1, 1]^d, projected radially (1-Lipschitz
    # onto the ball), covers the sphere within chord sqrt(d-1)/q, so within arc h_q
    h_q = 0.5 * np.pi * np.sqrt(d - 1)
    q_cap = int((_GRID_POINTS / (2 * d)) ** (1.0 / (d - 1))) - 1
    q = max(1, min(int(np.ceil(m * h_q / _GRID_MH)), q_cap))
    mh = m * h_q / q
    if mh >= 0.5:
        return unbounded
    ticks = np.linspace(-1.0, 1.0, q + 1)
    face = ticks[np.indices((q + 1,) * (d - 1)).reshape(d - 1, (q + 1) ** (d - 1))]
    cube = np.concatenate([np.insert(face, k, sign, axis=0) for k in range(d) for sign in (-1.0, 1.0)], axis=1)
    grid = _unit(cube)

    vals = [y.evaluate(grid) for y, _ in factors]
    h_vals = np.zeros(len(grid), dtype=complex)
    for j, (y, s) in enumerate(factors):
        if not any(s):
            continue
        partials = [y.partial(k + 1).evaluate(grid) for k in range(d)]
        along = sum(v * p for v, p in zip(s, partials))
        radial = sum(grid[:, k] * p for k, p in enumerate(partials))
        term = along - radial * (grid @ np.asarray(s, dtype=float))
        for i, v in enumerate(vals):
            if i != j:
                term = term * v
        h_vals += term
    a = float(np.abs(h_vals).max() * (1.0 + 1e-9) / (1.0 - mh))

    sups = [y.sup_bound() for y, _ in factors]
    grads = [y.gradient_sup_bound() for y, _ in factors]
    hessians = [sum(abs(c) * sum(e * e for e in n) for n, c in y.coeffs.items()) for y, _ in factors]
    shifts = [float(np.linalg.norm(s)) for _, s in factors]
    b = 0.0
    for j in range(len(factors)):
        b += (3.0 * grads[j] + hessians[j]) * shifts[j] ** 2 * np.prod([v for i, v in enumerate(sups) if i != j])
        for k in range(len(factors)):
            if k != j:
                rest = np.prod([v for i, v in enumerate(sups) if i not in (j, k)])
                b += grads[j] * grads[k] * shifts[j] * shifts[k] * rest
    return _SharpBound(a, float(b), max(shifts))


def _unit(cols: np.ndarray) -> np.ndarray:
    """Unit directions, shape (k, d), of the points whose coordinates are the rows of cols (d, k).

    The coordinates are integers stored as floats, so every square and partial
    sum of |n|^2 is an integer below 2^53 and the norm is exactly what
    np.linalg.norm gives. Points come out as a transposed view, so that each
    coordinate a SpherePoly reads is contiguous.
    """
    norm2 = cols[0] * cols[0]
    for c in cols[1:]:
        norm2 += c * c
    return (cols / np.sqrt(norm2)).T


def _tail_bounds(signatures, d: int, radii) -> list:
    """Per radius R, the sum over signatures of weight * sup_{|n|>R} |prod y(unit(n+s)) - prod y(unit(n))|.

    Each sup is the larger of a scan of (R, hi] and the remainder beyond hi,
    hi = SCAN_FACTOR * R. The edges |n|^2 = int(R*R) and int(hi*hi) of every
    (signature, radius) range cut the lattice into annulus pieces, and each
    piece into PIECE_STEPS geometric steps. The budget is checked once at the
    outermost edge, so an over-budget request is refused before any point is
    scanned; the pieces are then walked innermost first.
    Every range keeps a running value, the max of its remainder beyond hi and
    of the pieces scanned so far. A piece is scanned only for the signatures
    whose bound at its inner edge, which bounds every point beyond that edge,
    reaches (up to a factor 1 + 1e-9 for rounding) the running value of a
    range covering it; no other point can raise a range's max, so every norm
    is the one the full scan gives. That bound is the smaller of
    _remainder_bound and _sharp_remainder, computed once per signature; the
    running values start from _remainder_bound alone, so the reported norms
    do not depend on the sharp bound. Per chunk the directions, each shifted
    direction array, each letter's values and each shifted value are computed
    once and shared by the scanned signatures.
    """
    for R in radii:
        if not np.isfinite(R):
            raise ValueError(f"radius {R} is not finite")
        if R < 1:
            raise ValueError(f"radius {R} must be >= 1")
    ranges = []  # per signature, per radius: the scanned squared-norm range (lo, top]
    best = []  # per signature, per radius: the max of the remainder beyond top and of the pieces scanned so far
    remainders = []  # per signature
    for factors, _ in signatures:
        max_shift = max(float(np.linalg.norm(s)) for _, s in factors)
        shift2 = max(sum(v * v for v in s) for _, s in factors)
        ranges.append([])
        best.append([])
        remainder = None
        for R in radii:
            hi = SCAN_FACTOR * R
            if not np.isfinite(hi * hi):
                raise ValueError(f"radius {R} puts the scan edge at {hi:.4g}, whose square is not finite")
            if shift2 > int(R * R):
                # the scan would reach n = -s, where n + s has no direction
                raise ValueError(f"radius {R} is below the largest shift of the word, |s| = {max_shift:.4g}")
            if remainder is None:
                # built once a radius passes its checks: a factor without a bound is refused only then
                remainder = _remainder_bound(factors)
            ranges[-1].append((int(R * R), int(hi * hi)))
            best[-1].append(remainder.at(hi))
        remainders.append(remainder)

    edges = sorted({e for row in ranges for lo_top in row for e in lo_top})
    if edges:
        check_shell_budget(d, edges[-1])
    sharp = [_sharp_remainder(factors, d) for factors, _ in signatures]
    cuts = set(edges)
    for lo, top in zip(edges, edges[1:]):
        cuts.update(int(lo * (top / lo) ** (k / PIECE_STEPS)) for k in range(1, PIECE_STEPS))
    cuts = sorted(cuts)
    for r2_lo, r2_hi in zip(cuts, cuts[1:]):
        users = {}  # signature index -> indices of the radii whose range covers the piece
        for i, row in enumerate(ranges):
            covering = [j for j, (lo, top) in enumerate(row) if lo <= r2_lo and r2_hi <= top]
            if not covering:
                continue
            inner = float(np.sqrt(r2_lo))
            try:
                bound = remainders[i].at(inner)
            except ValueError:
                bound = np.inf
            bound = min(bound, sharp[i].at(inner))
            if any(bound * (1.0 + 1e-9) >= best[i][j] for j in covering):
                users[i] = covering
        if not users:
            continue
        piece_max = dict.fromkeys(users, 0.0)
        for chunk in iter_shell(d, r2_lo, r2_hi):
            cols = chunk.T.astype(float, order="C")
            base_dirs = _unit(cols)
            base_vals: dict = {}
            shifted_dirs: dict = {}
            shifted_vals: dict = {}
            for i in piece_max:
                for y, s in signatures[i][0]:
                    if id(y) not in base_vals:
                        base_vals[id(y)] = y.evaluate(base_dirs)
                    if any(s) and (id(y), s) not in shifted_vals:
                        if s not in shifted_dirs:
                            shifted_dirs[s] = _unit(cols + np.asarray(s, dtype=float)[:, None])
                        shifted_vals[id(y), s] = y.evaluate(shifted_dirs[s])
            for i in piece_max:
                shifted = np.ones(len(chunk), dtype=complex)
                base = np.ones(len(chunk), dtype=complex)
                for y, s in signatures[i][0]:
                    base_y = base_vals[id(y)]
                    base = base * base_y
                    shifted = shifted * (shifted_vals[id(y), s] if any(s) else base_y)
                piece_max[i] = max(piece_max[i], float(np.abs(shifted - base).max()))
        for i, covering in users.items():
            for j in covering:
                best[i][j] = max(best[i][j], piece_max[i])

    totals = []
    for j in range(len(radii)):
        total = 0.0
        for i, (_, weight) in enumerate(signatures):
            total += weight * best[i][j]
        totals.append(total)
    return totals


def commutator_tail_norms(x: TorusElement, y, radii) -> list:
    """Certified norms of [pi1(x), pi2(y)] restricted to {|n| > R}, one per R in radii.

    Per mode m of x the commutator is the weighted shift
    n -> x_m * phase * (y(unit(n+m)) - y(unit(n))) e_{n+m}; its tail norm is the
    sup of the weight over |n| > R, evaluated by scanning the shell
    (R, SCAN_FACTOR*R] and bounding the rest analytically. Modes aggregate by
    triangle inequality. All radii share one walk of the lattice. y is a
    SpherePoly, or a SphereFunction with a Lipschitz constant.
    """
    d = x.d
    if y.d != d:
        raise ValueError(f"factor dimension {y.d} does not match the torus dimension {d}")
    # pi1(u_0) is scalar, so the zero mode's commutator vanishes
    signatures = [(((y, m),), abs(c)) for m, c in sorted(x.coeffs.items()) if any(m)]
    return _tail_bounds(signatures, d, tuple(float(r) for r in radii))


def commutator_tail_norm(x: TorusElement, y, R: float) -> float:
    """Certified norm of [pi1(x), pi2(y)] restricted to {|n| > R}; see commutator_tail_norms."""
    return commutator_tail_norms(x, y, (R,))[0]


@dataclass(frozen=True)
class CompactnessReport:
    radii: tuple
    tail_norms: tuple
    fit_slope: float | None


def _loglog_slope(radii, values) -> float | None:
    xs = [np.log(r) for r, v in zip(radii, values) if v > 0]
    ys = [np.log(v) for v in values if v > 0]
    if len(xs) < 2:
        return None
    slope, _, _ = line_fit(xs, ys)
    return float(slope)


def residual_compactness_report(word: OperatorWord, R_list) -> CompactnessReport:
    """Tail norms of (word - normal-ordered representative of sym(word)).

    For each R the report is a certified upper bound on the operator norm of
    the difference restricted to {|n| > R}; it is 0 exactly when the word is
    already normal-ordered. fit_slope is the log-log slope of the norms
    against R (None when fewer than two positive entries).
    """
    radii = tuple(float(r) for r in R_list)
    norms = _tail_bounds(_shifted_signatures(word), word.d, radii)
    return CompactnessReport(radii, tuple(norms), _loglog_slope(radii, norms))


def random_word(theta: ThetaMatrix, rng: np.random.Generator, n_letters: int = 4) -> OperatorWord:
    """Sample a word whose compactness residual is not identically zero.

    Shift letters take 1 or 2 modes with entries in {-1, 0, 1}; sphere letters
    take 1 or 2 monomials with exponents in {0, 1, 2}.

    Words that are already normal-ordered (no diagonal letter ever sees a
    nonzero shift) are rejected and redrawn, since their residual is exactly 0
    at every radius and says nothing about tail decay. The same goes for words
    whose shifted diagonal letters are all constant polynomials: a constant
    takes the same value at n and n + s, so the difference vanishes anyway.
    """
    d = theta.d
    while True:
        letters = []
        kinds = rng.integers(0, 2, size=n_letters)
        for kind in kinds:
            if kind == 0:
                modes = {}
                for _ in range(rng.integers(1, 3)):
                    m = tuple(int(v) for v in rng.integers(-1, 2, size=d))
                    modes[m] = complex(rng.normal(), rng.normal())
                letters.append(TorusLetter(TorusElement(theta, modes)))
            else:
                terms = {}
                for _ in range(rng.integers(1, 3)):
                    nvec = tuple(int(v) for v in rng.integers(0, 3, size=d))
                    terms[nvec] = complex(rng.normal())
                letters.append(SphereLetter(SpherePoly(d, terms)))
        try:
            word = OperatorWord(theta, tuple(letters))
        except ValueError:
            continue
        signatures = _shifted_signatures(word)
        if any(any(any(s) and y.degree() > 0 for y, s in factors) for factors, _ in signatures):
            return word
