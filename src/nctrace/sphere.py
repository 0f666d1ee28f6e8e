"""Polynomial calculus and quadrature on the unit sphere S^{d-1}.

A multi-index is a plain tuple of nonnegative ints, and a table of them one
(M, d) int64 array (_multi_indices). A SpherePoly stores the coefficients of
t -> sum c_n prod t_k^{n_k} as an nctrace._core coefficient map (magnitudes
at or below its PRUNE_TOL dropped, non-finite ones refused).
Since |t|^2 = 1 identifies distinct coefficient maps, equality of polynomials
as sphere functions is tested by evaluating the difference, never by comparing
coefficient maps.

A sphere function is a SpherePoly or a SphereFunction (a black-box evaluator);
the functions that accept either read only its `d` and `evaluate(points)`.

Quadrature: the dimension picks the rule. At d=4 it is a uniform product
parameterization of S^3 (a HopfRule, kept as its latitudes and angle count,
its node arrays built on first read). Every other d takes one nested product
rule: it starts from the trapezoid rule in the angle on S^1 and lifts S^{k-2}
to S^{k-1} by Gauss-Gegenbauer latitudes for k = 3..d, so it is exact on
polynomials of degree < 2q with q latitudes and 2q angles, and at d=2 it is the
trapezoid rule in 2q angles. The batch moments of _monomial_integrals take a
HopfRule's moments as products of sums over its factors, stream its pullbacks
in tiles built from per-angle tables, and slice the node array of every other
rule. A HopfRule with an even angle count holds the antipode -t of each node t
at the same weight, so its pullback pass sums one node of each antipodal pair
at twice the weight, and every monomial of odd degree takes its exact
integral, 0; with an odd angle count every node is summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import comb, exp, lgamma, log, pi
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from ._core import add_keys, add_maps, coeff_map, convolve_maps

# most multi-indices of a table. `moments --d 10` counts the 646,646 of degree <= 12
# that its identities read, and peaks near 150 MB; `--d 16` would ask for 30,421,755
_MULTI_INDEX_BUDGET = 2**20
# most nodes quadrature_rule builds: `moments --d 10` takes 524,288 product
# nodes, and `--d 12 --max-degree 4` would take 8,388,608
_NODE_BUDGET = 2**22
# most bytes of the dense q x q Jacobi matrix behind q latitudes: q <= 2048,
# whose eigh took 2.5 s. q = 2^21 latitudes fit the node budget at d=3 and
# d=4, and would ask eigh for 32 TiB
_JACOBI_BUDGET = 2**25


def _validate_multi_index(nvec, d: int) -> tuple:
    key = tuple(int(v) for v in nvec)
    if len(key) > d:
        raise ValueError(f"multi-index {key} longer than dimension {d}")
    key = key + (0,) * (d - len(key))
    if any(v < 0 for v in key):
        raise ValueError(f"multi-index entries must be nonnegative, got {key}")
    return key


def _check_multi_index_budget(d: int, max_degree: int) -> None:
    """Refuse a negative max_degree, or more than _MULTI_INDEX_BUDGET d-tuples of sum <= max_degree."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    count = comb(d + max_degree, d)
    if count > _MULTI_INDEX_BUDGET:
        raise ValueError(
            f"{count} multi-indices of degree <= {max_degree} in d={d} exceed the budget of {_MULTI_INDEX_BUDGET}"
        )


def _multi_indices(d: int, max_degree: int) -> np.ndarray:
    """All d-tuples of nonnegative ints with sum <= max_degree, as the rows of an (M, d) int64 array, lexicographic.

    Every call checks the budget and builds a new table.
    """
    _check_multi_index_budget(d, max_degree)
    out = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d):
        # each prefix of sum s takes the next coordinate's values 0..max_degree - s in order
        counts = max_degree - out.sum(axis=1) + 1
        last = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        out = np.column_stack([np.repeat(out, counts, axis=0), last])
    return out


def _moments(indices: np.ndarray, d: int) -> np.ndarray:
    """Exact integral of prod t_k^{n_k} over S^{d-1} for every row n of the (M, d) int array indices.

    Zero when any exponent is odd; otherwise 2 * prod Gamma((n_k+1)/2) / Gamma((|n|+d)/2),
    in log space: math.lgamma values summed over the coordinates left to right,
    then math.exp per row. The zero index gives the sphere volume 2 pi^{d/2} / Gamma(d/2).
    """
    if d < 2:
        raise ValueError("sphere dimension parameter d must be >= 2")
    out = np.zeros(len(indices))
    even = ~np.any(indices % 2, axis=1)
    n = indices[even]
    deg = n.sum(axis=1)
    half = np.array([lgamma((v + 1) / 2.0) for v in range(n.max(initial=0) + 1)])
    whole = np.array([lgamma((v + d) / 2.0) for v in range(deg.max(initial=0) + 1)])
    log_num = sum(half[n[:, k]] for k in range(d))
    out[even] = [2.0 * exp(x) for x in (log_num - whole[deg]).tolist()]
    return out


def sphere_moment(nvec, d: int) -> float:
    """Exact integral of prod t_k^{n_k} over S^{d-1}: one row of _moments."""
    return float(_moments(np.array([_validate_multi_index(nvec, d)], dtype=np.int64), d)[0])


def sphere_volume(d: int) -> float:
    return sphere_moment((), d)


@dataclass(frozen=True)
class SpherePoly:
    """Finitely supported polynomial restricted to the unit sphere."""

    d: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = coeff_map(self.coeffs.items(), lambda n: _validate_multi_index(n, self.d))
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def constant(cls, d: int, value=1.0) -> "SpherePoly":
        return cls(d, {(0,) * d: complex(value)})

    @classmethod
    def monomial(cls, d: int, nvec, coeff=1.0) -> "SpherePoly":
        return cls(d, {_validate_multi_index(nvec, d): complex(coeff)})

    @classmethod
    def coordinate(cls, d: int, k: int) -> "SpherePoly":
        """t_k, with k 1-based."""
        if not 1 <= k <= d:
            raise ValueError(f"coordinate index {k} out of range 1..{d}")
        n = [0] * d
        n[k - 1] = 1
        return cls(d, {tuple(n): 1.0 + 0j})

    def degree(self) -> int:
        return max((sum(n) for n in self.coeffs), default=0)

    def __add__(self, other: "SpherePoly") -> "SpherePoly":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SpherePoly(self.d, add_maps(self.coeffs, other.coeffs))

    def __sub__(self, other: "SpherePoly") -> "SpherePoly":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SpherePoly":
        s = complex(scalar)
        return SpherePoly(self.d, {n: s * c for n, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SpherePoly):
            if self.d != other.d:
                raise ValueError("dimension mismatch")
            return SpherePoly(self.d, convolve_maps(self.coeffs, other.coeffs, add_keys))
        return complex(other) * self

    def conjugate(self) -> "SpherePoly":
        return SpherePoly(self.d, {n: c.conjugate() for n, c in self.coeffs.items()})

    def partial(self, k: int) -> "SpherePoly":
        """Flat partial derivative d/dt_k (k 1-based), no sphere reduction."""
        if not 1 <= k <= self.d:
            raise ValueError(f"coordinate index {k} out of range 1..{self.d}")
        i = k - 1
        # lowering n_i is injective on the support, so no two terms collide
        return SpherePoly(self.d, {n[:i] + (n[i] - 1,) + n[i + 1 :]: n[i] * c for n, c in self.coeffs.items() if n[i]})

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.d:
            raise ValueError(f"points must have last axis {self.d}")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for n, c in self.coeffs.items():
            term = np.ones(pts.shape[:-1])
            for k, e in enumerate(n):
                if e:
                    term = term * pts[..., k] ** e
            out += c * term
        return out

    def sup_bound(self) -> float:
        """sum |c_n|, a sup-norm bound on the unit sphere."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def gradient_sup_bound(self) -> float:
        """Bound on |grad| over the sphere: sum |c_n| * ||n||_2.

        Also bounds |t| * |grad of the degree-0 homogeneous extension|, which is
        what the tail-norm remainders need.
        """
        return float(sum(abs(c) * np.linalg.norm(n) for n, c in self.coeffs.items()))


@dataclass(frozen=True)
class SphereFunction:
    """Black-box evaluator on unit vectors, with an optional Lipschitz constant.

    The Lipschitz constant is with respect to the chordal metric |a - b| on unit
    vectors; it is only needed by certified tail bounds.
    """

    d: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., d)."""
        return np.asarray(self.evaluator(np.asarray(points, dtype=float)))


def random_unit_vectors(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Gaussian draws normalised onto S^{d-1}: uniform directions."""
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _probe_directions(n_random: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """The 2d signed coordinate axes, then n_random uniform directions."""
    axes = np.eye(d)
    return np.vstack([axes, -axes, random_unit_vectors(n_random, d, rng)])


def sphere_integrate(b: SpherePoly) -> complex:
    """Exact integral over the sphere via the closed-form moments."""
    moments = _moments(np.array(list(b.coeffs), dtype=np.int64).reshape(-1, b.d), b.d)
    return complex(sum(c * m for c, m in zip(b.coeffs.values(), moments.tolist())))


# ---------------------------------------------------------------------------
# quadrature rules


@dataclass(frozen=True)
class QuadratureRule:
    d: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class HopfRule:
    """The uniform product rule on S^3, kept as its factors.

    t = (sqrt(1-u) cos p1, sqrt(1-u) sin p1, sqrt(u) cos p2, sqrt(u) sin p2)
    carries the uniform measure (1/2) du dp1 dp2, total 2 pi^2. The rule takes
    Gauss-Legendre latitudes u in (0, 1) and n_phi trapezoid angles for each of
    p1 and p2; its n_u * n_phi^2 nodes run over (u, p1, p2) in C order. The
    node and weight arrays are built on first read; _monomial_integrals reads
    neither. Its moments of t^n are products of a latitude sum and two angle
    sums (_hopf_factor_sums), and its pullbacks are streamed in tiles built
    from the factors (_hopf_blocks). When n_phi is even the rule is
    antipodal: the antipode (u, p1 + pi, p2 + pi) of a node is a node of the
    same weight, and the rows p1 < pi are a fundamental domain. The pullback
    pass sums only those, at twice the weight, and every monomial of odd
    degree gets its exact integral 0. With n_phi odd the rule is not
    antipodal, and every row is summed.
    """

    latitudes: np.ndarray
    latitude_weights: np.ndarray  # Gauss weights of the latitudes on (0, 1)
    n_phi: int
    d: ClassVar[int] = 4

    @property
    def size(self) -> int:
        return self.latitudes.size * self.n_phi**2

    @cached_property
    def circle(self) -> np.ndarray:
        """The 2 x n_phi table of (cos p, sin p) on the angles."""
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        return np.stack([np.cos(phi), np.sin(phi)])

    @property
    def antipodal(self) -> bool:
        """Whether the antipode of every node is a node: n_phi even, p -> p + pi on both angles."""
        return self.n_phi % 2 == 0

    @property
    def row_weights(self) -> np.ndarray:
        """The weight of each node, one entry per latitude."""
        wphi = 2.0 * np.pi / self.n_phi
        return 0.5 * self.latitude_weights * wphi * wphi

    @cached_property
    def points(self) -> np.ndarray:
        # cos and sin are taken on the n_phi angles only and broadcast
        r1 = np.sqrt(1.0 - self.latitudes)[:, None, None]
        r2 = np.sqrt(self.latitudes)[:, None, None]
        cos, sin = self.circle
        pts = np.empty((self.latitudes.size, self.n_phi, self.n_phi, 4))
        pts[..., 0] = r1 * cos[:, None]
        pts[..., 1] = r1 * sin[:, None]
        pts[..., 2] = r2 * cos
        pts[..., 3] = r2 * sin
        return pts.reshape(-1, 4)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.repeat(self.row_weights, self.n_phi * self.n_phi)


def _gauss_gegenbauer(q: int, k: int) -> tuple:
    """q Gauss nodes and weights on (-1, 1) for the weight (1 - z^2)^alpha, alpha = (k-3)/2.

    Golub and Welsch ("Calculation of Gauss quadrature rules", Math. Comp. 23,
    1969): the nodes are the eigenvalues of the Jacobi matrix of the monic
    Gegenbauer polynomials, lambda = alpha + 1/2. It has zero diagonal and
    off-diagonal sqrt(beta_n), beta_n = n (n + 2 lambda - 1) / (4 (n + lambda)(n + lambda - 1)).
    The weights are mu0 v_0^2 over its unit eigenvectors v, with the total
    weight mu0 = sqrt(pi) Gamma(alpha + 1) / Gamma(alpha + 3/2).
    """
    alpha = (k - 3) / 2.0
    lam = alpha + 0.5
    n = np.arange(1.0, q)
    off = np.sqrt(n * (n + 2.0 * lam - 1.0) / (4.0 * (n + lam) * (n + lam - 1.0)))
    z, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = exp(0.5 * log(pi) + lgamma(alpha + 1.0) - lgamma(alpha + 1.5))
    return z, mu0 * v[0] ** 2


def _product_points(d: int, n_lat: int, n_phi: int) -> tuple:
    """The nested product rule on S^{d-1}, as (points, weights).

    It starts from the n_phi-point trapezoid rule on S^1 and, for k = 3..d,
    lifts S^{k-2} to S^{k-1} by t = (sqrt(1 - z^2) x, z), where z, the last
    coordinate on S^{k-1}, has density (1 - z^2)^{(k-3)/2} and takes its n_lat
    Gauss nodes. The rule is exact on polynomials of degree < min(2 n_lat, n_phi),
    and its nodes run over (z_d, ..., z_3, angle) in C order.
    """
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    w = np.full(n_phi, 2.0 * np.pi / n_phi)
    for k in range(3, d + 1):
        z, wz = _gauss_gegenbauer(n_lat, k)
        lifted = np.empty((n_lat, len(w), k))
        np.multiply(np.sqrt(1.0 - z**2)[:, None, None], pts, out=lifted[..., :-1])
        lifted[..., -1] = z[:, None]
        pts, w = lifted.reshape(-1, k), (wz[:, None] * w).ravel()
    return pts, w


def _s3_hopf_rule(n_u: int, n_phi: int) -> HopfRule:
    # k = 3 is the Legendre weight on (-1, 1), total 2, mapped to (0, 1)
    zu, wu = _gauss_gegenbauer(n_u, 3)
    return HopfRule(0.5 * (zu + 1.0), 0.5 * wu, n_phi)


def _node_counts(n, parts: int) -> tuple:
    """n as a tuple of one or `parts` positive integer node counts, else ValueError."""
    counts = (n,) if np.isscalar(n) else tuple(n)
    if len(counts) not in (1, parts) or not all(
        isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c > 0 for c in counts
    ):
        what = "a positive integer" if parts == 1 else f"a positive integer or {parts} of them"
        raise ValueError(f"node count must be {what}, got {n!r}")
    return tuple(int(c) for c in counts)


def quadrature_rule(d: int, n=None) -> QuadratureRule | HopfRule:
    """The sphere rule of S^{d-1}: the Hopf rule at d=4, the product rule at every other d.

    The product rule takes n = (latitudes, angles), or a single q meaning
    (q, 2q), and is then exact on polynomials of degree < 2q. At d=2 it has
    no latitudes: it takes a single q and is the trapezoid rule in 2q angles.
    q defaults to 1024 at d=2, to 96 at d=3 and to 4 above, which covers the
    moments suite's degree 6 at 2q^{d-1} nodes. The Hopf rule is the uniform
    product rule on S^3, whose accuracy on smooth integrands is limited only
    by roundoff; it takes n = (latitudes, angles) or a single count for both
    (default (48, 64)). A non-positive or non-integer count, a rule of more
    than _NODE_BUDGET nodes, or a Jacobi matrix of the latitudes over
    _JACOBI_BUDGET bytes is a ValueError raised before any node is built.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    hopf = d == 4
    counts = (48, 64) if hopf else ({2: 1024, 3: 96}.get(d, 4),)
    if n is not None:
        counts = _node_counts(n, 1 if d == 2 else 2)
    if len(counts) == 1:
        counts = (counts[0], counts[0] if hopf else 2 * counts[0])
    n_lat, n_phi = counts
    name, size = ("Hopf", n_lat * n_phi**2) if hopf else ("product", n_phi * n_lat ** (d - 2))
    if size > _NODE_BUDGET:
        raise ValueError(f"node count {size} of the {name} rule on S^{d - 1} exceeds the budget of {_NODE_BUDGET}")
    if d > 2 and 8 * n_lat**2 > _JACOBI_BUDGET:
        raise ValueError(
            f"latitude node count {n_lat} of the {name} rule on S^{d - 1} needs a Jacobi matrix of "
            f"{8 * n_lat**2} bytes, over the budget of {_JACOBI_BUDGET}"
        )
    if hopf:
        return _s3_hopf_rule(n_lat, n_phi)
    return QuadratureRule(d, *_product_points(d, n_lat, n_phi))


def quadrature_integrate(f, rule) -> complex:
    """The rule's estimate of the sphere integral of the sphere function f.

    A pairwise sum of weight * value. A BLAS dot over all nodes can lose far
    more: on the 2^20-node Hopf rule a complex dot missed the integral of 1 by
    2.6e-12 and real dots on the two parts by 1.5e-12, where the pairwise sum
    misses by 2.8e-14.
    """
    return complex(np.sum(rule.weights * f.evaluate(rule.points)))


_BLOCK = 1 << 16  # nodes per block of _monomial_integrals


def _table_dots(power: np.ndarray, partial: np.ndarray, remaining: int, out: list, even: bool, k: int = 0) -> None:
    """Append sum_j partial_j prod_{i>=k} power[i, n_i, j] for every (n_k, ..., n_{d-1}) of sum <= remaining.

    Lexicographic order, as in _multi_indices. Partial products are shared
    along that order. Each sum over the nodes is a pairwise sum of one row,
    not a BLAS product, whose rounding would follow the BLAS thread count; so
    a row's sum does not depend on which other rows are formed. With even,
    the last coordinate forms only the rows that give the whole multi-index
    an even degree, and appends 0.0 for the others. Row 0 of the table is 1.
    A plain recursive function, not a closure: a self-referencing closure is
    a reference cycle that would keep every block's power table alive until
    the cyclic collector runs.
    """
    if k == power.shape[0] - 1:
        step = 2 if even else 1
        first = (power.shape[1] - 1 - remaining) % step  # the degree of the prefix fixes the parity
        sums = np.zeros(remaining + 1)
        if first == 0:
            sums[0] = partial.sum()
            first = step
        sums[first::step] = (power[k, first : remaining + 1 : step] * partial).sum(axis=-1)
        out.extend(sums)
        return
    for e in range(remaining + 1):
        _table_dots(power, partial if e == 0 else partial * power[k, e], remaining - e, out, even, k + 1)


def _flat_blocks(rule, g, directions: bool):
    """Blocks of _BLOCK nodes sliced from rule.points, as pairs (u, w).

    u holds the directions gt/|gt| column-wise (None unless asked for) and w
    the weights times |gt|^{-d}, formed in real arithmetic.
    """
    for start in range(0, rule.size, _BLOCK):
        cols = rule.points[start : start + _BLOCK].T
        w = rule.weights[start : start + _BLOCK]
        if g is None:
            yield (cols if directions else None), w
            continue
        gt = g @ cols
        norms = np.sqrt(np.einsum("kj,kj->j", gt, gt))
        yield (gt / norms if directions else None), w / norms**rule.d


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """The powers x^0, ..., x^n of an array of any shape, by repeated multiplication.

    They are stacked on a new second-to-last axis, so a (d, m) array gives one
    C-contiguous (d, n + 1, m) table and a vector of m entries an (n + 1, m) one.
    """
    out = np.empty(x.shape[:-1] + (n + 1,) + x.shape[-1:])
    out[..., 0, :] = 1.0
    for e in range(1, n + 1):
        np.multiply(out[..., e - 1, :], x, out=out[..., e, :])
    return out


def _hopf_factor_sums(rule: HopfRule, keys: np.ndarray, max_degree: int) -> np.ndarray:
    """The rule's sum of every monomial t^n in the rows of keys, from its factors.

    A node is t = (r1 cos p1, r1 sin p1, r2 cos p2, r2 sin p2) with
    r1 = sqrt(1-u) and r2 = sqrt(u), and its weight depends on u alone, so the
    node sum of t^n is L[n1 + n2, n3 + n4] P[n1, n2] P[n3, n4], where
    P[a, b] = sum_p cos^a p sin^b p over the n_phi angles and
    L[i, j] = sum_u w_u r1^i r2^j over the latitudes at the row weights w_u.
    Both are pairwise sums over at most max(n_u, n_phi) terms.
    """
    cos, sin = (_powers(x, max_degree) for x in rule.circle)
    P = (cos[:, None] * sin[None]).sum(axis=-1)
    r1 = _powers(np.sqrt(1.0 - rule.latitudes), max_degree)
    r2 = _powers(np.sqrt(rule.latitudes), max_degree)
    L = (rule.row_weights * r1[:, None] * r2[None]).sum(axis=-1)
    n1, n2, n3, n4 = keys.T
    return L[n1 + n2, n3 + n4] * P[n1, n2] * P[n3, n4]


def _hopf_blocks(rule: HopfRule, g: np.ndarray, directions: bool):
    """The blocks of _flat_blocks for the pullback by g, on one node of each antipodal pair of a HopfRule.

    The antipode of the node (u, p1, p2) is (u, p1 + pi, p2 + pi). When n_phi
    is even that is again a node, of the same weight, so the rows with
    p1 < pi, each with its whole p2 circle, are a fundamental domain: only
    those are streamed, with the row weights doubled (exact in floating
    point), and _monomial_integrals sets each monomial of odd degree, whose
    two nodes cancel, to exactly 0. With an odd n_phi every row is streamed at
    its own weight.

    With r1 = sqrt(1-u), r2 = sqrt(u) and E the circle table,
    gt = r1 A[:, p1] + r2 B[:, p2] for the 4 x n_phi tables A = g[:, :2] E and
    B = g[:, 2:] E, and q = |gt|^2 = r1^2 a[p1] + r2^2 b[p2] + 2 r1 r2 C[p1, p2]
    with a = |A|^2, b = |B|^2 and C = A^T B, all formed once per g. So q on a
    tile of latitudes x p1 rows x whole p2 circles is one matrix product
    X @ Y of the latitudes' rows X = [r1^2, r2^2, 2 r1 r2] and the angle
    pairs' columns Y = [a[p1], b[p2], C[p1, p2]]. A tile is whole latitudes
    when one latitude's rows hold at most _BLOCK nodes, else max(1, _BLOCK // n_phi)
    rows of one latitude, so it holds at most max(_BLOCK, n_phi) nodes. A
    node's weight is w / q^2 and its direction (r1 A[:, p1] + r2 B[:, p2]) / sqrt(q).
    Without directions a block is one weight per latitude of the tile: its
    row weight times the sum of 1/q^2 over the latitude's nodes in the tile.
    This q loses about cond(g) eps relative against the sum of the squares of
    gt, which is harmless for Sp(theta).
    """
    n_phi = rule.n_phi
    A, B = g[:, :2] @ rule.circle, g[:, 2:] @ rule.circle
    n_p1 = n_phi // 2 if rule.antipodal else n_phi
    Y = np.empty((3, n_p1, n_phi))
    Y[0] = np.einsum("kj,kj->j", A, A)[:n_p1, None]
    Y[1] = np.einsum("kj,kj->j", B, B)
    Y[2] = A[:, :n_p1].T @ B
    r1, r2 = np.sqrt(1.0 - rule.latitudes), np.sqrt(rule.latitudes)
    X = np.stack([r1 * r1, r2 * r2, 2.0 * r1 * r2], axis=1)
    row_w = rule.row_weights * (2.0 if rule.antipodal else 1.0)
    rows = max(1, _BLOCK // n_phi)
    lat_step, p1_step = (rows // n_p1, n_p1) if rows >= n_p1 else (1, rows)
    for l0 in range(0, rule.latitudes.size, lat_step):
        lat = slice(l0, l0 + lat_step)
        for p0 in range(0, n_p1, p1_step):
            p1 = slice(p0, min(p0 + p1_step, n_p1))
            tile = Y[:, p1]
            q = X[lat] @ tile.reshape(3, -1)
            if not directions:
                np.multiply(q, q, out=q)
                yield None, row_w[lat] * np.reciprocal(q, out=q).sum(axis=1)
                continue
            w = (row_w[lat, None] / (q * q)).ravel()
            scale = (1.0 / np.sqrt(q)).reshape(-1, *tile.shape[1:])
            s1, s2 = r1[lat, None, None] * scale, r2[lat, None, None] * scale
            u = np.empty((4,) + scale.shape)
            for k in range(4):
                np.multiply(s1, A[k, p1, None], out=u[k])
                u[k] += s2 * B[k]
            yield u.reshape(4, -1), w


def _monomial_integrals(rule, max_degree: int, g=None) -> np.ndarray:
    """Quadrature of every monomial t^n with |n| <= max_degree, or of its pullback V_g t^n.

    The batch form of quadrature_integrate(vg_action(g, t^n), rule) for all n
    at once, as a float64 array whose entries follow the rows of
    _multi_indices(rule.d, max_degree): shape (M,) for no g or one d x d g,
    and (k, M) for a stack g of shape (k, d, d). A stack is validated once,
    with one stacked SVD, and refused whole if any member fails; each member
    then runs its own pass, so its row is bitwise the array of its own call.
    A g that is not a finite, numerically invertible d x d matrix, or a stack
    of them, is a ValueError.

    On a HopfRule with g = None the sums come from its factors
    (_hopf_factor_sums) and no node is visited. Every other case runs one
    kernel over the blocks of a source: _hopf_blocks streams the pullback on
    a HopfRule in tiles built from its factors, and _flat_blocks slices
    rule.points of every other rule. On an antipodal HopfRule (n_phi even)
    V_g t^n is odd under t -> -t when |n| is odd, so those entries are set to
    exactly 0, the full rule's value in exact arithmetic and the exact
    moment, and their table rows are not formed; the pullback source holds
    one node of each pair t, -t at twice the weight, and its even entries
    differ from the full rule's sums at roundoff. With n_phi odd every node
    is summed. Per block, the source gives the directions u = gt/|gt| and the
    weights w |gt|^{-d}; the kernel forms the C-contiguous power table u_k^e
    for e <= max_degree, and each monomial is a weighted dot of table rows.
    At degree 0 the only monomial is 1, so it sums the weights and forms
    neither u nor a table. Block sums are added in block order, so the
    result is deterministic and memory is O(d * max_degree * _BLOCK)
    whatever the node count.
    """
    d = rule.d
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape[-2:] != (d, d) or g.ndim not in (2, 3):
            raise ValueError(f"g must be {d}x{d} or a stack of them, got shape {g.shape}")
        _check_invertible(g)
    keys = _multi_indices(d, max_degree)
    hopf = isinstance(rule, HopfRule)
    members = [None] if g is None else g.reshape(-1, d, d)
    out = np.zeros((len(members), len(keys)))
    for totals, member in zip(out, members):
        if hopf and member is None:
            totals[:] = _hopf_factor_sums(rule, keys, max_degree)
            continue
        for u, w in (_hopf_blocks if hopf else _flat_blocks)(rule, member, max_degree > 0):
            if u is None:
                totals += w.sum()
                continue
            sums = []
            _table_dots(_powers(u, max_degree), w, max_degree, sums, hopf and rule.antipodal)
            totals += np.array(sums)
    if hopf and rule.antipodal:
        out[:, keys.sum(axis=1) % 2 == 1] = 0.0
    return out.reshape(np.shape(g)[:-2] + (len(keys),))


# ---------------------------------------------------------------------------
# linear actions


def _check_invertible(g: np.ndarray) -> None:
    """Refuse a square g that is not finite, or whose least singular value is at most 1e-12 of its largest.

    The ratio does not change when g is scaled, as det g does: 1e-4 times the
    identity in d = 4 has det 1e-16 and condition number 1. g may be a stack
    (k, d, d), refused whole if any member would be, by one stacked SVD.
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("g entries must be finite")
    s = np.linalg.svd(g, compute_uv=False)  # descending
    if not np.all(s[..., -1] > 1e-12 * s[..., 0]):  # also refuses g = 0
        raise ValueError("g is numerically singular")


def vg_action(g: np.ndarray, b) -> SphereFunction:
    """Weighted pullback (V_g b)(t) = |gt|^{-d} b(gt / |gt|) of the sphere function b.

    Composition runs contravariantly: V_{g1}(V_{g2} b) = V_{g2 g1} b pointwise.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if g.shape != (d, d):
        raise ValueError("g must be square")
    _check_invertible(g)
    if b.d != d:
        raise ValueError("dimension mismatch between g and b")

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        gt = pts @ g.T
        norms = np.linalg.norm(gt, axis=-1)
        return b.evaluate(gt / norms[..., None]) / norms**d

    return SphereFunction(d, evaluator)


def lie_action(A: np.ndarray, b: SpherePoly) -> SpherePoly:
    """Generator of the weighted pullback along e^{sA}, as a raw polynomial.

    <grad b, At> - <grad b, t><At, t> - d <At, t> b, computed without reducing
    modulo |t|^2 = 1, so the output degree is at most deg(b) + 2.
    """
    A = np.asarray(A, dtype=float)
    d = b.d
    if A.shape != (d, d):
        raise ValueError(f"A must be {d}x{d}")
    partials = [b.partial(k) for k in range(1, d + 1)]
    coords = [SpherePoly.coordinate(d, k) for k in range(1, d + 1)]
    zero = SpherePoly(d, {})
    At = [
        sum((A[k, j] * coords[j] for j in range(d)), zero)
        for k in range(d)
    ]
    grad_At = sum((partials[k] * At[k] for k in range(d)), zero)
    euler = sum((coords[k] * partials[k] for k in range(d)), zero)
    At_t = sum((At[k] * coords[k] for k in range(d)), zero)
    return grad_At - euler * At_t - d * (At_t * b)


# ---------------------------------------------------------------------------
# the reduction identities


class RecursionResiduals(NamedTuple):
    indices: np.ndarray  # (M, d), in the order of _multi_indices
    odd: np.ndarray  # the residual of each identity at each index
    first: np.ndarray
    main: np.ndarray


def moment_recursion_check(d: int, max_degree: int) -> RecursionResiduals:
    """Residuals of the three reduction identities of the exact moment table, on every index up to max_degree.

    Identities checked for each nvec:
      odd vanishing      l(b_n) = 0 when some n_j is odd,
      paired reduction   l(b_{n+2e_{2k-1}}) = (n_{2k-1}+1)/(n_{2k}+1) * l(b_{n+2e_{2k}}),
      degree reduction   l(b_{n+2e_k})      = (n_k+1)/(|n|+d)       * l(b_n).

    The pairing identity needs even d. Each l(b_{n+2e_k}) is the closed form
    at n + 2e_k, so the identities read moments up to degree max_degree + 2,
    and the multi-index budget is checked at that degree. The closed form
    satisfies the recursions by construction, so every residual is roundoff.
    """
    if d % 2:
        raise ValueError("the paired reduction identity requires even d")
    _check_multi_index_budget(d, max_degree + 2)
    n = _multi_indices(d, max_degree)
    l = _moments(n, d)
    bumped = [_moments(n + 2 * np.eye(d, dtype=np.int64)[k], d) for k in range(d)]
    odd = np.where(np.any(n % 2, axis=1), np.abs(l), 0.0)
    pairs = (np.abs(bumped[i] - (n[:, i] + 1) / (n[:, i + 1] + 1) * bumped[i + 1]) for i in range(0, d, 2))
    deg = n.sum(axis=1)
    degrees = (np.abs(bumped[k] - (n[:, k] + 1) / (deg + d) * l) for k in range(d))
    return RecursionResiduals(n, odd, reduce(np.maximum, pairs), reduce(np.maximum, degrees))
