import dataclasses
import gc
import itertools
import time
from math import comb, exp, lgamma

import numpy as np
import pytest

from nctrace import sphere
from nctrace.moyal import MEMBERSHIP_TOL, _form_residuals, random_sp_block
from nctrace.sphere import (
    HopfRule,
    QuadratureRule,
    SphereFunction,
    SpherePoly,
    _BLOCK,
    _hopf_blocks,
    _moments,
    _monomial_integrals,
    _multi_indices,
    _product_points,
    _powers,
    _table_dots,
    lie_action,
    moment_recursion_check,
    quadrature_integrate,
    quadrature_rule,
    random_unit_vectors,
    sphere_integrate,
    sphere_moment,
    sphere_volume,
    vg_action,
)
from nctrace.symbols import commutator_tail_norms
from nctrace.torus import ThetaMatrix, unitary_generator

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_volume_values():
    assert sphere_volume(2) == pytest.approx(2 * np.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(4 * np.pi, rel=1e-15)
    assert sphere_volume(4) == pytest.approx(2 * np.pi**2, rel=1e-15)


@pytest.mark.parametrize(
    "nvec,d,expected",
    [
        ((0, 0), 2, 2 * np.pi),
        ((2, 0), 2, np.pi),
        ((2, 2), 2, np.pi / 4),
        ((4, 0), 2, 3 * np.pi / 4),
        ((2, 0, 0), 3, 4 * np.pi / 3),
        ((1, 0), 2, 0.0),
        ((1, 1, 2), 3, 0.0),
    ],
)
def test_moment_closed_forms(nvec, d, expected):
    assert sphere_moment(nvec, d) == pytest.approx(expected, abs=1e-14)


def test_moment_matches_circle_quadrature():
    # direct 1-d integral of cos^4 sin^2 over the circle
    phi = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    brute = np.mean(np.cos(phi) ** 4 * np.sin(phi) ** 2) * 2 * np.pi
    assert sphere_moment((4, 2), 2) == pytest.approx(brute, abs=1e-12)


def test_poly_product_and_degree():
    t1 = SpherePoly.coordinate(2, 1)
    t2 = SpherePoly.coordinate(2, 2)
    p = (t1 + t2) * (t1 - t2)
    assert p.degree() == 2
    pts = np.array([[0.6, 0.8], [1.0, 0.0]])
    np.testing.assert_allclose(p.evaluate(pts), [0.36 - 0.64, 1.0], atol=1e-15)


def test_partial_derivative():
    p = SpherePoly.monomial(3, (2, 1, 0))
    dp = p.partial(1)
    assert dp.coeffs == {(1, 1, 0): 2.0}


def test_semantic_equality_modulo_unit_norm():
    # t1^2 + t2^2 and 1 are different coefficient maps but equal on the circle
    d = 2
    p = SpherePoly.monomial(d, (2, 0)) + SpherePoly.monomial(d, (0, 2))
    one = SpherePoly.constant(d, 1.0)
    pts = random_unit_vectors(400, d, np.random.default_rng(0))
    assert np.abs((p - one).evaluate(pts)).max() < 1e-14
    assert np.abs((SpherePoly.monomial(d, (2, 0)) - SpherePoly.monomial(d, (0, 2))).evaluate(pts)).max() > 0.1


def test_sup_bound_dominates_samples():
    rng = np.random.default_rng(3)
    p = SpherePoly(3, {(2, 0, 0): 1.5, (0, 1, 1): -2.0, (0, 0, 0): 0.25})
    pts = random_unit_vectors(500, 3, rng)
    assert np.abs(p.evaluate(pts)).max() <= p.sup_bound() + 1e-12


def test_gradient_bound_dominates_differences():
    rng = np.random.default_rng(4)
    p = SpherePoly(2, {(1, 1): 1.0, (2, 0): -0.5})
    a = random_unit_vectors(200, 2, rng)
    b = random_unit_vectors(200, 2, rng)
    lhs = np.abs(p.evaluate(a) - p.evaluate(b))
    rhs = p.gradient_sup_bound() * np.linalg.norm(a - b, axis=1)
    assert (lhs <= rhs + 1e-12).all()


def _check_kind(rule, kind):
    """kind, where a case names it, is the rule the dimension picks: "hopf" at d=4, "product" elsewhere."""
    assert kind in (None, "hopf" if isinstance(rule, HopfRule) else "product")
    assert isinstance(rule, HopfRule) == (rule.d == 4)


@pytest.mark.parametrize("d,kind,tol", [(2, None, 1e-10), (3, None, 1e-10), (4, "hopf", 1e-10), (5, "product", 1e-10)])
def test_quadrature_reproduces_moments(d, kind, tol):
    n = {2: 256, 3: (24, 48), 4: (12, 16), 5: (8, 32)}[d]
    rule = quadrature_rule(d, n=n)
    _check_kind(rule, kind)
    for nvec in [(0,) * d, (2,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2), (2, 2) + (0,) * (d - 2)]:
        got = quadrature_integrate(SpherePoly.monomial(d, nvec), rule)
        assert got == pytest.approx(sphere_moment(nvec, d), abs=tol)


@pytest.mark.parametrize(
    "d,n,kind",
    [
        (2, 0, None),
        (2, -4, None),
        (2, 2.5, None),
        (2, (3, 4), None),
        (3, 0, None),
        (3, (4, -1), None),
        (3, (4, 8, 2), None),
        (4, 0, "hopf"),
        (4, (3, -2), "hopf"),
        (4, (3.0, 8), "hopf"),
        (4, (True, 8), "hopf"),
        (5, 0, "product"),
        (5, -(2**10), "product"),
        (12, 4, "product"),  # 8 * 4^10 = 8,388,608 nodes, over the budget of 2^22
        # 2^22 nodes fit the budget, but eigh would take a 2^21 x 2^21 matrix, 32 TiB
        (3, (2**21, 2), "product"),
        (4, (2**21, 1), "hopf"),
    ],
)
def test_quadrature_rule_refuses_bad_node_counts(d, n, kind, monkeypatch):
    def never(*args):
        raise AssertionError("a rule was built before its node counts were checked")

    for builder in ("_product_points", "_s3_hopf_rule"):
        monkeypatch.setattr(sphere, builder, never)
    assert kind in (None, "hopf" if d == 4 else "product")
    with pytest.raises(ValueError, match="node count"):
        quadrature_rule(d, n=n)


def test_trapezoid_rule_is_bitwise_the_circle_construction():
    n = 2048
    phi = 2.0 * np.pi * np.arange(n) / n
    rule = quadrature_rule(2)
    assert np.array_equal(rule.points, np.stack([np.cos(phi), np.sin(phi)], axis=1))
    assert np.array_equal(rule.weights, np.full(n, 2.0 * np.pi / n))


@pytest.mark.parametrize("d,q", [(2, 1024), (3, 96), (5, 4), (6, 4), (7, 4), (8, 4), (9, 4), (10, 4)])
def test_default_rule_off_s3_is_bitwise_the_product_rule(d, q):
    # q latitudes and 2q angles; at d=2 the latitudes are unused
    rule = quadrature_rule(d)
    pts, w = _product_points(d, q, 2 * q)
    assert isinstance(rule, QuadratureRule) and rule.d == d
    assert np.array_equal(rule.points, pts) and np.array_equal(rule.weights, w)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 3.5])
@pytest.mark.parametrize("q", [4, 16, 48, 64])
def test_golub_welsch_matches_scipy_gauss_jacobi(alpha, q):
    from scipy.special import roots_jacobi

    z, w = sphere._gauss_gegenbauer(q, int(2 * alpha) + 3)
    ref_z, ref_w = roots_jacobi(q, alpha, alpha)
    assert np.abs(z - ref_z).max() <= 2e-15
    assert np.abs(w - ref_w).max() <= 1e-13 * ref_w.max()


@pytest.mark.parametrize("d,q", [(3, 6), (4, 6), (5, 4), (6, 4), (7, 4), (8, 3), (9, 3), (10, 3)])
def test_product_rule_is_exact_up_to_its_design_degree(d, q):
    # at d=4 quadrature_rule picks the Hopf rule, so the product rule is built directly
    rule = QuadratureRule(d, *_product_points(d, q, 2 * q)) if d == 4 else quadrature_rule(d, n=q)
    assert rule.size == 2 * q ** (d - 1)
    keys = _multi_indices(d, 2 * q - 1).tolist()
    for nvec, value in zip(keys, _monomial_integrals(rule, 2 * q - 1).tolist(), strict=True):
        assert abs(value - sphere_moment(nvec, d)) <= 1e-12, nvec


@pytest.mark.parametrize("n", [4, 16, 48, 64, 128])
def test_hopf_latitudes_match_numpy_leggauss(n):
    # the Hopf rule's latitudes are the Golub-Welsch Legendre rule (k = 3) mapped to (0, 1)
    rule = quadrature_rule(4, n=(n, 2))
    zu, wu = np.polynomial.legendre.leggauss(n)
    assert np.abs(rule.latitudes - 0.5 * (zu + 1.0)).max() <= 1e-15
    assert np.abs(rule.latitude_weights - 0.5 * wu).max() <= 1e-12 * (0.5 * wu).max()


def _meshgrid_hopf_points(n_u, n_phi):
    """The S^3 product rule built on the full (u, p1, p2) meshgrid: the oracle of the broadcast build."""
    zu, wu = sphere._gauss_gegenbauer(n_u, 3)
    u = 0.5 * (zu + 1.0)
    wu = 0.5 * wu
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    U, P1, P2 = np.meshgrid(u, phi, phi, indexing="ij")
    WU = np.meshgrid(wu, phi, phi, indexing="ij")[0]
    r1 = np.sqrt(1.0 - U).ravel()
    r2 = np.sqrt(U).ravel()
    pts = np.stack(
        [r1 * np.cos(P1).ravel(), r1 * np.sin(P1).ravel(), r2 * np.cos(P2).ravel(), r2 * np.sin(P2).ravel()],
        axis=1,
    )
    return pts, 0.5 * WU.ravel() * wphi * wphi


@pytest.mark.parametrize("n_u,n_phi", [(48, 64), (64, 128), (24, 32), (4, 8), (7, 13)])
def test_hopf_points_bitwise_equal_to_meshgrid_construction(n_u, n_phi):
    rule = quadrature_rule(4, n=(n_u, n_phi))
    assert rule.size == n_u * n_phi**2
    assert not {"points", "weights"} & set(vars(rule)), "size built node arrays"
    ref_pts, ref_w = _meshgrid_hopf_points(n_u, n_phi)
    assert rule.points.shape == ref_pts.shape and rule.weights.shape == ref_w.shape
    assert np.array_equal(rule.points, ref_pts) and np.array_equal(rule.weights, ref_w)


def _oracle_moments(rule, max_degree, g):
    """Per-monomial path from the d + 1 public pullbacks rho = V_g 1 and c_k = V_g t_k.

    V_g t^n = rho prod_k (c_k / rho)^{n_k}, so each monomial is one pairwise
    sum over the nodes of weight * rho * prod (c_k / rho)^{n_k}; for g = None,
    rho = 1 and c_k = t_k. One entry per row of _multi_indices(d, max_degree).
    """
    d = rule.d
    basis = [SpherePoly.constant(d)] + [SpherePoly.coordinate(d, k) for k in range(1, d + 1)]
    rho, *c = ((b if g is None else vg_action(g, b)).evaluate(rule.points).real for b in basis)
    weighted, u = rule.weights * rho, [ck / rho for ck in c]
    out = []
    for nvec in _multi_indices(d, max_degree).tolist():
        term = weighted
        for k, e in enumerate(nvec):
            if e:
                term = term * u[k] ** e
        out.append(np.sum(term))
    return np.array(out)


def _assert_close(got, want, rtol=1e-13):
    """|got - want| <= rtol max(1, |want|) in every entry; a failure names the first rows of _multi_indices that miss."""
    assert got.shape == want.shape
    miss = np.abs(got - want) > rtol * np.maximum(1.0, np.abs(want))
    assert not miss.any(), np.flatnonzero(miss)[:10]


def _transform(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return None
    if kind == "sp":
        return random_sp_block(d, rng)
    return np.eye(d) + 0.3 * rng.normal(size=(d, d))


@pytest.mark.parametrize(
    "d,n,kind,g_kind",
    [
        (2, None, None, "identity"),
        (2, None, None, "sp"),
        (2, None, None, "gl"),
        (3, (24, 48), None, "identity"),
        (3, (24, 48), None, "gl"),
        (4, None, "hopf", "identity"),
        (4, None, "hopf", "sp"),
        (4, None, "hopf", "gl"),
        (4, (64, 128), "hopf", "sp"),
        (5, (8, 32), "product", "identity"),
        (5, (8, 32), "product", "gl"),
        (4, (64, 128), "hopf", "identity"),
    ],
)
def test_batch_moments_match_per_monomial_quadrature(d, n, kind, g_kind):
    rule = quadrature_rule(d, n=n)
    _check_kind(rule, kind)
    g = _transform(g_kind, d, seed=d)
    got = _monomial_integrals(rule, 4, g)
    assert got.dtype == np.float64 and got.shape == (comb(d + 4, d),)
    _assert_close(got, _oracle_moments(rule, 4, g))


def test_batch_moments_on_a_million_nodes_match_exact_moments():
    # The Hopf rule integrates these monomials exactly, so the exact moments are
    # the reference. One complex dot over all 2^20 equal-sign terms loses about
    # 4e-13 relative on t^0; blockwise sums, and the pairwise sums of
    # quadrature_integrate, do not.
    rule = quadrature_rule(4, n=(64, 128))
    _assert_close(_monomial_integrals(rule, 4), _moments(_multi_indices(4, 4), 4))


def test_batch_moments_with_a_partial_last_block_are_deterministic():
    rule = quadrature_rule(4, n=(50, 40))
    assert rule.size > _BLOCK and rule.size % _BLOCK and _BLOCK % rule.n_phi
    g = _transform("sp", 4, seed=11)
    want = _oracle_moments(rule, 4, g)
    for source in (rule, _flat(rule)):
        first = _monomial_integrals(source, 4, g)
        assert first.tobytes() == _monomial_integrals(source, 4, g).tobytes()
        _assert_close(first, want)


def _flat(rule):
    """The same nodes as a plain QuadratureRule, so _monomial_integrals slices its points."""
    return QuadratureRule(rule.d, rule.points, rule.weights)


def _flat_half(rule):
    """The rows p1 < pi of an even-n_phi HopfRule at doubled weights, as a plain QuadratureRule.

    One node of each antipodal pair: the nodes the Hopf source streams.
    """
    assert rule.n_phi % 2 == 0
    shape = (rule.latitudes.size, rule.n_phi, rule.n_phi)
    half = np.arange(rule.size).reshape(shape)[:, : rule.n_phi // 2].ravel()
    return QuadratureRule(rule.d, rule.points[half], 2.0 * rule.weights[half])


def _odd(d, max_degree):
    """Whether each row of _multi_indices(d, max_degree) has odd degree."""
    return _multi_indices(d, max_degree).sum(axis=1) % 2 == 1


def _zero_odd(values, max_degree):
    return np.where(_odd(4, max_degree), 0.0, values)


def _streamed_hopf_moments(rule, max_degree):
    """The node-by-node g = None pass over a HopfRule: the oracle of its factor sums.

    Blocks of whole p2 circles of max(1, _BLOCK // n_phi) consecutive (u, p1)
    rows, over the rows p1 < pi at doubled weights when n_phi is even (every
    row at its own weight when it is odd). Each block is summed through the
    power table of its nodes and _table_dots, and the odd keys of an
    antipodal rule are set to 0.
    """
    n_phi = rule.n_phi
    n_p1 = n_phi // 2 if rule.antipodal else n_phi
    row_w = rule.row_weights * (2.0 if rule.antipodal else 1.0)
    cos, sin = rule.circle
    r1, r2 = np.sqrt(1.0 - rule.latitudes), np.sqrt(rule.latitudes)
    totals = np.zeros(comb(4 + max_degree, 4))
    n_rows = rule.latitudes.size * n_p1
    step = max(1, _BLOCK // n_phi)
    for start in range(0, n_rows, step):
        lat, p1 = np.divmod(np.arange(start, min(start + step, n_rows)), n_p1)
        s1, s2 = r1[lat, None], r2[lat, None]
        u = np.empty((4, lat.size, n_phi))
        u[0], u[1], u[2], u[3] = s1 * cos[p1, None], s1 * sin[p1, None], s2 * cos, s2 * sin
        u = u.reshape(4, -1)
        power = np.empty((4, max_degree + 1, u.shape[1]))
        power[:, 0] = 1.0
        for e in range(1, max_degree + 1):
            np.multiply(power[:, e - 1], u, out=power[:, e])
        sums = []
        _table_dots(power, np.repeat(row_w[lat], n_phi), max_degree, sums, False)
        totals += np.array(sums)
    if rule.antipodal:
        totals[_odd(4, max_degree)] = 0.0
    return totals


@pytest.mark.parametrize("n", [(48, 64), (64, 128), (7, 13), (12, 15), (12, 16), (50, 40), (7, 300)])
def test_hopf_factor_sums_match_the_streamed_pass(n):
    # g = None: the product L[n1+n2, n3+n4] P[n1, n2] P[n3, n4] of the factor
    # sums against the node-by-node pass, on even and odd angle counts
    rule = quadrature_rule(4, n=n)
    want = _streamed_hopf_moments(rule, 6)
    degrees = _multi_indices(4, 6).sum(axis=1)
    for degree in range(7):
        # the rows of degree <= d of the lexicographic table are, in order, the table of degree d
        _assert_close(_monomial_integrals(rule, degree), want[degrees <= degree])
    assert not {"points", "weights"} & set(vars(rule)), "the factor sums built node arrays"


@pytest.mark.parametrize("n", [(12, 16), (48, 64), (50, 40), (7, 300), (64, 128)])
@pytest.mark.parametrize("g_kind", ["identity", "sp", "gl"])
def test_hopf_source_matches_flat_kernel(n, g_kind):
    # the Hopf pullback forms |gt|^2 from per-angle tables and g = None takes
    # the factor sums; the flat source sums every node of rule.points
    rule = quadrature_rule(4, n=n)
    g = _transform(g_kind, 4, seed=sum(n))
    flat = _flat(rule)
    for degree in range(5):
        got = _monomial_integrals(rule, degree, g)
        want = _monomial_integrals(flat, degree, g)
        oracles = [want] + ([_streamed_hopf_moments(rule, degree)] if g is None else [])
        for oracle in oracles:
            _assert_close(got, oracle)


@pytest.mark.parametrize("n", [(5, 16), (3, 7), (4, 40)])
@pytest.mark.parametrize("block", [8, 64, 256])
def test_hopf_tiles_hold_at_most_a_block_or_a_circle(n, block, monkeypatch):
    # a tile is whole latitudes, or p1 rows of one latitude, or one p2 circle
    # when n_phi exceeds the block; the sums do not depend on the tiling
    rule = quadrature_rule(4, n=n)
    g = _transform("sp", 4, seed=block)
    want = {degree: _monomial_integrals(rule, degree, g) for degree in (0, 4)}
    monkeypatch.setattr(sphere, "_BLOCK", block)
    nodes = [u.shape[1] for u, _ in _hopf_blocks(rule, g, True)]
    assert sum(nodes) == rule.size // (2 if rule.antipodal else 1)
    assert max(nodes) <= max(block, rule.n_phi)
    assert len(list(_hopf_blocks(rule, g, False))) == len(nodes)
    for degree, values in want.items():
        _assert_close(_monomial_integrals(rule, degree, g), values)


@pytest.mark.parametrize("n", [(12, 16), (48, 64), (50, 40), (7, 300)])
@pytest.mark.parametrize("g_kind", ["identity", "sp", "gl"])
def test_odd_keys_are_exact_zeros_on_an_even_angle_count(n, g_kind):
    # V_g t^n is odd under t -> -t when |n| is odd, and the half pass sums one
    # node of each antipodal pair, so those keys are the exact moment 0
    rule = quadrature_rule(4, n=n)
    g = _transform(g_kind, 4, seed=sum(n))
    got = _monomial_integrals(rule, 4, g)
    odd = _odd(4, 4)
    assert odd.sum() == 24
    assert np.all(got[odd] == 0.0) and not np.signbit(got[odd]).any()
    _assert_close(got, _oracle_moments(rule, 4, g))


@pytest.mark.parametrize("n", [(7, 13), (12, 15)])
@pytest.mark.parametrize("g_kind", ["identity", "sp", "gl"])
def test_odd_angle_count_streams_every_row(n, g_kind):
    # with n_phi odd, p1 + pi is no node: the full rule is summed and odd keys are roundoff
    rule = quadrature_rule(4, n=n)
    assert not rule.antipodal
    g = _transform(g_kind, 4, seed=sum(n))
    got = _monomial_integrals(rule, 4, g)
    _assert_close(got, _oracle_moments(rule, 4, g))
    assert np.any(got[_odd(4, 4)] != 0)


@pytest.mark.parametrize("n", [(50, 40), (100, 40)])
def test_half_pass_with_a_partial_last_block_is_deterministic(n):
    # a latitude streams 20 rows of 40 nodes, and a tile holds 81 latitudes:
    # (50, 40) is one tile short of _BLOCK; (100, 40) a full tile and a partial one of 19
    rule = quadrature_rule(4, n=n)
    per_tile = _BLOCK // rule.n_phi // (rule.n_phi // 2)
    assert rule.antipodal and _BLOCK % rule.n_phi and rule.latitudes.size % per_tile
    g = _transform("sp", 4, seed=11)
    for degree in (0, 4):
        first = _monomial_integrals(rule, degree, g)
        assert first.tobytes() == _monomial_integrals(rule, degree, g).tobytes()
        _assert_close(first, _zero_odd(_monomial_integrals(_flat_half(rule), degree, g), degree))


@pytest.mark.parametrize(
    "g,match",
    [
        (np.where(np.eye(4) > 0, np.nan, 0.3), "finite"),
        (np.outer([1.0, 2.0, 0.5, -1.0], [0.3, 1.0, -2.0, 0.7]), "singular"),
        (np.eye(3), "4x4"),
    ],
    ids=["nan", "rank1", "shape"],
)
@pytest.mark.parametrize("kind", ["hopf", "flat"])
def test_batch_moments_refuse_a_bad_g(g, match, kind):
    # unchecked, a NaN entry gave a table of NaN and the rank-1 g gave 2.6e67
    rule = quadrature_rule(4, n=(8, 16))
    with pytest.raises(ValueError, match=match):
        _monomial_integrals(rule if kind == "hopf" else _flat(rule), 2, g)


@pytest.mark.parametrize("d,n", [(4, (12, 16)), (4, (7, 13)), (4, (50, 40)), (3, (8, 16)), (2, 64)])
@pytest.mark.parametrize("degree", [0, 4])
def test_batch_moments_of_a_stack_are_bitwise_its_members(d, n, degree):
    # even and odd n_phi Hopf rules, and product rules: each member of a
    # stack runs its own pass, in the tiles of its own call
    rule = quadrature_rule(d, n=n)
    g = np.array([_transform(kind, d, seed) for kind in ("sp", "gl") for seed in range(3) if d % 2 == 0 or kind == "gl"])
    got = _monomial_integrals(rule, degree, g)
    assert got.shape == (len(g), comb(d + degree, d))
    for values, member in zip(got, g):
        assert values.tobytes() == _monomial_integrals(rule, degree, member).tobytes()
    assert _monomial_integrals(rule, degree, g[:0]).shape == (0, comb(d + degree, d))


@pytest.mark.parametrize(
    "bad,match",
    [(np.nan, "finite"), (np.zeros((4, 4)), "singular"), (np.outer([1.0, 2.0, 0.5, -1.0], [0.3, 1.0, -2.0, 0.7]), "singular")],
    ids=["nan", "zero", "rank1"],
)
@pytest.mark.parametrize("kind", ["hopf", "flat"])
def test_batch_moments_refuse_a_stack_with_one_bad_member(bad, match, kind):
    rule = quadrature_rule(4, n=(8, 16))
    g = np.array([_transform("sp", 4, seed) for seed in range(3)])
    g[1] = bad
    with pytest.raises(ValueError, match=match):
        _monomial_integrals(rule if kind == "hopf" else _flat(rule), 2, g)
    with pytest.raises(ValueError, match="4x4"):
        _monomial_integrals(rule, 2, g[None])


@pytest.mark.parametrize("max_degree", [1, 4, 6])
def test_even_table_dots_are_bitwise_the_full_pass(max_degree):
    # each key's sum is a pairwise sum of its own row, so skipping the rows of
    # odd total degree leaves every even key bitwise as it was
    rng = np.random.default_rng(max_degree)
    power = _powers(rng.normal(size=(4, 1000)), max_degree)
    weights = rng.uniform(size=1000)
    full, even = [], []
    _table_dots(power, weights, max_degree, full, False)
    _table_dots(power, weights, max_degree, even, True)
    keys = _multi_indices(4, max_degree).sum(axis=1)
    assert len(full) == len(even) == len(keys)
    for degree, a, b in zip(keys, full, even):
        assert b == (0.0 if degree % 2 else a)


@pytest.mark.parametrize("d,n,g_kind", [(4, (12, 16), "sp"), (4, (7, 13), "gl"), (3, (8, 16), "identity"), (5, (4, 8), "gl")])
def test_power_tables_are_c_contiguous(d, n, g_kind, monkeypatch):
    # a strided (d, degree + 1, nodes) view of a (degree + 1, d, nodes) table
    # raised the peak RSS of moments --d 10 from 148 to 181 MB
    rule = quadrature_rule(d, n=n)
    g = _transform(g_kind, d, seed=d)
    want = _monomial_integrals(rule, 4, g)
    table_dots, shapes = sphere._table_dots, []

    def contiguous_dots(power, *args):
        assert power.flags.c_contiguous
        shapes.append(power.shape)
        table_dots(power, *args)

    monkeypatch.setattr(sphere, "_table_dots", contiguous_dots)
    assert _monomial_integrals(rule, 4, g).tobytes() == want.tobytes()
    assert shapes and all(shape[:2] == (d, 5) for shape in shapes)


def test_batch_moments_leave_no_reference_cycles():
    # a cycle through a block's power table would hold it until the cyclic
    # collector runs, and peak memory would grow with the number of calls
    rule = quadrature_rule(4, n=(16, 32))
    flat = _flat(rule)
    gc.collect()
    gc.disable()
    try:
        for source in (rule, flat):
            _monomial_integrals(source, 4, _transform("sp", 4, seed=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_multi_index_table_over_budget_is_refused_at_once(monkeypatch):
    # moments --d 16 asks for the C(28, 16) = 30,421,755 tuples up to degree 12, several GB
    start = time.perf_counter()
    with pytest.raises(ValueError, match="30421755 multi-indices of degree <= 12 in d=16 exceed the budget of 1048576"):
        _multi_indices(16, 12)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(sphere, "_MULTI_INDEX_BUDGET", comb(2 + 4, 2))
    assert len(_multi_indices(2, 4)) == comb(2 + 4, 2)
    with pytest.raises(ValueError, match="21 multi-indices"):
        _multi_indices(2, 5)


def test_batch_moments_on_the_circle_rule():
    values = _monomial_integrals(quadrature_rule(2, n=512), 4)
    keys = _multi_indices(2, 4).tolist()
    assert values[keys.index([2, 0])] == pytest.approx(np.pi, abs=1e-12)
    assert values[keys.index([2, 2])] == pytest.approx(np.pi / 4, abs=1e-14)


@pytest.mark.parametrize("d,max_degree", [(1, 0), (1, 5), (2, 4), (4, 6), (7, 3)])
def test_multi_indices_equal_the_product_oracle(d, max_degree):
    want = [n for n in itertools.product(range(max_degree + 1), repeat=d) if sum(n) <= max_degree]
    got = _multi_indices(d, max_degree)
    assert got.dtype == np.int64 and got.shape == (len(want), d)
    assert list(map(tuple, got.tolist())) == want
    # every call builds its own table, so what one caller does to it reaches no later call
    got[:] = -1
    assert list(map(tuple, _multi_indices(d, max_degree).tolist())) == want


def _scalar_moment(nvec, d):
    """The scalar closed form that sphere_moment evaluated per index: the oracle of _moments."""
    if d < 2:
        raise ValueError("sphere dimension parameter d must be >= 2")
    key = sphere._validate_multi_index(nvec, d)
    if any(v % 2 for v in key):
        return 0.0
    total = sum(key)
    log_num = sum(lgamma((v + 1) / 2.0) for v in key)
    return 2.0 * exp(log_num - lgamma((total + d) / 2.0))


@pytest.mark.parametrize("d,max_degree", [(2, 14), (4, 10), (9, 5), (16, 3)])
def test_moments_equal_the_scalar_closed_form_bitwise(d, max_degree):
    indices = _multi_indices(d, max_degree)
    want = np.array([_scalar_moment(n, d) for n in indices.tolist()])
    assert _moments(indices, d).tobytes() == want.tobytes()
    assert all(sphere_moment(n, d) == w for n, w in zip(indices.tolist()[:50], want.tolist()))


@pytest.mark.parametrize("d", [2, 4])
def test_recursions_exact_table(d):
    rep = moment_recursion_check(d, 8)
    assert max(rep.odd.max(), rep.first.max(), rep.main.max()) < 1e-12


def _validated_recursion_rows(d, max_degree):
    """The recursion rows read through a table lookup that validates every key: the oracle of the array form."""
    table = {n: complex(_scalar_moment(n, d)) for n in map(tuple, _multi_indices(d, max_degree + 2).tolist())}

    def l(nvec):
        key = sphere._validate_multi_index(nvec, d)
        if key not in table:
            raise ValueError(f"moment table does not cover {key}")
        return table[key]

    rows = []
    for nvec in map(tuple, _multi_indices(d, max_degree).tolist()):
        odd_res = abs(l(nvec)) if any(v % 2 for v in nvec) else 0.0
        first_res = 0.0
        for k in range(d // 2):
            i, j = 2 * k, 2 * k + 1
            bumped_i = list(nvec)
            bumped_i[i] += 2
            bumped_j = list(nvec)
            bumped_j[j] += 2
            first_res = max(
                first_res,
                abs(l(bumped_i) - (nvec[i] + 1) / (nvec[j] + 1) * l(bumped_j)),
            )
        main_res = 0.0
        deg = sum(nvec)
        for k in range(d):
            bumped = list(nvec)
            bumped[k] += 2
            main_res = max(main_res, abs(l(bumped) - (nvec[k] + 1) / (deg + d) * l(nvec)))
        rows.append((nvec, odd_res, first_res, main_res))
    return rows


@pytest.mark.parametrize("d,degree", [(2, 8), (4, 8), (6, 6), (8, 6)])
def test_recursion_rows_equal_the_validated_table_oracle(d, degree):
    rep = moment_recursion_check(d, degree)
    want = _validated_recursion_rows(d, degree)
    assert rep.indices.tolist() == [list(r[0]) for r in want]
    for column, got in enumerate((rep.odd, rep.first, rep.main), start=1):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([r[column] for r in want]).tobytes()


def test_recursion_rejects_odd_dimension():
    with pytest.raises(ValueError):
        moment_recursion_check(3, 4)


@pytest.mark.parametrize(
    "d,max_degree,message",
    [
        # the identities read moments up to max_degree + 2, so the budget is checked there
        (10, 11, "1144066 multi-indices of degree <= 13 in d=10 exceed the budget of 1048576"),
        (16, 10, "30421755 multi-indices of degree <= 12 in d=16 exceed the budget of 1048576"),
        (2, -1, "max_degree must be >= 0, got -1"),
        (2, -3, "max_degree must be >= 0, got -1"),
    ],
)
def test_recursion_refuses_what_the_degree_table_refused(d, max_degree, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        moment_recursion_check(d, max_degree)
    assert time.perf_counter() - start < 1.0


def test_lie_action_rotation_generator():
    t1 = SpherePoly.coordinate(2, 1)
    out = lie_action(OMEGA2, t1)
    pts = random_unit_vectors(400, 2, np.random.default_rng(0))
    assert np.abs((out - SpherePoly.coordinate(2, 2)).evaluate(pts)).max() < 1e-14


def test_lie_action_finite_difference():
    from scipy.linalg import expm

    rng = np.random.default_rng(9)
    s = rng.normal(size=(2, 2))
    a = OMEGA2 @ (s + s.T) / 2
    b = SpherePoly.monomial(2, (2, 1))
    gen = lie_action(a, b)
    pts = random_unit_vectors(100, 2, rng)
    for step, bound in [(1e-4, 1e-3), (1e-6, 1e-5)]:
        fd = (vg_action(expm(step * a), b).evaluator(pts) - b.evaluate(pts)) / step
        assert np.abs(fd - gen.evaluate(pts)).max() < bound


def invariance_residual(g, b, rule):
    """|quadrature of V_g b  -  det(g)^{-1} * exact integral of b|: the per-monomial oracle of the batch residuals."""
    est = quadrature_integrate(vg_action(g, b), rule)
    return abs(est - sphere_integrate(b) / np.linalg.det(np.asarray(g, dtype=float)))


def test_vg_rotation_preserves_integral():
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    rule = quadrature_rule(2)
    b = SpherePoly.monomial(2, (2, 0))
    assert invariance_residual(rot, b, rule) < 1e-12


def test_vg_composition_is_contravariant():
    rng = np.random.default_rng(2)
    g1 = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    g2 = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
    b = SpherePoly.monomial(2, (1, 1))
    pts = random_unit_vectors(50, 2, rng)
    lhs = vg_action(g1, vg_action(g2, b)).evaluator(pts)
    rhs = vg_action(g2 @ g1, b).evaluator(pts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sp_memberships():
    from scipy.linalg import expm

    rng = np.random.default_rng(6)
    s = rng.normal(size=(2, 2))
    a = OMEGA2 @ (s + s.T) / 2
    assert _form_residuals(expm(a), OMEGA2) <= MEMBERSHIP_TOL
    assert not _form_residuals(np.diag([2.0, 1.0]), OMEGA2) <= MEMBERSHIP_TOL


def test_sphere_function_wraps_callable():
    f = SphereFunction(2, lambda pts: pts[..., 0] ** 2, lipschitz=2.0)
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(f.evaluator(pts), [0.0, 1.0])
    np.testing.assert_allclose(f.evaluate(pts), [0.0, 1.0])


def test_polynomials_are_evaluated_only_through_their_evaluate(monkeypatch):
    # a wrapper of SpherePoly.evaluate or of a SphereFunction's evaluator sees every evaluation
    calls = []
    original = SpherePoly.evaluate

    def counting(self, points):
        calls.append(np.shape(points)[:-1])
        return original(self, points)

    monkeypatch.setattr(SpherePoly, "evaluate", counting)
    t1 = SpherePoly.coordinate(2, 1)
    g = np.diag([2.0, 0.5])
    pts = random_unit_vectors(5, 2, np.random.default_rng(0))
    rule = quadrature_rule(2, n=32)

    commutator_tail_norms(unitary_generator(ThetaMatrix.from_upper(2, [0.5]), (1, 0)), t1, (10.0,))
    assert calls
    calls.clear()
    pullback = vg_action(g, t1)
    assert pullback.evaluate(pts).shape == (5,) and calls == [(5,)]
    calls.clear()
    quadrature_integrate(t1, rule)
    quadrature_integrate(pullback, rule)
    assert calls == [(64,)] * 2

    seen = []
    watched = dataclasses.replace(pullback, evaluator=lambda p: seen.append(len(p)) or pullback.evaluator(p))
    np.testing.assert_array_equal(watched.evaluate(pts), pullback.evaluate(pts))
    assert seen == [5]
