import numpy as np
import pytest

from nctrace.sphere import (
    MomentFunctional,
    SphereFunction,
    SpherePoly,
    invariance_residual,
    lie_action,
    moment_recursion_check,
    quadrature_integrate,
    quadrature_rule,
    random_unit_vectors,
    semantic_gap,
    sp_algebra_membership,
    sp_group_membership,
    sphere_integrate,
    sphere_moment,
    sphere_volume,
    vg_action,
)

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
    assert semantic_gap(p, one) < 1e-14
    assert semantic_gap(SpherePoly.monomial(d, (2, 0)), SpherePoly.monomial(d, (0, 2))) > 0.1


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


@pytest.mark.parametrize("d,kind,tol", [(2, None, 1e-10), (3, None, 1e-10), (4, "hopf", 1e-10), (4, "sobol", 1e-3)])
def test_quadrature_reproduces_moments(d, kind, tol):
    n = {2: 512, 3: (24, 48), 4: (12, 16) if kind == "hopf" else 2**14}[d]
    rule = quadrature_rule(d, n=n, kind=kind)
    for nvec in [(0,) * d, (2,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2), (2, 2) + (0,) * (d - 2)]:
        got = quadrature_integrate(SpherePoly.monomial(d, nvec), rule).value
        assert got == pytest.approx(sphere_moment(nvec, d), abs=tol)


def test_quadrature_error_proxy_present():
    rule = quadrature_rule(2, n=128)
    res = quadrature_integrate(SpherePoly.monomial(2, (2, 0)), rule)
    assert res.error >= 0.0


def test_hopf_rule_rejected_off_s3():
    with pytest.raises(ValueError):
        quadrature_rule(3, kind="hopf")


def test_moment_functional_exact_and_uncovered():
    m = MomentFunctional.exact(2, 4)
    assert m((2, 2)) == pytest.approx(np.pi / 4, abs=1e-14)
    with pytest.raises(ValueError):
        m((4, 2))


def test_moment_functional_from_quadrature():
    m = MomentFunctional.from_quadrature(2, 4, quadrature_rule(2, n=1024))
    assert m((2, 0)) == pytest.approx(np.pi, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4])
def test_recursions_exact_table(d):
    rep = moment_recursion_check(None, 8, d=d)
    assert rep.max_residual < 1e-12


def test_recursion_rejects_odd_dimension():
    with pytest.raises(ValueError):
        moment_recursion_check(None, 4, d=3)


def test_lie_action_rotation_generator():
    t1 = SpherePoly.coordinate(2, 1)
    out = lie_action(OMEGA2, t1)
    assert semantic_gap(out, SpherePoly.coordinate(2, 2)) < 1e-14


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
    assert sp_algebra_membership(a, OMEGA2)
    assert sp_group_membership(expm(a), OMEGA2)
    assert not sp_algebra_membership(np.eye(2), OMEGA2)


def test_sphere_function_wraps_callable():
    f = SphereFunction(2, lambda pts: pts[..., 0] ** 2, lipschitz=2.0)
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(f.evaluator(pts), [0.0, 1.0])
