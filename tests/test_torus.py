import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctrace.torus import (
    ThetaMatrix,
    TorusElement,
    torus_adjoint,
    torus_derivation,
    torus_identity,
    torus_mul,
    torus_trace,
    twist_phase,
    unitary_generator,
)

TOL = 1e-12

THETA2 = ThetaMatrix.from_upper(2, [np.pi / 2])
THETA4 = ThetaMatrix.from_upper(4, [np.pi / (2 + k) for k in range(6)])


def random_element(theta, rng, n_modes=3, radius=2):
    coeffs = {}
    for _ in range(n_modes):
        mode = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=theta.d))
        coeffs[mode] = complex(rng.normal(), rng.normal())
    return TorusElement(theta, coeffs)


def test_theta_validation_rejects_symmetric_part():
    with pytest.raises(ValueError):
        ThetaMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_theta_validation_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        ThetaMatrix.from_upper(2, [value])


def test_generator_product_twist():
    u10 = unitary_generator(THETA2, (1, 0))
    u01 = unitary_generator(THETA2, (0, 1))
    prod = torus_mul(u10, u01)
    assert prod.support() == [(1, 1)]
    # (n, theta m) = pi/2 here, so the twist is e^{i pi/4}
    assert prod.coeff((1, 1)) == pytest.approx(np.exp(0.25j * np.pi), abs=TOL)


def test_generator_commutator_value():
    u10 = unitary_generator(THETA2, (1, 0))
    u01 = unitary_generator(THETA2, (0, 1))
    comm = torus_mul(u10, u01) - torus_mul(u01, u10)
    assert comm.coeff((1, 1)) == pytest.approx(2j * np.sin(np.pi / 4), abs=TOL)


def test_twist_phase_antisymmetry():
    n, m = (2, -1), (1, 3)
    assert twist_phase(THETA2, n, m) * twist_phase(THETA2, m, n) == pytest.approx(1.0, abs=TOL)


def test_adjoint_is_star():
    rng = np.random.default_rng(5)
    x = random_element(THETA2, rng)
    y = random_element(THETA2, rng)
    lhs = torus_adjoint(torus_mul(x, y))
    rhs = torus_mul(torus_adjoint(y), torus_adjoint(x))
    assert (lhs - rhs).l2_norm() < TOL


def test_trace_kills_nonzero_modes():
    x = unitary_generator(THETA2, (1, 0)) + 2.0 * torus_identity(THETA2)
    assert torus_trace(x) == pytest.approx(2.0, abs=TOL)


def test_trace_is_positive_on_x_star_x():
    rng = np.random.default_rng(11)
    x = random_element(THETA4, rng)
    val = torus_trace(torus_mul(torus_adjoint(x), x))
    assert val.imag == pytest.approx(0.0, abs=TOL)
    assert val.real > 0


def test_derivation_scales_modes():
    x = unitary_generator(THETA2, (2, -3))
    dx = torus_derivation(2, x)
    assert dx.coeff((2, -3)) == pytest.approx(-3j, abs=TOL)


def test_elements_over_different_theta_never_combine():
    other = ThetaMatrix.from_upper(2, [0.1])
    with pytest.raises(ValueError):
        torus_mul(unitary_generator(THETA2, (1, 0)), unitary_generator(other, (0, 1)))


modes = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
coeff_dicts = st.dictionaries(modes, st.complex_numbers(max_magnitude=3, allow_nan=False), max_size=4)


@settings(max_examples=200, deadline=None)
@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_associativity_property(a, b, c):
    x = TorusElement(THETA2, a)
    y = TorusElement(THETA2, b)
    z = TorusElement(THETA2, c)
    lhs = torus_mul(torus_mul(x, y), z)
    rhs = torus_mul(x, torus_mul(y, z))
    assert (lhs - rhs).l2_norm() < 1e-10


@settings(max_examples=200, deadline=None)
@given(coeff_dicts, coeff_dicts)
def test_trace_property(a, b):
    x = TorusElement(THETA2, a)
    y = TorusElement(THETA2, b)
    assert torus_trace(torus_mul(x, y)) == pytest.approx(torus_trace(torus_mul(y, x)), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(coeff_dicts, coeff_dicts, st.integers(1, 2))
def test_leibniz_property(a, b, j):
    x = TorusElement(THETA2, a)
    y = TorusElement(THETA2, b)
    lhs = torus_derivation(j, torus_mul(x, y))
    rhs = torus_mul(torus_derivation(j, x), y) + torus_mul(x, torus_derivation(j, y))
    assert (lhs - rhs).l2_norm() < 1e-10
