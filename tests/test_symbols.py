import json

import numpy as np
import pytest

from nctrace.sphere import SphereFunction, SpherePoly
from nctrace.symbols import (
    LatticeWindow,
    OperatorWord,
    SphereLetter,
    TorusLetter,
    averaged_window_norm,
    build_pi1_matrix,
    build_pi2_matrix,
    commutator_tail_norm,
    injectivity_witness,
    random_word,
    representative_matrix,
    residual_compactness_report,
    sym,
    word_matrix,
)
from nctrace.torus import ThetaMatrix, torus_identity, torus_trace, twist_phase, unitary_generator

THETA = ThetaMatrix.from_upper(2, [np.pi / 2])
T1 = SpherePoly.coordinate(2, 1)
T2 = SpherePoly.coordinate(2, 2)
U10 = unitary_generator(THETA, (1, 0))
U01 = unitary_generator(THETA, (0, 1))


def word_of(*letters):
    wrapped = tuple(TorusLetter(v) if hasattr(v, "coeffs") and hasattr(v, "theta") else SphereLetter(v) for v in letters)
    return OperatorWord(THETA, wrapped)


def test_sym_of_two_sided_word():
    s = sym(word_of(U10, T1))
    assert len(s.terms) == 1
    x, y = s.terms[0]
    assert x.support() == [(1, 0)]
    assert y.coeffs == T1.coeffs


def test_sym_forgets_letter_order():
    assert sym(word_of(U10, T1)).gap(sym(word_of(T1, U10))) < 1e-15


def test_sym_multiplies_torus_letters_with_twist():
    s = sym(word_of(U10, U01))
    x, y = s.terms[0]
    assert x.coeff((1, 1)) == pytest.approx(twist_phase(THETA, (1, 0), (0, 1)), abs=1e-15)
    assert y.coeffs == {(0, 0): 1.0 + 0j}


def test_sym_is_homomorphism_on_products():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w1 = random_word(THETA, rng, 2)
        w2 = random_word(THETA, rng, 2)
        assert sym(w1 * w2).gap(sym(w1) * sym(w2)) < 1e-12


def test_sym_respects_adjoint():
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = random_word(THETA, rng, 3)
        assert sym(w.adjoint()).gap(sym(w).adjoint()) < 1e-12


def test_word_rejects_theta_mismatch():
    other = unitary_generator(ThetaMatrix.from_upper(2, [0.3]), (1, 0))
    with pytest.raises(ValueError):
        word_of(U10, other)


def test_injectivity_witness_positive():
    x = torus_identity(THETA) + 0.5 * U10
    s = sym(word_of(x, T1))
    w = injectivity_witness(s)
    assert w > 0.5
    # the averaged window norm the witness certifies from below
    assert averaged_window_norm(s, 12) >= w - 1e-9


def test_pi1_cocycle_on_interior():
    window = LatticeWindow(2, 8)
    left = build_pi1_matrix(U10, window).matrix @ build_pi1_matrix(U01, window).matrix
    right = twist_phase(THETA, (1, 0), (0, 1)) * build_pi1_matrix(
        unitary_generator(THETA, (1, 1)), window
    ).matrix
    interior = window.interior(2.5)
    assert np.abs((left - right)[:, interior]).max() < 1e-13


@pytest.mark.parametrize("d, small, large", [(2, 4, 9), (3, 2, 4)])
def test_window_basis_extends_without_permuting(d, small, large):
    inner = LatticeWindow(d, small).points
    outer = LatticeWindow(d, large).points
    assert np.array_equal(outer[: len(inner)], inner)
    # the order is (|n|^2, lexicographic), as a Python sort of the same points gives
    oracle = sorted(map(tuple, outer.tolist()), key=lambda p: (sum(v * v for v in p), p))
    assert [tuple(p) for p in outer.tolist()] == oracle


def test_pi1_tracks_escaped_mass():
    window = LatticeWindow(2, 4)
    rep = build_pi1_matrix(U10, window)
    # the boundary site (4,0) maps to (5,0), outside the window
    assert rep.escaped.max() == pytest.approx(1.0, abs=1e-15)
    idx = window.index()[(4, 0)]
    assert np.abs(rep.matrix[:, idx]).max() == 0.0


def test_pi1_rejects_undersized_window():
    wide = unitary_generator(THETA, (9, 0))
    with pytest.raises(ValueError):
        build_pi1_matrix(wide, LatticeWindow(2, 4))


def test_pi2_diagonal_is_homogeneous():
    window = LatticeWindow(2, 10)
    mat = build_pi2_matrix(T1, window)
    idx = window.index()
    assert mat[idx[(3, 4)], idx[(3, 4)]] == pytest.approx(0.6, abs=1e-15)
    assert mat[idx[(6, 8)], idx[(6, 8)]] == pytest.approx(0.6, abs=1e-15)
    off = mat - np.diag(np.diag(mat))
    assert np.abs(off).max() == 0.0


def test_pi2_origin_takes_spherical_mean():
    window = LatticeWindow(2, 3)
    idx = window.index()[(0, 0)]
    assert build_pi2_matrix(T1, window)[idx, idx] == pytest.approx(0.0, abs=1e-15)
    square = SpherePoly.monomial(2, (2, 0))
    assert build_pi2_matrix(square, window)[idx, idx] == pytest.approx(0.5, abs=1e-15)


def test_commutator_tail_zero_for_constant():
    assert commutator_tail_norm(U10, SpherePoly.constant(2, 3.0), 10.0) == 0.0


def test_commutator_tail_halves_per_doubling():
    vals = [commutator_tail_norm(U10, T1, R) for R in (100.0, 200.0)]
    assert 1.8 <= vals[0] / vals[1] <= 2.2


def test_commutator_tail_monotone():
    x = U10 + U01
    vals = [commutator_tail_norm(x, T1 * T2, R) for R in (50.0, 100.0, 200.0, 400.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_scan_enlargement_never_raises_bound():
    for R in (30.0, 60.0):
        wide = commutator_tail_norm(U10, T1, R, scan_factor=8)
        assert wide <= commutator_tail_norm(U10, T1, R, scan_factor=4) + 1e-15


def test_black_box_function_needs_lipschitz():
    f_ok = SphereFunction(2, lambda p: p[..., 0], lipschitz=1.0)
    assert commutator_tail_norm(U10, f_ok, 50.0) > 0
    f_bad = SphereFunction(2, lambda p: p[..., 0])
    with pytest.raises(ValueError):
        commutator_tail_norm(U10, f_bad, 50.0)


def test_report_zero_for_normal_ordered_word():
    rep = residual_compactness_report(word_of(U10, T1), (25.0, 50.0))
    assert rep.tail_norms == (0.0, 0.0)


def test_report_matches_commutator_route():
    # [P2(t1), P1(u)] differs from its representative by exactly the commutator
    word = word_of(T1, U10)
    rep = residual_compactness_report(word, (50.0, 100.0, 200.0))
    direct = [commutator_tail_norm(U10, T1, R) for R in (50.0, 100.0, 200.0)]
    np.testing.assert_allclose(rep.tail_norms, direct, rtol=1e-12)


def test_report_decreases_for_random_words():
    rng = np.random.default_rng(3)
    for _ in range(3):
        word = random_word(THETA, rng)
        rep = residual_compactness_report(word, (25.0, 50.0, 100.0, 200.0))
        assert all(a > b for a, b in zip(rep.tail_norms, rep.tail_norms[1:]))


def test_report_json_schema():
    rep = residual_compactness_report(word_of(T1, U10), (50.0, 100.0))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"R", "tail_norm", "fit_slope"}
    assert doc["fit_slope"] == pytest.approx(-1.0, abs=0.1)


def test_tail_bound_certifies_matrix_norm():
    word = word_of(T1, U10)
    window = LatticeWindow(2, 16)
    diff = word_matrix(word, window) - representative_matrix(sym(word), window)
    pts = window.points
    r2 = np.einsum("ij,ij->i", pts, pts)
    R = 8
    cols = np.nonzero((r2 > R * R) & (r2 <= (window.radius - 2) ** 2))[0]
    observed = np.linalg.norm(diff[:, cols], 2)
    assert observed <= residual_compactness_report(word, (float(R),)).tail_norms[0] + 1e-12


def test_random_word_never_normal_ordered():
    rng = np.random.default_rng(8)
    for _ in range(5):
        word = random_word(THETA, rng)
        assert residual_compactness_report(word, (25.0,)).tail_norms[0] > 0
