import itertools
import time

import numpy as np
import pytest

import nctrace.symbols as symbols_module
from nctrace import _lattice
from nctrace._lattice import iter_shell
from nctrace.sphere import SphereFunction, SpherePoly, _probe_directions, random_unit_vectors
from nctrace.symbols import (
    SCAN_FACTOR,
    LatticeWindow,
    OperatorWord,
    SphereLetter,
    TorusLetter,
    build_pi1_matrix,
    build_pi2_matrix,
    commutator_tail_norm,
    commutator_tail_norms,
    random_word,
    representative_matrix,
    residual_compactness_report,
    sym,
    word_matrix,
    _remainder_bound,
    _sharp_remainder,
    _shifted_signatures,
)
from nctrace.torus import ThetaMatrix, TorusElement, torus_identity, twist_phase, unitary_generator

THETA = ThetaMatrix.from_upper(2, [np.pi / 2])
T1 = SpherePoly.coordinate(2, 1)
T2 = SpherePoly.coordinate(2, 2)
U10 = unitary_generator(THETA, (1, 0))
U01 = unitary_generator(THETA, (0, 1))
THETA3 = ThetaMatrix.from_upper(3, [0.3, -1.1, 0.7])


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


def _direction_slice(symbol, s):
    """The torus element sum_k y_k(s) x_k at one direction s, summed as TorusElements."""
    out = TorusElement(symbol.theta, {})
    for x, y in symbol.terms:
        out = out + complex(y.evaluate(np.asarray(s, dtype=float))) * x
    return out


def _per_direction_gap(a, b, seed):
    """Symbol.gap one probe direction at a time, kept as the oracle of the batched gap."""
    worst = 0.0
    for s in _probe_directions(64, a.d, np.random.default_rng(seed)):
        worst = max(worst, (_direction_slice(a, s) - _direction_slice(b, s)).l2_norm())
    return worst


def _symbol_pairs():
    """The pairs of the homomorphism and adjoint tests, distinct symbols, and d = 3 pairs."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        w1, w2 = random_word(THETA, rng, 2), random_word(THETA, rng, 2)
        yield sym(w1 * w2), sym(w1) * sym(w2)
        yield sym(w1), sym(w2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = random_word(THETA, rng, 3)
        yield sym(w.adjoint()), sym(w).adjoint()
    rng = np.random.default_rng(2)
    for _ in range(4):
        w1, w2 = random_word(THETA3, rng, 2), random_word(THETA3, rng, 2)
        yield sym(w1 * w2), sym(w1) * sym(w2)
        yield sym(w1.adjoint()), sym(w2)


def test_gap_matches_the_per_direction_oracle():
    zeros = nonzeros = 0
    for a, b in _symbol_pairs():
        for seed in (0, 5):
            want, got = _per_direction_gap(a, b, seed), a.gap(b, seed=seed)
            if want == 0.0:
                assert got == 0.0
                zeros += 1
            else:
                assert abs(got - want) <= 1e-14
                nonzeros += 1
    assert zeros and nonzeros


def test_word_refuses_a_sphere_letter_without_coefficients():
    f = SphereFunction(2, lambda p: p[..., 0], lipschitz=1.0)
    with pytest.raises(TypeError, match="SphereFunction"):
        OperatorWord(THETA, (SphereLetter(f), TorusLetter(U10)))


def test_word_rejects_theta_mismatch():
    other = unitary_generator(ThetaMatrix.from_upper(2, [0.3]), (1, 0))
    with pytest.raises(ValueError):
        word_of(U10, other)


def _dense(op, window):
    """The (size, size) matrix of a window operator {shift: weights}, each row found in the window's point dict.

    A weight whose target leaves the window must be 0, since the window drops it.
    """
    idx = window.index()
    mat = np.zeros((window.size, window.size), dtype=complex)
    cols = np.arange(window.size)
    for shift, v in op.items():
        rows = np.array([idx.get(tuple(t), -1) for t in (window.points + np.array(shift)).tolist()])
        hit = rows >= 0
        assert not v[~hit].any()
        mat[rows[hit], cols[hit]] += v[hit]
    return mat


def test_pi1_cocycle_on_interior():
    window = LatticeWindow(2, 8)
    left = _dense(build_pi1_matrix(U10, window), window) @ _dense(build_pi1_matrix(U01, window), window)
    right = twist_phase(THETA, (1, 0), (0, 1)) * _dense(build_pi1_matrix(unitary_generator(THETA, (1, 1)), window), window)
    interior = window.interior(2.5)
    assert np.abs((left - right)[:, interior]).max() < 1e-13


@pytest.mark.parametrize("d, radius", [(2, 4), (3, 2)])
def test_rows_match_an_index_lookup(d, radius):
    window = LatticeWindow(d, radius)
    idx = window.index()
    pts = [tuple(p) for p in window.points.tolist()]
    # every shift in {-3..3}^d, and one wider than the box along n_d, whose targets' keys would name the
    # window points n + e_(d-1) without the box test
    shifts = [*itertools.product(range(-3, 4), repeat=d), (0,) * (d - 1) + (2 * radius + 1,)]
    for shift in shifts:
        want = [idx.get(tuple(a + b for a, b in zip(p, shift)), -1) for p in pts]
        assert window.rows(shift).tolist() == want
    assert (window.rows(shifts[-1]) == -1).all()
    # some targets leave the box [-r, r]^d, and some stay in the box but leave the ball
    targets = np.concatenate([window.points + np.array(s) for s in shifts])
    in_box = (np.abs(targets) <= radius).all(axis=1)
    assert not in_box.all()
    assert (in_box & (np.einsum("ij,ij->i", targets, targets) > radius * radius)).any()


def test_pi1_tracks_escaped_mass():
    window = LatticeWindow(2, 4)
    rep = build_pi1_matrix(U10, window)
    # the boundary site (4,0) maps to (5,0), outside the window
    idx = window.index()[(4, 0)]
    assert np.abs(_dense(rep, window)[:, idx]).max() == 0.0


def _per_column_pi1_matrix(x, window):
    """build_pi1_matrix as a dense matrix filled by a per-column dict lookup, kept as its oracle."""
    pts = window.points
    idx = window.index()
    size = len(pts)
    mat = np.zeros((size, size), dtype=complex)
    theta = x.theta.entries
    for m, c in x.coeffs.items():
        mvec = np.array(m)
        phases = c * np.exp(0.5j * (pts.astype(float) @ (theta.T @ mvec.astype(float))))
        targets = pts + mvec
        for col in range(size):
            row = idx.get(tuple(targets[col]))
            if row is not None:
                mat[row, col] += phases[col]
    return mat


@pytest.mark.parametrize(
    "x, radius",
    [
        (U10, 4),
        (U10 + (0.5 - 2j) * U01 + 0.25j * unitary_generator(THETA, (-3, 2)) + 2.0 * torus_identity(THETA), 5),
        (TorusElement(THETA3, {(1, 0, 0): 1.0, (0, -2, 1): 0.5 - 1j, (2, 2, -1): -0.3j, (0, 0, 0): 2.0}), 3),
    ],
)
def test_pi1_matrix_matches_the_per_column_loop(x, radius):
    window = LatticeWindow(x.d, radius)
    got = build_pi1_matrix(x, window)
    assert sorted(got) == sorted(x.coeffs)
    assert _dense(got, window).tobytes() == _per_column_pi1_matrix(x, window).tobytes()
    # some targets leave the box [-r, r]^d, and some stay in the box but leave the ball
    targets = np.concatenate([window.points + np.array(m) for m in x.coeffs])
    in_box = (np.abs(targets) <= radius).all(axis=1)
    assert not in_box.all()
    assert (in_box & (np.einsum("ij,ij->i", targets, targets) > radius * radius)).any()


def test_interior_is_empty_when_the_margin_exceeds_the_radius():
    window = LatticeWindow(2, 6)
    for margin in (6.5, 10, 12):
        assert window.interior(margin).size == 0
    assert list(window.interior(6)) == [window.index()[(0, 0)]]
    assert np.array_equal(window.interior(0), np.arange(window.size))


def test_pi1_rejects_undersized_window():
    wide = unitary_generator(THETA, (9, 0))
    with pytest.raises(ValueError):
        build_pi1_matrix(wide, LatticeWindow(2, 4))


def test_pi2_diagonal_is_homogeneous():
    window = LatticeWindow(2, 10)
    op = build_pi2_matrix(T1, window)
    assert list(op) == [(0, 0)]
    mat = _dense(op, window)
    idx = window.index()
    assert mat[idx[(3, 4)], idx[(3, 4)]] == pytest.approx(0.6, abs=1e-15)
    assert mat[idx[(6, 8)], idx[(6, 8)]] == pytest.approx(0.6, abs=1e-15)
    off = mat - np.diag(np.diag(mat))
    assert np.abs(off).max() == 0.0


def test_pi2_origin_takes_spherical_mean():
    window = LatticeWindow(2, 3)
    idx = window.index()[(0, 0)]
    assert build_pi2_matrix(T1, window)[(0, 0)][idx] == pytest.approx(0.0, abs=1e-15)
    square = SpherePoly.monomial(2, (2, 0))
    assert build_pi2_matrix(square, window)[(0, 0)][idx] == pytest.approx(0.5, abs=1e-15)


def test_commutator_tail_zero_for_constant():
    assert commutator_tail_norm(U10, SpherePoly.constant(2, 3.0), 10.0) == 0.0


def test_commutator_tail_halves_per_doubling():
    vals = [commutator_tail_norm(U10, T1, R) for R in (100.0, 200.0)]
    assert 1.8 <= vals[0] / vals[1] <= 2.2


def test_commutator_tail_monotone():
    x = U10 + U01
    vals = [commutator_tail_norm(x, T1 * T2, R) for R in (50.0, 100.0, 200.0, 400.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


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


def test_report_fit_slope_is_minus_one():
    rep = residual_compactness_report(word_of(T1, U10), (50.0, 100.0))
    assert rep.fit_slope == pytest.approx(-1.0, abs=0.1)


def _certificate_columns(window, R):
    """The columns R < |n| <= radius - 2 on which the certificate compares a word with its representative."""
    pts = window.points
    r2 = np.einsum("ij,ij->i", pts, pts)
    return np.nonzero((r2 > R * R) & (r2 <= (window.radius - 2) ** 2))[0]


def test_tail_bound_certifies_matrix_norm():
    word = word_of(T1, U10)
    window = LatticeWindow(2, 16)
    got, rep = word_matrix(word, window), representative_matrix(sym(word), window)
    R = 8
    cols = _certificate_columns(window, R)
    observed = np.linalg.norm((_dense(got, window) - _dense(rep, window))[:, cols], 2)
    assert observed <= residual_compactness_report(word, (float(R),)).tail_norms[0] + 1e-12
    # one shift: the difference is a weighted partial permutation, whose norm is its largest weight
    assert list(got) == list(rep) == [(1, 0)]
    largest = np.abs(got[(1, 0)][cols] - rep[(1, 0)][cols]).max()
    assert abs(largest - observed) <= 4 * np.spacing(observed)


def test_tail_bound_certifies_the_d3_window():
    # the radius-16 window at d=3 has 17077 points; a dense pair of its matrices would take 4.7 GB
    start = time.perf_counter()
    u = unitary_generator(THETA3, (1, 0, 0))
    word = OperatorWord(THETA3, (SphereLetter(SpherePoly.coordinate(3, 1)), TorusLetter(u)))
    window = LatticeWindow(3, 16)
    assert window.size == 17077
    got, rep = word_matrix(word, window), representative_matrix(sym(word), window)
    cols = _certificate_columns(window, 8)
    largest = np.abs(got[(1, 0, 0)][cols] - rep[(1, 0, 0)][cols]).max()
    assert largest > 0.1
    assert largest <= residual_compactness_report(word, (8,)).tail_norms[0] + 1e-12
    assert time.perf_counter() - start < 2.0


def _dense_word_matrix(word, window):
    """The product of dense letter matrices, diagonal letters included, kept as the oracle of word_matrix."""
    out = None
    for let in word.letters:
        if isinstance(let, TorusLetter):
            mat = _dense(build_pi1_matrix(let.x, window), window)
        else:
            mat = _dense(build_pi2_matrix(let.y, window), window)
        out = mat if out is None else out @ mat
    return out


def test_diagonal_letters_scale_instead_of_multiplying():
    window = LatticeWindow(2, 7)
    x = U10 + (0.5 - 2j) * U01
    words = [
        word_of(T1, U10),
        word_of(U10, T1),
        word_of(T1, T2 * T2, x, T1 * T2, U01, T2),
        word_of(T1 * T2, T2),
        word_of(x, U01),
    ]
    for word in words:
        got, want = _dense(word_matrix(word, window), window), _dense_word_matrix(word, window)
        assert np.abs(got - want).max() <= 1e-14
    symbol = sym(word_of(T1, x, T2)) + sym(word_of(U01, T1 * T1))
    want = sum(
        _dense(build_pi1_matrix(xk, window), window) @ _dense(build_pi2_matrix(yk, window), window)
        for xk, yk in symbol.terms
    )
    assert np.abs(_dense(representative_matrix(symbol, window), window) - want).max() <= 1e-14


def test_random_word_never_normal_ordered():
    rng = np.random.default_rng(8)
    for _ in range(5):
        word = random_word(THETA, rng)
        assert residual_compactness_report(word, (25.0,)).tail_norms[0] > 0


# ---------------------------------------------------------------------------
# the per-(radius, signature) shell scan, kept as the oracle of the one-pass kernel


def _scan_product_difference(factors, d, r2_lo, r2_hi):
    """sup over the shell r2_lo < |n|^2 <= r2_hi of |prod y(unit(n+s)) - prod y(unit(n))|."""
    worst = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lattice, "CHUNK", 1 << 16)
        for chunk in iter_shell(d, r2_lo, r2_hi):
            pts = chunk.astype(float)
            base_dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            shifted = np.ones(len(chunk), dtype=complex)
            base = np.ones(len(chunk), dtype=complex)
            for y, s in factors:
                base_vals = y.evaluate(base_dirs)
                base = base * base_vals
                if any(s):
                    moved = pts + np.asarray(s, dtype=float)
                    shifted = shifted * y.evaluate(moved / np.linalg.norm(moved, axis=1, keepdims=True))
                else:
                    shifted = shifted * base_vals
            worst = max(worst, float(np.abs(shifted - base).max()))
    return worst


def _remainder_oracle(factors, beyond):
    """The remainder bound for |n| > beyond, every constant recomputed per call: the oracle of _remainder_bound."""
    total = 0.0
    for j, (y, s) in enumerate(factors):
        sh = float(np.linalg.norm(s))
        if sh == 0.0:
            continue
        if beyond <= sh:
            raise ValueError("scan window too small for the shift sizes")
        others = 1.0
        for i, (z, _) in enumerate(factors):
            if i != j:
                if not isinstance(z, SpherePoly):
                    raise ValueError("product remainders need sup bounds for every factor")
                others *= z.sup_bound()
        if isinstance(y, SpherePoly):
            tail = y.gradient_sup_bound() * sh / (beyond - sh)
        else:
            tail = y.lipschitz * 2.0 * sh / beyond
        total += others * tail
    return total


def test_remainder_bound_equals_per_call_oracle():
    f = SphereFunction(2, lambda p: p[..., 0], lipschitz=1.5)
    cases = [
        ((T1, (1, 0)),),
        ((T1 * T2, (2, -1)), (T2, (0, 0)), (T1 * T1 + (0.5 - 1j) * T2, (1, 1))),
        ((f, (1, 0)),),
        ((f, (0, 3)), (T1 * T2, (0, 0))),
        ((T1, (1, 0)), (f, (0, 0))),  # the other factor has no sup bound
    ]
    for factors in cases:
        bound = _remainder_bound(factors)
        for beyond in (1.0, 1.5, 2.5, 3.0, 40.0, 1e6):
            try:
                want = _remainder_oracle(factors, beyond)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    bound.at(beyond)
            else:
                assert bound.at(beyond) == want


def _tail_bound(signatures, d, R):
    total = 0.0
    for factors, weight in signatures:
        hi = SCAN_FACTOR * R
        scan = _scan_product_difference(factors, d, int(R * R), int(hi * hi))
        rem = _remainder_oracle(factors, hi)
        total += weight * max(scan, rem)
    return total


def _commutator_oracle(x, y, radii):
    signatures = [(((y, m),), abs(c)) for m, c in sorted(x.coeffs.items()) if any(m)]
    return [_tail_bound(signatures, x.d, float(R)) for R in radii]


@pytest.mark.parametrize(
    "d, seed, radii",
    [
        (2, 0, (20.0, 9.0, 20.0, 13.5)),
        (3, 2, (10.0, 7.0, 10.0)),
        (3, 0, (6.0, 12.0)),
        (3, 9, (5.5, 8.0)),
    ],
)
def test_report_equals_per_radius_oracle(d, seed, radii):
    theta = THETA if d == 2 else ThetaMatrix.from_upper(3, [0.3, -0.7, 1.1])
    rng = np.random.default_rng(seed)
    for _ in range(2):
        word = random_word(theta, rng, 3)
        signatures = _shifted_signatures(word)
        assert signatures
        expected = tuple(_tail_bound(signatures, d, R) for R in radii)
        assert residual_compactness_report(word, radii).tail_norms == expected


@pytest.mark.parametrize("seed", range(12))
def test_suite_words_equal_per_radius_oracle(seed):
    # the three words that symbol-compactness --d 2 --seed <seed> draws, at its radii
    rng = np.random.default_rng(seed)
    radii = (25.0, 50.0, 100.0, 200.0)
    for _ in range(3):
        word = random_word(THETA, rng)
        expected = tuple(_tail_bound(_shifted_signatures(word), 2, R) for R in radii)
        assert residual_compactness_report(word, radii).tail_norms == expected


def test_norms_do_not_depend_on_the_scan_chunk(monkeypatch):
    # a tail norm is a max over points, so where the scan cuts its chunks cannot change it
    theta3 = ThetaMatrix.from_upper(3, [0.3, -0.7, 1.1])
    words = [(random_word(THETA, np.random.default_rng(3), 3), (9.0, 20.0, 13.5)),
             (random_word(theta3, np.random.default_rng(2), 3), (5.5, 7.0))]
    x = U10 + (0.5 - 2j) * U01
    y = SphereFunction(2, lambda p: np.sin(3.0 * p[..., 0]) * p[..., 1], lipschitz=4.0)

    def norms():
        reports = [residual_compactness_report(word, radii).tail_norms for word, radii in words]
        return reports, commutator_tail_norms(x, T1 * T2, (12.5, 25.0)), commutator_tail_norms(x, y, (12.5,))

    default = norms()
    monkeypatch.setattr(_lattice, "CHUNK", 1 << 6)
    assert norms() == default


def test_report_of_normal_ordered_word_is_exactly_zero():
    assert residual_compactness_report(word_of(U10, U01, T1 * T2, T2), (30.0, 9.0, 30.0)).tail_norms == (0.0, 0.0, 0.0)


def test_commutator_norms_equal_per_radius_oracle():
    lipschitz = SphereFunction(2, lambda p: np.sin(3.0 * p[..., 0]) * p[..., 1], lipschitz=4.0)
    x = U10 + (0.5 - 2j) * U01 + 0.25 * torus_identity(THETA)
    radii = (40.0, 12.5, 40.0, 25.0)
    for y in (T1 * T2, T1 * T1 * T1 + 2.0 * T2, lipschitz):
        assert commutator_tail_norms(x, y, radii) == _commutator_oracle(x, y, radii)


def test_pruned_commutator_scan_skips_most_of_the_ball(monkeypatch):
    # the suite's commutator request covers the 8.03M points of 50 < |n| <= 1600
    points = []

    def counting_iter_shell(*args, **kwargs):
        for chunk in iter_shell(*args, **kwargs):
            points.append(len(chunk))
            yield chunk

    radii = (50.0, 100.0, 200.0, 400.0)
    ball = sum(len(c) for c in iter_shell(2, 50 * 50, 1600 * 1600))
    assert 8.03e6 < ball < 8.04e6
    monkeypatch.setattr(symbols_module, "iter_shell", counting_iter_shell)
    assert commutator_tail_norms(U10, T1, radii) == _commutator_oracle(U10, T1, radii)
    assert sum(points) <= 2.1e6


def test_pruned_suite_word_scans_skip_most_of_the_ball(monkeypatch):
    # the three words of symbol-compactness --d 2 --seed 0; pruning by the loose remainder alone walked 4.37M points
    points = []

    def counting_iter_shell(*args, **kwargs):
        for chunk in iter_shell(*args, **kwargs):
            points.append(len(chunk))
            yield chunk

    rng = np.random.default_rng(0)
    radii = (25.0, 50.0, 100.0, 200.0)
    words = [random_word(THETA, rng) for _ in range(3)]
    expected = [tuple(_tail_bound(_shifted_signatures(word), 2, R) for R in radii) for word in words]
    monkeypatch.setattr(symbols_module, "iter_shell", counting_iter_shell)
    assert [residual_compactness_report(word, radii).tail_norms for word in words] == expected
    assert sum(points) <= 0.5e6


def _sharp_cases():
    theta3 = ThetaMatrix.from_upper(3, [0.3, -0.7, 1.1])
    for d, theta, seed in [(2, THETA, 0), (2, THETA, 4), (2, THETA, 11), (3, theta3, 1), (3, theta3, 6)]:
        rng = np.random.default_rng(seed)
        for _ in range(2):
            for factors, _ in _shifted_signatures(random_word(theta, rng, 3 if d == 3 else 4)):
                yield d, factors


def test_sharp_remainder_bounds_the_scanned_shell():
    for d, factors in _sharp_cases():
        sharp = _sharp_remainder(factors, d)
        for r in ((3, 5, 10, 25) if d == 2 else (3, 5, 8)):
            bound = sharp.at(float(r))
            if r <= sharp.smax:
                assert bound == np.inf
                continue
            assert np.isfinite(bound)
            assert bound >= _scan_product_difference(factors, d, r * r, 16 * r * r)


def _first_order_poly(factors, d):
    """H = sum_j [grad y_j . s_j - (t . grad y_j)(t . s_j)] prod_{i != j} y_i, by polynomial algebra."""
    zero = SpherePoly(d, {})
    t = [SpherePoly.coordinate(d, k + 1) for k in range(d)]
    out = zero
    for j, (y, s) in enumerate(factors):
        grads = [y.partial(k + 1) for k in range(d)]
        along = sum((v * g for v, g in zip(s, grads)), zero)
        radial = sum((tk * g for tk, g in zip(t, grads)), zero)
        term = along - radial * sum((v * tk for v, tk in zip(s, t)), zero)
        for i, (other, _) in enumerate(factors):
            if i != j:
                term = term * other
        out = out + term
    return out


def test_sharp_remainder_grid_sup_bounds_a_finer_sample():
    rng = np.random.default_rng(5)
    for d, factors in _sharp_cases():
        sharp = _sharp_remainder(factors, d)
        poly = _first_order_poly(factors, d)
        if d == 2:
            # ten times the largest grid a degree-m polynomial gets at d = 2
            m = 1 + sum(y.degree() for y, _ in factors)
            angles = np.linspace(0.0, 2.0 * np.pi, 40 * (160 * m + 1), endpoint=False)
            fine = float(np.abs(poly.evaluate(np.stack([np.cos(angles), np.sin(angles)], axis=1))).max())
        else:
            # ten times the grid budget, in random directions
            fine = max(
                float(np.abs(poly.evaluate(random_unit_vectors(1 << 18, d, rng))).max()) for _ in range(10)
            )
        assert fine <= sharp.a <= 2.0 * fine


def test_sharp_remainder_is_first_order_exact():
    # |n| * (prod y(unit(n+s)) - prod y(unit(n))) tends to H(unit(n)), so A / r is the leading term
    rng = np.random.default_rng(3)
    word = random_word(THETA, rng)
    for factors, _ in _shifted_signatures(word):
        poly = _first_order_poly(factors, 2)
        assert poly.coeffs
        for n in ([6 * 10**5, 8 * 10**5], [-4 * 10**5, 7 * 10**5], [-5 * 10**5, -9 * 10**5]):
            v = np.array(n, dtype=float)
            moved = np.prod([y.evaluate((v + s) / np.linalg.norm(v + s)) for y, s in factors])
            base = np.prod([y.evaluate(v / np.linalg.norm(v)) for y, _ in factors])
            assert abs((moved - base) * np.linalg.norm(v) - poly.evaluate(v / np.linalg.norm(v))) <= 1e-4


def test_sharp_remainder_leaves_sphere_functions_to_the_lipschitz_bound():
    f = SphereFunction(2, lambda p: p[..., 0], lipschitz=1.0)
    assert _sharp_remainder(((f, (1, 0)),), 2).at(100.0) == np.inf
    assert _sharp_remainder(((T1, (1, 0)), (f, (0, 0))), 2).at(100.0) == np.inf


def test_over_budget_scan_is_refused_before_any_chunk(monkeypatch):
    chunks = []

    def counting_iter_shell(*args, **kwargs):
        for chunk in iter_shell(*args, **kwargs):
            chunks.append(len(chunk))
            yield chunk

    monkeypatch.setattr(symbols_module, "iter_shell", counting_iter_shell)
    theta3 = ThetaMatrix.from_upper(3, [0.3, -0.7, 1.1])
    # the piece (800^2, 1600^2] is over POINT_BUDGET in d=3; the pieces below R = 400 are not
    with pytest.raises(ValueError, match="d=3 up to radius 1600.*budget"):
        commutator_tail_norms(unitary_generator(theta3, (1, 0, 0)), SpherePoly.coordinate(3, 1), (50, 400))
    assert chunks == []


@pytest.mark.parametrize("coordinate", [0, 2])
def test_commutator_refuses_factor_of_other_dimension(coordinate):
    f = SphereFunction(3, lambda p: p[..., coordinate], lipschitz=1.0)
    with pytest.raises(ValueError, match="dimension"):
        commutator_tail_norm(U10, f, 10.0)
    with pytest.raises(ValueError, match="dimension"):
        commutator_tail_norm(U10, SpherePoly.coordinate(3, 1), 10.0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_radius_or_scan_factor_refused(bad):
    word = word_of(T1, U10)
    with pytest.raises(ValueError, match="radius .* not finite"):
        residual_compactness_report(word, (25.0, bad))
    with pytest.raises(ValueError, match="radius .* not finite"):
        commutator_tail_norms(U10, T1, (bad,))
    # finite, but the square of the scan edge SCAN_FACTOR * R overflows
    with pytest.raises(ValueError, match="square is not finite"):
        residual_compactness_report(word, (1e200,))


def test_radius_inside_a_shift_refused():
    # at R = 1 the scan would reach n = (-3, 0), where n + (3, 0) has no direction
    with pytest.raises(ValueError, match="shift"):
        commutator_tail_norm(unitary_generator(THETA, (3, 0)), T1, 1.0)
    assert commutator_tail_norm(unitary_generator(THETA, (3, 0)), T1, 3.0) > 0
