"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a PASS line with the measured numbers once its assertions
hold, so a verbose run doubles as a scoreboard. Criteria with a stated
runtime budget assert the elapsed wall time as well.
"""

import time

import numpy as np
from scipy.linalg import expm

from nctrace.dixmier import (
    LatticeDiagonal,
    connes_trace_torus,
    doubling_grid,
    log_fit,
    model_diagonal,
    normalised_trace_estimate,
)
from nctrace.moyal import (
    SymplecticForm,
    UniformGrid,
    antisymmetric_normal_form,
    ccr_phase_residual,
    h_decay_profile,
    random_sp_block,
    riesz_difference_decay,
    sp_invariant_functional_check,
)
from nctrace.sphere import (
    SpherePoly,
    _moments,
    _monomial_integrals,
    _multi_indices,
    lie_action,
    moment_recursion_check,
    quadrature_rule,
    random_unit_vectors,
    vg_action,
)
from nctrace.su2 import (
    GenPoly,
    HalfInteger,
    PAULI_TRIPLE,
    beta_formula_residual,
    block_conditional_expectation,
    build_block,
    su2_dixmier_ratio,
    su2_to_so3,
)
from nctrace.symbols import (
    OperatorWord,
    SphereLetter,
    TorusLetter,
    commutator_tail_norm,
    random_word,
    residual_compactness_report,
    sym,
)
from nctrace.torus import (
    ThetaMatrix,
    TorusElement,
    torus_derivation,
    torus_trace,
    unitary_generator,
)

THETA2 = ThetaMatrix.from_upper(2, [np.pi / 2])


def random_torus_element(theta, rng, n_modes=3, max_mode=3, with_trace=False):
    modes = {}
    for _ in range(n_modes):
        m = tuple(int(v) for v in rng.integers(-max_mode, max_mode + 1, size=theta.d))
        modes[m] = complex(rng.normal(), rng.normal())
    if with_trace:
        modes[(0,) * theta.d] = complex(rng.normal(), rng.normal())
    return TorusElement(theta, modes)


def random_sphere_poly(d, rng, n_terms=3, max_exp=2):
    terms = {}
    for _ in range(n_terms):
        nvec = tuple(int(v) for v in rng.integers(0, max_exp + 1, size=d))
        terms[nvec] = complex(rng.normal(), 0.0)
    return SpherePoly(d, terms)


def test_criterion_01_torus_trace_slope():
    start = time.perf_counter()
    diag = LatticeDiagonal.symbol_weighted(SpherePoly.constant(2, 1.0))
    fit = log_fit(diag, doubling_grid(4096))
    slope = abs(fit.slope)
    assert abs(slope - 2 * np.pi) <= 0.02 * 2 * np.pi
    estimate = abs(normalised_trace_estimate(diag, 4096))
    assert abs(estimate - np.pi) <= 0.03 * np.pi
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(
        f"PASS criterion 1: slope {slope:.5f} vs 2*pi (0.02 rel), "
        f"estimate {estimate:.5f} vs pi (0.03 rel), {elapsed:.1f}s <= 30s"
    )


def test_criterion_02_torus_trace_random_pairs():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        x = random_torus_element(THETA2, rng, max_mode=4, with_trace=True)
        y = random_sphere_poly(2, rng)
        est, ref = connes_trace_torus(x, y, 1024)
        rel = abs(complex(est) - complex(ref)) / max(abs(complex(ref)), 0.01)
        assert rel <= 0.05
        worst = max(worst, rel)

    # the model diagonal agrees entrywise with its closed form
    x = random_torus_element(THETA2, rng, with_trace=True)
    y = SpherePoly.monomial(2, (2, 0))
    diag = model_diagonal(x, y)
    pts = rng.integers(-15, 16, size=(200, 2))
    pts = pts[np.any(pts != 0, axis=1)]
    norms2 = np.einsum("ij,ij->i", pts, pts).astype(float)
    dirs = pts / np.sqrt(norms2)[:, None]
    expected = torus_trace(x) * y.evaluate(dirs) * (1 + norms2) ** -1.0
    np.testing.assert_allclose(diag.entry(pts), expected, atol=1e-12)
    print(f"PASS criterion 2: 5 random pairs worst rel {worst:.2e} <= 0.05, diagonal closed form to 1e-12")


def test_criterion_03_moment_recursions():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 4):
        rep = moment_recursion_check(d, 10)
        for r in (rep.odd.max(), rep.first.max(), rep.main.max()):
            assert r < 1e-12
            worst = max(worst, r)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"PASS criterion 3: recursion residuals < 1e-12 (worst {worst:.2e}), {elapsed:.1f}s <= 5s")


def test_criterion_04_lie_action_finite_difference():
    worst_lo, worst_hi = np.inf, 0.0
    for d in (2, 4):
        omega = SymplecticForm(d).matrix
        rng = np.random.default_rng(40 + d)
        for _ in range(20):
            s = rng.normal(size=(d, d))
            s = (s + s.T) / 2
            s /= np.linalg.norm(s, 2)
            a = omega @ s
            nvec = tuple(int(v) for v in rng.integers(0, 3, size=d))
            if sum(nvec) == 0:
                nvec = (1,) * d
            b = SpherePoly.monomial(d, nvec)
            gen = lie_action(a, b)
            pts = random_unit_vectors(200, d, rng)
            errs = []
            for step in (1e-3, 1e-4):
                fd = (vg_action(expm(step * a), b).evaluator(pts) - b.evaluate(pts)) / step
                errs.append(np.abs(fd - gen.evaluate(pts)).max())
            ratio = errs[0] / errs[1]
            assert 5.0 <= ratio <= 15.0
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    print(f"PASS criterion 4: step-ratio range [{worst_lo:.2f}, {worst_hi:.2f}] inside [5, 15] over 40 pairs")


def _worst_invariance_residual(g, rule, degree=4):
    """max over monomials up to degree of |quadrature of V_g t^n - det(g)^{-1} * exact moment|.

    One batch pass over the rule; tests/test_sphere.py checks the batch values
    against the per-monomial quadrature_integrate path.
    """
    exact = _moments(_multi_indices(rule.d, degree), rule.d)
    return np.abs(_monomial_integrals(rule, degree, g) - exact / np.linalg.det(g)).max()


def test_criterion_05_invariance_residuals():
    # d = 2 with the exact product rule on the circle
    rng = np.random.default_rng(5)
    rule2 = quadrature_rule(2)
    worst2 = max(_worst_invariance_residual(random_sp_block(2, rng), rule2) for _ in range(20))
    assert worst2 < 1e-8

    # d = 4 with the million-node product rule: 64 * 128^2 = 2^20 points
    rule4 = quadrature_rule(4, (64, 128))
    assert rule4.points.shape[0] == 2**20
    worst4 = max(_worst_invariance_residual(random_sp_block(4, rng), rule4) for _ in range(3))
    assert worst4 < 1e-5
    print(f"PASS criterion 5: d=2 worst {worst2:.2e} < 1e-8, d=4 worst {worst4:.2e} < 1e-5 on 2^20 nodes")


def test_criterion_06_beta_formula_limit():
    worst200 = 0.0
    for n1, n2, n3 in _multi_indices(3, 6).tolist():
        r50 = beta_formula_residual(50, n1, n2, n3)
        r200 = beta_formula_residual(200, n1, n2, n3)
        assert r200 < 0.05
        # exact cases sit at the floor on both grids; the rest must shrink
        assert r200 < r50 or r200 < 1e-12
        worst200 = max(worst200, r200)

    exact_cases = [(0, 2, 0), (0, 1, 1), (1, 1, 1), (2, 1, 0), (0, 3, 1), (1, 0, 5)]
    for l in (HalfInteger(1), 1, HalfInteger(5), 8, 50, 200):
        for n1, n2, n3 in exact_cases:
            assert beta_formula_residual(l, n1, n2, n3) < 1e-12
    print(f"PASS criterion 6: residual at l=200 < 0.05 (worst {worst200:.2e}), exact zeros < 1e-12 at every l")


def test_criterion_07_su2_trace_ratio():
    start = time.perf_counter()
    lines = []
    for text in ("1", "b1b1", "b1b2", "b3b3b3b3"):
        est, ref = su2_dixmier_ratio(GenPoly.parse(text), 200)
        err = abs(complex(est) - complex(ref))
        if abs(complex(ref)) > 1e-12:
            assert err <= 0.02 * abs(complex(ref))
        else:
            assert err < 0.01
        lines.append(f"{text}: {err:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    print(f"PASS criterion 7: ratio errors {', '.join(lines)} at L=200, {elapsed:.1f}s <= 120s")


def test_criterion_08_compactness_tails():
    grid = (50.0, 100.0, 200.0, 400.0)
    u10 = unitary_generator(THETA2, (1, 0))
    t1 = SpherePoly.coordinate(2, 1)
    vals = [commutator_tail_norm(u10, t1, R) for R in grid]
    ratios = [a / b for a, b in zip(vals, vals[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios)

    rng = np.random.default_rng(88)
    for _ in range(3):
        word = random_word(THETA2, rng, n_letters=4)
        rep = residual_compactness_report(word, grid)
        assert all(a > b for a, b in zip(rep.tail_norms, rep.tail_norms[1:]))
    print(
        f"PASS criterion 8: halving ratios {[f'{r:.3f}' for r in ratios]} in [1.8, 2.2], "
        "3 random words strictly decreasing"
    )


def test_criterion_09_symplectic_suite():
    # normal form on 100 random nondegenerate theta across d = 2, 4, 6
    worst_nf = 0.0
    for d, count in ((2, 34), (4, 33), (6, 33)):
        rng = np.random.default_rng(900 + d)
        for _ in range(count):
            a = rng.normal(size=(d, d))
            worst_nf = max(worst_nf, antisymmetric_normal_form(a - a.T).residual)
    assert worst_nf < 1e-10

    # invariance of the integration functional under 20 random Sp(theta, 4)
    theta4 = ThetaMatrix.from_upper(4, [np.pi / (2.0 + k) for k in range(6)])
    report = sp_invariant_functional_check(theta4, 4, quadrature_rule(4, (48, 64)), n_transforms=20)
    assert report.max_residual < 1e-6

    # commutation phase law on the grid
    theta2 = ThetaMatrix.from_upper(2, [np.pi])
    grid = UniformGrid(2, 96, 0.5)
    worst_ccr = max(
        ccr_phase_residual((1.0, 0.0), (0.0, 1.0), theta2, grid),
        ccr_phase_residual((1.5, -2.0), (1.5, -2.0), theta2, grid),
        ccr_phase_residual((-0.5, 2.0), (1.0, 0.5), theta2, grid),
    )
    assert worst_ccr < 1e-13

    # decay profiles stay bounded per their shell invariants
    radii = [10.0, 50.0, 250.0, 1000.0]
    prof = h_decay_profile(np.diag([2.0, 0.5]), radii)
    assert prof.bounded_ratio() <= 1.05
    rz = riesz_difference_decay(1, 2, radii)
    assert rz.bounded_ratio() <= 1.05
    assert max(rz.sups) <= 0.5 + 1e-9
    print(
        f"PASS criterion 9: normal form worst {worst_nf:.2e} < 1e-10, invariance {report.max_residual:.2e} < 1e-6, "
        f"ccr {worst_ccr:.2e} < 1e-13, profiles bounded"
    )


def test_criterion_10_property_suites():
    start = time.perf_counter()

    # twisted algebra: associativity, trace symmetry, Leibniz
    rng = np.random.default_rng(101)
    worst_torus = 0.0
    for _ in range(1000):
        x = random_torus_element(THETA2, rng)
        y = random_torus_element(THETA2, rng)
        z = random_torus_element(THETA2, rng)
        worst_torus = max(worst_torus, ((x * y) * z - x * (y * z)).l2_norm())
        worst_torus = max(worst_torus, abs(torus_trace(x * y) - torus_trace(y * x)))
        j = int(rng.integers(1, 3))
        leibniz = torus_derivation(j, x * y) - (torus_derivation(j, x) * y + x * torus_derivation(j, y))
        worst_torus = max(worst_torus, leibniz.l2_norm())
    assert worst_torus < 1e-12

    # the symbol map is multiplicative
    rng = np.random.default_rng(102)

    def two_letter_word():
        letters = []
        for _ in range(2):
            if rng.integers(0, 2) == 0:
                letters.append(TorusLetter(random_torus_element(THETA2, rng, n_modes=2)))
            else:
                letters.append(SphereLetter(random_sphere_poly(2, rng, n_terms=1)))
        return OperatorWord(THETA2, tuple(letters))

    worst_sym = 0.0
    for _ in range(1000):
        a, b = two_letter_word(), two_letter_word()
        worst_sym = max(worst_sym, sym(a * b).gap(sym(a) * sym(b)))
    assert worst_sym < 1e-12

    # pinching: idempotent, trace-preserving, norm-nonincreasing, module map
    rng = np.random.default_rng(103)
    worst_pinch = 0.0
    for _ in range(1000):
        block = build_block(HalfInteger(int(rng.integers(1, 17))))
        n = block.dim
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        e = block_conditional_expectation(block, m)
        worst_pinch = max(worst_pinch, np.abs(block_conditional_expectation(block, e) - e).max())
        worst_pinch = max(worst_pinch, abs(np.trace(e) - np.trace(m)))
        assert np.linalg.norm(e, 2) <= np.linalg.norm(m, 2) + 1e-12
        b1 = block.unit_gens[0]
        worst_pinch = max(worst_pinch, np.abs(block_conditional_expectation(block, b1 @ m) - b1 @ e).max())
    assert worst_pinch < 1e-12

    # the covering map composes contravariantly with this entry convention
    rng = np.random.default_rng(104)
    worst_cover = 0.0
    for _ in range(1000):
        g = expm(1j * np.tensordot(rng.normal(size=3), PAULI_TRIPLE, axes=(0, 0)))
        h = expm(1j * np.tensordot(rng.normal(size=3), PAULI_TRIPLE, axes=(0, 0)))
        worst_cover = max(worst_cover, np.abs(su2_to_so3(g @ h) - su2_to_so3(h) @ su2_to_so3(g)).max())
    assert worst_cover < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(
        f"PASS criterion 10: 1000 cases each, worst torus {worst_torus:.1e}, symbol {worst_sym:.1e}, "
        f"pinching {worst_pinch:.1e}, covering {worst_cover:.1e}, {elapsed:.1f}s <= 60s"
    )
