"""Tests for the symplectic normal form, grid shift unitaries, and decay profiles."""

import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm, schur

from nctrace import _lattice, moyal
from nctrace._lattice import iter_shell
from nctrace.moyal import (
    SymplecticForm,
    UniformGrid,
    antisymmetric_normal_form,
    ccr_phase,
    ccr_phase_residual,
    grid_unitary_apply,
    h_decay_profile,
    multiplier_identity_residual,
    random_sp_block,
    random_sp_theta,
    riesz_difference_decay,
    sp_invariant_functional_check,
    sp_theta_conjugate,
)
from nctrace.sphere import SpherePoly, _moments, _monomial_integrals, quadrature_rule
from nctrace.torus import ThetaMatrix

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_antisymmetric(d, rng):
    a = rng.normal(size=(d, d))
    return a - a.T


def random_real(d, rng, norm1, hamiltonian):
    """A random d x d matrix of 1-norm norm1: Omega S with S symmetric, or Gaussian entries."""
    a = rng.normal(size=(d, d))
    if hamiltonian:
        a = SymplecticForm(d).matrix @ (a + a.T)
    return a * (norm1 / np.abs(a).sum(axis=0).max())


def series_expm(a):
    """sum_k a^k / k! in 90-digit decimal arithmetic, to 1e-40 relative to its largest entry."""
    n = len(a)
    with localcontext() as ctx:
        ctx.prec = 90
        m = [[Decimal(float(x)) for x in row] for row in a]
        term = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
        total = [row[:] for row in term]
        k = 0
        while True:
            k += 1
            term = [[sum(term[i][l] * m[l][j] for l in range(n)) / k for j in range(n)] for i in range(n)]
            total = [[x + y for x, y in zip(r, t)] for r, t in zip(total, term)]
            top = max(abs(x) for row in total for x in row)
            if k > 10 and max(abs(x) for row in term for x in row) < Decimal("1e-40") * top:
                return np.array([[float(x) for x in row] for row in total])


def rel_err(got, ref):
    return np.abs(got - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()


def schur_beta(th):
    """The real-Schur construction of the normal form, as an oracle."""
    T, Q = schur(th, output="real")
    d = len(th)
    scale = np.empty(d)
    for i in range(0, d, 2):
        lam = T[i, i + 1]
        if lam < 0:
            Q = Q.copy()
            Q[:, [i, i + 1]] = Q[:, [i + 1, i]]
            lam = -lam
        scale[i] = scale[i + 1] = lam**-0.5
    return Q * scale


# (d, Hamiltonian or Gaussian entries); a Hamiltonian matrix needs even d
EXPM_CASES = [(d, False) for d in range(2, 9)] + [(d, True) for d in (2, 4, 6, 8)]


class TestExpm:
    @pytest.mark.parametrize("d, hamiltonian", EXPM_CASES)
    def test_matches_scipy(self, d, hamiltonian):
        rng = np.random.default_rng(d)
        assert np.array_equal(moyal.expm(np.zeros((d, d))), np.eye(d))
        for norm1 in np.linspace(0.01, 5.0, 40):
            a = random_real(d, rng, norm1, hamiltonian)
            assert rel_err(moyal.expm(a), scipy_expm(a)) <= 1e-12

    @pytest.mark.parametrize("d, hamiltonian", EXPM_CASES)
    def test_matches_exact_series_up_to_norm_50(self, d, hamiltonian):
        # past 1-norm 5 scipy.linalg.expm is itself off the exact series by up
        # to 6e-12 on such matrices, so the series is the oracle here
        rng = np.random.default_rng(100 + d)
        for norm1 in (5.0, 12.5, 25.0, 50.0):
            a = random_real(d, rng, norm1, hamiltonian)
            assert rel_err(moyal.expm(a), series_expm(a)) <= 1e-12

    def test_hamiltonian_exponential_is_symplectic(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 6, 8):
            omega = SymplecticForm(d).matrix
            for _ in range(20):
                g = moyal.expm(random_real(d, rng, rng.uniform(0.0, 4.0), True))
                assert np.abs(g.T @ omega @ g - omega).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_stack_is_bitwise_its_members(self, d):
        # a zero member, members that need no squaring (1-norm <= 1/2) and
        # members squared 3 to 7 times, so the squaring steps mask the stack
        rng = np.random.default_rng(40 + d)
        norms = [0.0, 0.3, 0.5, 4.5, 9.0, 50.0]
        stack = np.array([random_real(d, rng, n, h) for n in norms for h in (False, True)])
        got = moyal.expm(stack)
        assert got.shape == stack.shape
        for member, out in zip(stack, got):
            assert np.array_equal(out, moyal.expm(member))
        assert moyal.expm(stack[:0]).shape == (0, d, d)

    def test_refuses_bad_input(self):
        with pytest.raises(ValueError, match="not finite"):
            moyal.expm(np.array([[0.0, np.inf], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="not finite"):
            moyal.expm(np.stack([np.zeros((2, 2)), np.array([[0.0, np.nan], [1.0, 0.0]])]))
        with pytest.raises(ValueError, match="not finite"):
            moyal.expm(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="square"):
            moyal.expm(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="real"):
            moyal.expm(1j * OMEGA2)


class TestSymplecticForm:
    def test_block_structure(self):
        m = SymplecticForm(4).matrix
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(m[:2, :2], OMEGA2)
        np.testing.assert_array_equal(m[2:, 2:], OMEGA2)
        np.testing.assert_array_equal(m[:2, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_square_is_minus_identity(self, d):
        m = SymplecticForm(d).matrix
        np.testing.assert_array_equal(m @ m, -np.eye(d))
        np.testing.assert_array_equal(m.T, -m)

    @pytest.mark.parametrize("d", [0, 1, 3, 5])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError):
            SymplecticForm(d)


class TestNormalForm:
    def test_scalar_multiple_of_block_form(self):
        # theta = a*Omega diagonalises by the scalar a^{-1/2}
        a = 2.5
        nf = antisymmetric_normal_form(a * OMEGA2)
        np.testing.assert_allclose(nf.beta, a**-0.5 * np.eye(2), atol=1e-15)
        assert nf.residual == 0.0
        np.testing.assert_allclose(nf.beta @ nf.beta.T, np.eye(2) / a, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_random_theta_residual(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(34):
            th = random_antisymmetric(d, rng)
            nf = antisymmetric_normal_form(th)
            omega = SymplecticForm(d).matrix
            assert np.abs(nf.beta.T @ th @ nf.beta - omega).max() < 1e-10
            assert nf.residual < 1e-10

    def test_beta_is_real_invertible(self):
        rng = np.random.default_rng(7)
        nf = antisymmetric_normal_form(random_antisymmetric(4, rng))
        assert nf.beta.dtype.kind == "f"
        assert abs(np.linalg.det(nf.beta)) > 1e-12

    def test_singular_theta_rejected(self):
        with pytest.raises(ValueError):
            antisymmetric_normal_form(np.zeros((2, 2)))

    @pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_small_multiples_accepted(self, s):
        # the refusal reads the ratio lam_min / lam_max, which scaling keeps; det(s * Omega) = s^4
        nf = antisymmetric_normal_form(s * SymplecticForm(4).matrix)
        np.testing.assert_allclose(nf.beta, s**-0.5 * np.eye(4), rtol=1e-15)
        assert nf.residual <= 1e-15
        th = s * random_antisymmetric(6, np.random.default_rng(9))
        assert antisymmetric_normal_form(th).residual <= 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_rank_deficient_theta_rejected(self, scale):
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
        for small in (0.0, 1e-13):
            block = np.zeros((4, 4))
            block[0, 1], block[1, 0], block[2, 3], block[3, 2] = 1.0, -1.0, small, -small
            with pytest.raises(ValueError, match="singular"):
                antisymmetric_normal_form(scale * q @ block @ q.T)
        block[2, 3], block[3, 2] = 1e-11, -1e-11
        assert antisymmetric_normal_form(scale * block).residual <= 1e-15

    def test_odd_dimension_rejected(self):
        th = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
        with pytest.raises(ValueError):
            antisymmetric_normal_form(th)

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            antisymmetric_normal_form(np.eye(2))

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_matches_schur_oracle(self, d):
        # both constructions give beta = Q diag(lam_j^{-1/2}) with Q orthogonal, so beta^T beta has eigenvalues 1/lam_j
        rng = np.random.default_rng(200 + d)
        omega = SymplecticForm(d).matrix
        for _ in range(30):
            th = random_antisymmetric(d, rng)
            beta, ref = antisymmetric_normal_form(th).beta, schur_beta(th)
            assert np.abs(beta.T @ th @ beta - omega).max() <= 1e-10
            assert np.abs(ref.T @ th @ ref - omega).max() <= 1e-10
            scales, ref_scales = (np.linalg.eigvalsh(b.T @ b) for b in (beta, ref))
            np.testing.assert_allclose(scales, ref_scales, rtol=1e-10)

    @pytest.mark.parametrize("lams", [(1.0, 1.0), (0.5, 0.5, 3.0), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0, 1.0)])
    def test_repeated_moduli(self, lams):
        # a repeated |lam| leaves eigh any orthonormal basis of its eigenspace
        d = 2 * len(lams)
        block = np.zeros((d, d))
        for i, lam in zip(range(0, d, 2), lams):
            block[i, i + 1], block[i + 1, i] = lam, -lam
        rng = np.random.default_rng(d)
        omega = SymplecticForm(d).matrix
        for _ in range(10):
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            th = q @ block @ q.T
            nf, ref = antisymmetric_normal_form(th), schur_beta(th)
            assert nf.residual <= 1e-10
            assert np.abs(ref.T @ th @ ref - omega).max() <= 1e-10
            np.testing.assert_allclose(np.linalg.eigvalsh(nf.beta.T @ nf.beta), np.sort(np.repeat(lams, 2) ** -1.0))

    def test_block_form_comes_back_diagonal(self):
        th = np.zeros((4, 4))
        th[0, 1], th[1, 0], th[2, 3], th[3, 2] = 3.0, -3.0, 0.5, -0.5
        beta = antisymmetric_normal_form(th).beta
        assert np.count_nonzero(beta - np.diag(np.diag(beta))) == 0

    def test_non_finite_theta_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                antisymmetric_normal_form(np.array([[0.0, bad], [-bad, 0.0]]))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_stack_is_bitwise_the_per_matrix_calls(self, d):
        a = np.random.default_rng(300 + d).normal(size=(34, d, d))
        stack = a - np.swapaxes(a, -1, -2)
        stack[3] *= 1e-6  # the refusal and the phases do not depend on the scale
        nf = antisymmetric_normal_form(stack)
        assert nf.beta.shape == (34, d, d) and nf.residual.shape == (34,)
        for th, beta, residual in zip(stack, nf.beta, nf.residual):
            one = antisymmetric_normal_form(th)
            assert np.array_equal(beta, one.beta) and residual == one.residual
            assert isinstance(one.residual, float)

    def test_stack_with_a_singular_member_is_refused(self):
        stack = np.stack([random_antisymmetric(4, np.random.default_rng(k)) for k in range(5)])
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
        block = np.zeros((4, 4))
        block[0, 1], block[1, 0] = 1.0, -1.0
        stack[2] = q @ block @ q.T
        with pytest.raises(ValueError, match="singular"):
            antisymmetric_normal_form(stack)
        stack[2] = np.eye(4)
        with pytest.raises(ValueError, match="antisymmetric"):
            antisymmetric_normal_form(stack)

    def test_accepts_theta_matrix_wrapper(self):
        nf = antisymmetric_normal_form(ThetaMatrix.from_upper(2, [np.pi]))
        assert nf.residual < 1e-14


class TestGroupElements:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_random_block_membership(self, d):
        rng = np.random.default_rng(d)
        omega = SymplecticForm(d).matrix
        for _ in range(10):
            g = random_sp_block(d, rng)
            assert moyal._form_residuals(g, omega) <= moyal.MEMBERSHIP_TOL

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_random_block_stack_is_bitwise_sequential_calls(self, d):
        # one normal(size=(n, d, d)) draw is the stream of n normal(size=(d, d)) draws
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        got = random_sp_block(d, rng, 7)
        assert got.shape == (7, d, d)
        for member in got:
            assert np.array_equal(member, random_sp_block(d, ref))
        assert rng.normal() == ref.normal()

    def test_generator_normalisation_bounds_condition(self):
        # unit-norm symmetric generator caps cond(e^{Omega S / 2}) at e
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_sp_block(6, rng)
            assert np.linalg.cond(g) <= np.e + 1e-9

    def test_conjugate_identity(self):
        rng = np.random.default_rng(0)
        nf = antisymmetric_normal_form(random_antisymmetric(4, rng))
        out = sp_theta_conjugate(np.eye(4), nf.beta)
        np.testing.assert_allclose(out, np.eye(4), atol=1e-12)

    def test_conjugate_lands_in_theta_group(self):
        rng = np.random.default_rng(1)
        th = random_antisymmetric(4, rng)
        nf = antisymmetric_normal_form(th)
        for _ in range(5):
            g = random_sp_block(4, rng)
            h = sp_theta_conjugate(g, nf.beta, theta=th)
            assert np.abs(h.T @ th @ h - th).max() < 1e-9

    def test_scalar_beta_conjugation_is_trivial(self):
        # for theta = a*Omega the similarity is by a scalar, so g comes back
        a = 2.5
        nf = antisymmetric_normal_form(a * OMEGA2)
        g = random_sp_block(2, np.random.default_rng(3))
        out = sp_theta_conjugate(g, nf.beta, theta=a * OMEGA2)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_conjugate_stack_is_bitwise_its_members(self):
        rng = np.random.default_rng(2)
        th = np.array([random_antisymmetric(4, rng) for _ in range(5)])
        betas = antisymmetric_normal_form(th).beta
        g = random_sp_block(4, rng, 5)
        got = sp_theta_conjugate(g, betas, th)
        for member, gk, beta, tk in zip(got, g, betas, th):
            assert np.array_equal(member, sp_theta_conjugate(gk, beta, tk))
        # one beta and one theta broadcast against a stack of g
        got = sp_theta_conjugate(g, betas[0], th[0])
        for member, gk in zip(got, g):
            assert np.array_equal(member, sp_theta_conjugate(gk, betas[0], th[0]))

    def test_conjugate_stack_is_refused_whole(self):
        rng = np.random.default_rng(4)
        th = np.array([random_antisymmetric(4, rng) for _ in range(3)])
        betas = antisymmetric_normal_form(th).beta
        g = random_sp_block(4, rng, 3)
        sp_theta_conjugate(g, betas, th)
        bad = g.copy()
        bad[1] *= 1.001
        with pytest.raises(ValueError, match="block form"):
            sp_theta_conjugate(bad, betas, th)
        with pytest.raises(ValueError, match="theta-form"):
            sp_theta_conjugate(g, betas, th[[0, 2, 2]])
        bad_theta = th.copy()
        bad_theta[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sp_theta_conjugate(g, betas, bad_theta)
        bad_theta = th.copy()
        bad_theta[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="antisymmetric"):
            sp_theta_conjugate(g, betas, bad_theta)

    def test_rejects_non_symplectic_g(self):
        nf = antisymmetric_normal_form(OMEGA2)
        with pytest.raises(ValueError):
            sp_theta_conjugate(2.0 * np.eye(2), nf.beta)

    def test_rejects_mismatched_theta(self):
        rng = np.random.default_rng(5)
        th = random_antisymmetric(4, rng)
        other = random_antisymmetric(4, rng)
        nf = antisymmetric_normal_form(th)
        g = random_sp_block(4, rng)
        with pytest.raises(ValueError):
            sp_theta_conjugate(g, nf.beta, theta=other)

    def test_random_sp_theta_membership(self):
        rng = np.random.default_rng(9)
        th = random_antisymmetric(6, rng)
        for _ in range(5):
            g = random_sp_theta(th, rng)
            assert np.abs(g.T @ th @ g - th).max() < 1e-8


class TestInvarianceCheck:
    def test_block_form_plane(self):
        rep = sp_invariant_functional_check(OMEGA2, 3, quadrature_rule(2, 256), n_transforms=4, seed=1)
        assert rep.residuals.shape == (4, 10)  # ten monomials up to degree 3 in d=2
        assert rep.max_residual < 1e-9

    @pytest.mark.parametrize(
        "theta, degree, n",
        [(OMEGA2, 3, 256), (ThetaMatrix.from_upper(4, [np.pi / (2 + k) for k in range(6)]), 4, (12, 16))],
    )
    def test_stacked_transforms_equal_the_per_transform_loop(self, theta, degree, n):
        # the loop of one draw, conjugation, det and batch pass per transform is the oracle
        th = moyal._theta_entries(theta)
        rule = quadrature_rule(len(th), n)
        rep = sp_invariant_functional_check(theta, degree, rule, n_transforms=5, seed=3)
        rng = np.random.default_rng(3)
        beta = antisymmetric_normal_form(th).beta
        exact = _moments(rep.indices, len(th))
        for row in rep.residuals:
            g = sp_theta_conjugate(random_sp_block(len(th), rng), beta, th)
            want = np.abs(_monomial_integrals(rule, degree, g) - exact / np.linalg.det(g))
            assert row.tobytes() == want.tobytes()

    def test_rule_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sp_invariant_functional_check(OMEGA2, 2, quadrature_rule(3, (8, 16)))

    @pytest.mark.parametrize("n", [0, -2, 2.5, True])
    def test_refuses_a_count_that_is_not_a_positive_int_before_any_draw(self, n, monkeypatch):
        # n_transforms = 0 gave max_residual 0.0 over a (0, M) table: a pass that checked nothing
        def no_draw(*args):
            raise AssertionError("drew a transform")

        monkeypatch.setattr(moyal, "random_sp_block", no_draw)
        with pytest.raises(ValueError, match="n_transforms must be a positive int"):
            sp_invariant_functional_check(OMEGA2, 4, quadrature_rule(2, 16), n_transforms=n)

    def test_million_node_hopf_check_streams_its_nodes(self):
        # the 2^20 node array alone is 32 MB and its weights 8 MB; the Hopf
        # source forms each block from per-angle tables instead
        theta = ThetaMatrix.from_upper(4, [np.pi / (2 + k) for k in range(6)])
        tracemalloc.start()
        try:
            rule = quadrature_rule(4, n=(64, 128))
            rep = sp_invariant_functional_check(theta, 0, rule, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.size == 2**20
        assert rep.residuals.shape == (3, 1) and rep.max_residual < 1e-12
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestUniformGrid:
    def test_axis_is_centred(self):
        grid = UniformGrid(2, 8, 0.25)
        np.testing.assert_allclose(grid.axis, (np.arange(8) - 4) * 0.25)

    def test_mesh_shape(self):
        grid = UniformGrid(2, 6, 1.0)
        assert grid.mesh().shape == (6, 6, 2)

    def test_steps_of_aligned(self):
        grid = UniformGrid(2, 8, 0.5)
        np.testing.assert_array_equal(grid.steps_of((1.0, -1.5)), [2, -3])

    def test_steps_of_misaligned(self):
        grid = UniformGrid(2, 8, 0.5)
        with pytest.raises(ValueError):
            grid.steps_of((0.3, 0.0))

    def test_steps_of_wrong_shape(self):
        grid = UniformGrid(2, 8, 0.5)
        with pytest.raises(ValueError):
            grid.steps_of((1.0, 0.0, 0.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            UniformGrid(2, 3, 0.5)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            UniformGrid(2, 8, 0.0)


class TestGridUnitary:
    THETA = ThetaMatrix.from_upper(2, [np.pi])

    def test_zero_shift_is_identity(self):
        grid = UniformGrid(2, 8, 0.5)
        xi = np.random.default_rng(0).normal(size=(8, 8))
        out = grid_unitary_apply(grid, self.THETA, (0.0, 0.0), xi)
        np.testing.assert_allclose(out, xi, atol=1e-15)

    def test_shift_moves_support_and_multiplies_phase(self):
        grid = UniformGrid(2, 8, 1.0)
        xi = np.zeros((8, 8))
        xi[4, 4] = 1.0  # the point u = (0, 0)
        out = grid_unitary_apply(grid, self.THETA, (1.0, 0.0), xi)
        # mass lands at u = (1, 0), index (5, 4), scaled by e^{(i/2) <t, theta u>}
        u = np.array([1.0, 0.0])
        t = np.array([1.0, 0.0])
        expected = np.exp(0.5j * (t @ self.THETA.entries @ u))
        assert out[5, 4] == pytest.approx(expected, abs=1e-15)
        out[5, 4] = 0.0
        assert np.abs(out).max() == 0.0

    def test_shift_past_box_gives_zero(self):
        grid = UniformGrid(2, 8, 1.0)
        xi = np.ones((8, 8))
        out = grid_unitary_apply(grid, self.THETA, (9.0, 0.0), xi)
        assert np.abs(out).max() == 0.0

    def test_state_shape_mismatch(self):
        grid = UniformGrid(2, 8, 1.0)
        with pytest.raises(ValueError):
            grid_unitary_apply(grid, self.THETA, (1.0, 0.0), np.ones((8, 7)))


class TestCommutationPhase:
    THETA = ThetaMatrix.from_upper(2, [np.pi])

    def test_unit_shifts_give_phase_i(self):
        # <t, theta s> = pi for t = e1, s = e2, so the phase is e^{i pi/2}
        assert ccr_phase((1.0, 0.0), (0.0, 1.0), self.THETA) == pytest.approx(1j, abs=1e-15)

    def test_phase_antisymmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t = rng.normal(size=2)
            s = rng.normal(size=2)
            prod = ccr_phase(t, s, self.THETA) * ccr_phase(s, t, self.THETA)
            assert prod == pytest.approx(1.0, abs=1e-14)

    def test_equal_shifts_give_phase_one(self):
        assert ccr_phase((1.5, -2.0), (1.5, -2.0), self.THETA) == pytest.approx(1.0, abs=1e-15)

    def test_unit_shift_residual(self):
        grid = UniformGrid(2, 64, 0.5)
        assert ccr_phase_residual((1.0, 0.0), (0.0, 1.0), self.THETA, grid) < 1e-14

    def test_equal_shift_residual(self):
        grid = UniformGrid(2, 64, 0.5)
        assert ccr_phase_residual((1.5, -2.0), (1.5, -2.0), self.THETA, grid) < 1e-14

    def test_random_aligned_residual(self):
        grid = UniformGrid(2, 64, 0.5)
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = 0.5 * rng.integers(-4, 5, size=2).astype(float)
            s = 0.5 * rng.integers(-4, 5, size=2).astype(float)
            assert ccr_phase_residual(t, s, self.THETA, grid) < 1e-13

    def test_misaligned_shift_rejected(self):
        grid = UniformGrid(2, 64, 0.5)
        with pytest.raises(ValueError):
            ccr_phase_residual((0.3, 0.0), (0.0, 0.5), self.THETA, grid)

    def test_no_interior_window_rejected(self):
        grid = UniformGrid(2, 8, 1.0)
        with pytest.raises(ValueError):
            ccr_phase_residual((6.0, 0.0), (6.0, 0.0), self.THETA, grid)


def test_one_theta_functions_refuse_a_stack():
    # a (2, 2, 2) stack has the shapes a grid of d = 2 would broadcast against
    stack = np.stack([OMEGA2, 2.0 * OMEGA2])
    with pytest.raises(ValueError, match="one theta"):
        ccr_phase((1.0, 0.0), (0.0, 1.0), stack)
    with pytest.raises(ValueError, match="does not match the grid"):
        grid_unitary_apply(UniformGrid(2, 8, 1.0), stack, (1.0, 0.0), np.ones((8, 8)))
    with pytest.raises(ValueError, match="does not match the quadrature rule"):
        sp_invariant_functional_check(stack, 2, quadrature_rule(2, 16), n_transforms=2)
    with pytest.raises(ValueError, match="does not match the grid"):
        grid_unitary_apply(UniformGrid(2, 8, 1.0), SymplecticForm(4).matrix, (1.0, 0.0), np.ones((8, 8)))


class TestMultiplierIdentity:
    def test_identity_transform(self):
        assert multiplier_identity_residual(np.eye(2), SpherePoly.coordinate(2, 1)) < 1e-15

    def test_diagonal_stretch(self):
        r = multiplier_identity_residual(np.diag([2.0, 1.0]), SpherePoly.coordinate(2, 1))
        assert r < 1e-14

    def test_random_symplectic_d4(self):
        g = random_sp_block(4, np.random.default_rng(8))
        b = SpherePoly(4, {(1, 1, 0, 0): 1.0})
        assert multiplier_identity_residual(g, b) < 1e-13

    def test_singular_g_rejected(self):
        with pytest.raises(ValueError):
            multiplier_identity_residual(np.diag([1.0, 0.0]), SpherePoly.coordinate(2, 1))

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_small_multiples_accepted(self, s):
        # det(s * g) = s^4 in d = 4; the refusal reads the singular-value ratio, which scaling keeps
        g = s * random_sp_block(4, np.random.default_rng(8))
        assert multiplier_identity_residual(g, SpherePoly(4, {(1, 1, 0, 0): 1.0})) < 1e-13

    def test_rank_deficient_g_rejected(self):
        q = np.linalg.qr(np.random.default_rng(6).normal(size=(4, 4)))[0]
        b = SpherePoly(4, {(1, 1, 0, 0): 1.0})
        for g in (q @ np.diag([1.0, 1.0, 1.0, 0.0]), 1e-6 * np.diag([1.0, 1.0, 1.0, 1e-13]), np.zeros((4, 4))):
            with pytest.raises(ValueError, match="singular"):
                multiplier_identity_residual(g, b)
        with pytest.raises(ValueError, match="finite"):
            multiplier_identity_residual(np.diag([1.0, 1.0, 1.0, np.nan]), b)


def _cell_sums_per_radius(g, cell_radii):
    """The per-radius loop that walked each ball from the origin, kept as the oracle of the one-walk cell sums."""
    d = g.shape[0]
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
    offsets = np.vstack([corners, np.full((1, d), 0.5)])
    cell_sums = []
    for R in cell_radii:
        total = 0.0
        for chunk in iter_shell(d, -1, int(R) * int(R)):
            flat = (chunk[:, None, :].astype(float) + offsets[None, :, :]).reshape(-1, d)
            norms = np.linalg.norm(flat, axis=1)
            vals = np.zeros(len(flat))
            ok = norms > 1e-9
            vals[ok] = np.abs(moyal._h_weight(g, flat[ok], d))
            total += float(np.sum(vals.reshape(len(chunk), -1).max(axis=1)))
        cell_sums.append(total)
    return cell_sums


class TestDecayProfiles:
    def test_identity_transform_profile_is_zero(self):
        prof = h_decay_profile(np.eye(2), [10.0, 100.0])
        assert prof.sups == (0.0, 0.0)

    def test_stretch_profile_is_bounded(self):
        prof = h_decay_profile(np.diag([2.0, 0.5]), [10.0, 50.0, 250.0, 1000.0])
        assert prof.bounded_ratio() <= 1.05
        # the last two shells agree to well under the 20% slack
        assert abs(prof.sups[-1] / prof.sups[-2] - 1.0) < 0.2

    def test_cell_sums_stabilise(self):
        prof = h_decay_profile(np.diag([2.0, 0.5]), [10.0, 50.0, 250.0, 1000.0], cell_radii=(200, 400))
        sums = prof.cell_sums
        assert sums[1] >= sums[0]  # partial sums of a nonnegative series
        assert abs(sums[1] / sums[0] - 1.0) < 0.01

    def test_cell_sums_walk_once_in_chunks(self, monkeypatch):
        g = np.diag([2.0, 0.5])
        tracemalloc.start()
        try:
            sums = h_decay_profile(g, [10.0], cell_radii=(150, 300)).cell_sums
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of the 300-ball held all its 283k cells x 5 sample points: 172 MB
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
        oracle = _cell_sums_per_radius(g, (150, 300))
        np.testing.assert_allclose(sums, oracle, rtol=1e-12, atol=0)
        monkeypatch.setattr(_lattice, "CHUNK", 1 << 6)
        np.testing.assert_allclose(h_decay_profile(g, [10.0], cell_radii=(150, 300)).cell_sums, sums, rtol=1e-12)
        for radii in ((300, 150), (150, 150), (150, 300, 300), (-1, 2)):
            with pytest.raises(ValueError, match="strictly increasing"):
                h_decay_profile(g, [10.0], cell_radii=radii)
        assert h_decay_profile(g, [10.0], cell_radii=()).cell_sums == ()

    def test_bounded_ratio_needs_four_radii(self):
        with pytest.raises(ValueError):
            h_decay_profile(np.diag([2.0, 0.5]), [10.0, 100.0]).bounded_ratio()

    def test_singular_g_rejected(self):
        with pytest.raises(ValueError):
            h_decay_profile(np.diag([1.0, 0.0]), [10.0])

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_small_multiples_accepted(self, s):
        prof = h_decay_profile(s * np.diag([2.0, 0.5]), [10.0, 50.0])
        assert all(np.isfinite(prof.sups))

    def test_rank_deficient_g_rejected(self):
        q = np.linalg.qr(np.random.default_rng(7).normal(size=(2, 2)))[0]
        for g in (q @ np.diag([1.0, 0.0]), 1e-6 * np.diag([1.0, 1e-13]), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="singular"):
                h_decay_profile(g, [10.0])


class TestRieszDifference:
    def test_axis_value_matches_closed_form(self):
        # on the k-th axis: |t|^2 (1 - R / sqrt(1 + R^2)), increasing to 1/2,
        # and the shell [R, 2R] attains its sup at the axis point of radius 2R
        prof = riesz_difference_decay(1, 2, [10.0, 50.0, 250.0, 1000.0])
        closed = lambda R: R * R * (1.0 - R / np.sqrt(1.0 + R * R))
        assert prof.sups[-1] == pytest.approx(closed(2000.0), abs=1e-12)
        assert prof.sups[-1] == pytest.approx(0.5, abs=1e-4)

    def test_profile_below_half_and_bounded(self):
        prof = riesz_difference_decay(2, 3, [10.0, 50.0, 250.0, 1000.0])
        assert max(prof.sups) <= 0.5 + 1e-9
        assert prof.bounded_ratio() <= 1.05

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            riesz_difference_decay(3, 2, [10.0])

    def test_one_sup_per_radius(self):
        prof = riesz_difference_decay(1, 2, [10.0, 20.0])
        assert prof.radii == (10.0, 20.0)
        assert len(prof.sups) == 2

    def test_oversized_shell_refused_before_sampling(self, monkeypatch):
        # 12000 directions x 17 radii x 5000 coordinates would be a 7.6 GiB point array
        def no_sampling(*args):
            raise AssertionError("sampled directions before refusing")

        monkeypatch.setattr(moyal, "_probe_directions", no_sampling)
        with pytest.raises(ValueError, match="d=5000 need 7.6 GiB"):
            riesz_difference_decay(1, 5000, [10.0])
