import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from nctrace import su2
from nctrace.sphere import random_unit_vectors
from nctrace.su2 import (
    PAULI_TRIPLE,
    GenPoly,
    HalfInteger,
    beta_formula_residual,
    block_commutator_norm,
    block_conditional_expectation,
    block_trace,
    build_block,
    conjugation_covariance_check,
    exp_i_hermitian,
    su2_dixmier_ratio,
    su2_symbol,
    su2_to_so3,
)


def evaluate_on_block(w, block):
    """The dense matrix of the word polynomial w on a spin block: the oracle of the band path."""
    out = np.zeros((block.dim, block.dim), dtype=complex)
    for word, c in sorted(w.coeffs.items()):
        m = np.eye(block.dim, dtype=complex)
        for k in word:
            m = m @ block.unit_gens[k - 1]
        out += c * m
    return out


def random_su2(rng):
    return expm(1j * np.tensordot(rng.normal(size=3), PAULI_TRIPLE, axes=(0, 0)))


def test_half_integer_arithmetic():
    l = HalfInteger(7)
    assert l.value == 3.5
    assert l.dim == 8
    assert l.l_squared() == 7 * 9 / 4
    with pytest.raises(ValueError):
        HalfInteger(-1)


def test_block_spin_half_commutator():
    assert block_commutator_norm(build_block(HalfInteger(1)), 1, 2) == pytest.approx(2 / 3, abs=1e-14)


def test_block_commutator_closed_form_and_decay():
    values = [block_commutator_norm(build_block(l), 1, 2) for l in (1, 2, 5, 100)]
    for got, l in zip(values, (1, 2, 5, 100)):
        assert got == pytest.approx(1 / (l + 1), abs=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert block_commutator_norm(build_block(3), 2, 2) == 0.0


def test_block_invariants_along_spins():
    for twice in (1, 2, 5, 40, 400):
        block = build_block(HalfInteger(twice))
        d1, d2, d3 = block.gens
        assert np.abs(d1 @ d2 - d2 @ d1 - 2j * d3).max() < 1e-12 * max(1.0, twice)
        assert np.abs(d2 @ d3 - d3 @ d2 - 2j * d1).max() < 1e-12 * max(1.0, twice)
        b = block.unit_gens
        assert np.abs(b[0] @ b[0] + b[1] @ b[1] + b[2] @ b[2] - np.eye(block.dim)).max() < 1e-13


def test_first_generator_spectrum():
    block = build_block(10)
    eigs = np.sort(np.diag(block.gens[0]).real)
    np.testing.assert_allclose(eigs, np.arange(-20, 21, 2), atol=1e-13)
    top = np.abs(np.diag(block.unit_gens[0])).max()
    assert top == pytest.approx(10 / np.sqrt(110), abs=1e-13)


def _assert_matches_expm(h, s):
    got = exp_i_hermitian(h, s)
    assert np.abs(got - expm(1j * s * h)).max() < 1e-12
    assert np.abs(got.conj().T @ got - np.eye(len(h))).max() < 1e-13


@pytest.mark.parametrize("s", [0.3, 1.1, -2.0])
def test_exp_i_hermitian_matches_expm_on_pauli_combinations(s):
    rng = np.random.default_rng(41)
    for _ in range(50):
        _assert_matches_expm(np.tensordot(rng.normal(size=3), PAULI_TRIPLE, axes=(0, 0)), s)


@pytest.mark.parametrize("twice", [1, 2, 4, 7, 20, 40])
@pytest.mark.parametrize("s", [0.3, 1.1, -2.0])
def test_exp_i_hermitian_matches_expm_on_block_generators(twice, s):
    for gen in build_block(HalfInteger(twice)).gens:
        _assert_matches_expm(gen, s)


def test_exp_i_hermitian_refuses_bad_input():
    with pytest.raises(ValueError, match="not finite"):
        exp_i_hermitian(PAULI_TRIPLE[0], float("nan"))
    with pytest.raises(ValueError, match="not finite"):
        exp_i_hermitian(np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        exp_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError, match="square"):
        exp_i_hermitian(np.zeros((2, 3)), 1.0)


def test_so3_image_of_identity():
    np.testing.assert_allclose(su2_to_so3(np.eye(2)), np.eye(3), atol=1e-14)


def test_so3_image_of_first_axis_rotation():
    t = 0.37
    got = su2_to_so3(expm(1j * t * PAULI_TRIPLE[0]))
    want = np.array(
        [
            [1, 0, 0],
            [0, np.cos(2 * t), np.sin(2 * t)],
            [0, -np.sin(2 * t), np.cos(2 * t)],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_so3_composition_orientation():
    # the covering map composes contravariantly with this entry convention
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        g, h = random_su2(rng), random_su2(rng)
        worst = max(worst, np.abs(su2_to_so3(g @ h) - su2_to_so3(h) @ su2_to_so3(g)).max())
    assert worst < 1e-11


def test_so3_rejects_non_unitary():
    with pytest.raises(ValueError):
        su2_to_so3(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_so3_rejects_non_finite_matrix():
    # NaN fails every comparison, so the unitarity and determinant checks alone let it through
    with pytest.raises(ValueError, match="not finite"):
        su2_to_so3(np.full((2, 2), np.nan))


def test_so3_matrices_are_orthogonal():
    rng = np.random.default_rng(21)
    for _ in range(20):
        r = su2_to_so3(random_su2(rng))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-10
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("l,j,s,bound", [(2, 1, 0.3, 1e-10), (HalfInteger(7), 3, 1.1, 1e-9), (1, 2, 0.0, 1e-14)])
def test_conjugation_covariance(l, j, s, bound):
    assert conjugation_covariance_check(build_block(l), j, s) < bound


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_conjugation_covariance_refuses_non_finite_angle(s):
    with pytest.raises(ValueError, match="not finite"):
        conjugation_covariance_check(build_block(2), 1, s)


def test_pinching_properties():
    rng = np.random.default_rng(33)
    block = build_block(6)
    m = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
    em = block_conditional_expectation(block, m)
    assert np.abs(block_conditional_expectation(block, em) - em).max() < 1e-14
    assert np.linalg.norm(em, 2) <= np.linalg.norm(m, 2) + 1e-12
    assert np.trace(em) == pytest.approx(np.trace(m), abs=1e-12)
    diag = np.diag(rng.normal(size=13))
    assert np.abs(block_conditional_expectation(block, diag) - diag).max() == 0.0
    b1 = block.unit_gens[0]
    lhs = block_conditional_expectation(block, b1 @ m)
    assert np.abs(lhs - b1 @ em).max() < 1e-13


def test_pinching_dimension_check():
    with pytest.raises(ValueError):
        block_conditional_expectation(build_block(2), np.eye(3))


def test_word_parse_and_symbol():
    w = GenPoly.parse("b1b2b2")
    sym = su2_symbol(w)
    assert sym.coeffs == {(1, 2, 0): 1.0 + 0j}
    assert su2_symbol(GenPoly.parse("1")).coeffs == {(0, 0, 0): 1.0 + 0j}


def test_symbol_of_casimir_word():
    w = GenPoly.word((1, 1)) + GenPoly.word((2, 2)) + GenPoly.word((3, 3))
    one = su2_symbol(GenPoly.one())
    pts = random_unit_vectors(400, 3, np.random.default_rng(0))
    assert np.abs((su2_symbol(w) - one).evaluate(pts)).max() < 1e-14


def test_symbol_kills_commutators():
    w = GenPoly.word((1, 2)) + GenPoly.word((2, 1), coeff=-1.0)
    assert not su2_symbol(w).coeffs


def test_block_evaluation_matches_direct_product():
    block = build_block(3)
    b = block.unit_gens
    w = GenPoly.word((1, 2, 2), coeff=2.0) + GenPoly.word((3,), coeff=-0.5)
    direct = 2.0 * b[0] @ b[1] @ b[1] - 0.5 * b[2]
    assert np.abs(evaluate_on_block(w, block) - direct).max() < 1e-14
    assert block_trace(w, block.l) == pytest.approx(np.trace(direct), abs=1e-12)


WORDS_UP_TO_4 = [w for k in range(5) for w in itertools.product((1, 2, 3), repeat=k)]


def dense_word(block, word):
    """The slow path: the dense product of unit generators along word."""
    m = np.eye(block.dim, dtype=complex)
    for k in word:
        m = m @ block.unit_gens[k - 1]
    return m


def test_band_trace_matches_dense_product():
    assert len(WORDS_UP_TO_4) == 121
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=121) + 1j * rng.normal(size=121)
    for twice in list(range(1, 13)) + [40, 101]:
        block = build_block(HalfInteger(twice))
        dense = [np.trace(dense_word(block, word)) for word in WORDS_UP_TO_4]
        for word, c, want in zip(WORDS_UP_TO_4, coeffs, dense):
            got = block_trace(GenPoly.word(word, c), block.l)
            assert abs(got - c * want) <= 1e-13 * max(1.0, abs(c * want)), (twice, word)
        whole = GenPoly(dict(zip(WORDS_UP_TO_4, coeffs)))
        want = np.dot(coeffs, dense)
        assert abs(block_trace(whole, block.l) - want) <= 1e-13 * max(1.0, abs(want))


def test_band_trace_of_odd_off_diagonal_word_is_zero():
    for twice in (1, 2, 7, 40):
        for word in WORDS_UP_TO_4:
            if sum(k != 1 for k in word) % 2:
                assert block_trace(GenPoly.word(word), HalfInteger(twice)) == 0.0


def test_band_diagonal_matches_dense_pinching():
    spins = (HalfInteger(1), 3, 20)
    blocks = [build_block(l) for l in spins]
    flat_starts, flat_gens = su2._unit_bands(spins, (1, 2, 3))
    width = max(block.dim for block in blocks)
    for n1, n2, n3 in itertools.product(range(7), repeat=3):
        if n1 + n2 + n3 > 6:
            continue
        word = (1,) * n1 + (2,) * n2 + (3,) * n3
        flat = su2._word_bands(word, flat_gens, width)
        for l, block, start in zip(spins, blocks, flat_starts):
            starts, gens = su2._unit_bands([l], (1, 2, 3))
            assert list(starts) == [0]
            bands = su2._word_bands(word, gens, block.dim)
            band0 = bands.get(0, np.zeros(block.dim))
            dense = np.diag(evaluate_on_block(GenPoly.word(word), block))
            assert np.abs(band0 - dense).max() < 1e-14, (l, word)
            # the same band, laid out beside the other blocks
            flat0 = flat.get(0, np.zeros(len(flat_gens[0][0])))[start : start + block.dim]
            assert np.abs(flat0 - dense).max() < 1e-14, (l, word)


def test_spin_traces_build_no_dense_block(monkeypatch):
    def refuse(l):
        raise AssertionError("dense block built")

    monkeypatch.setattr(su2, "build_block", refuse)
    est, ref = su2_dixmier_ratio(GenPoly.parse("b1b1b2b2"), 16)
    assert abs(est - ref) < 0.01
    # build_block refuses, so l = 2000 runs without its dense 4001 x 4001 block
    assert beta_formula_residual(2000, 0, 4, 0) < beta_formula_residual(200, 0, 4, 0)


def test_beta_exact_cases_every_spin():
    for twice in (1, 3, 8, 40, 200):
        l = HalfInteger(twice)
        assert beta_formula_residual(l, 0, 2, 0) < 1e-13
        assert beta_formula_residual(l, 0, 1, 1) < 1e-13
        assert beta_formula_residual(l, 1, 1, 2) < 1e-13


def test_beta_quartic_case_decreases():
    r100 = beta_formula_residual(100, 0, 4, 0)
    r200 = beta_formula_residual(200, 0, 4, 0)
    assert r200 < r100 < 0.05


def test_ratio_exact_for_quadratic_word():
    est, ref = su2_dixmier_ratio(GenPoly.word((1, 1)), 40)
    assert ref == pytest.approx(1 / 3, abs=1e-15)
    assert est == pytest.approx(1 / 3, abs=1e-12)


def test_ratio_identity_word():
    est, ref = su2_dixmier_ratio(GenPoly.one(), 24)
    assert ref == pytest.approx(1.0, abs=1e-12)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_ratio_cross_term_vanishes():
    est, ref = su2_dixmier_ratio(GenPoly.word((1, 2)), 40)
    assert ref == 0.0
    assert abs(est) < 1e-14


def test_quotient_lags_the_slope():
    # single-point quotient carries the O(1/log L) intercept error
    word = GenPoly.word((3, 3, 3, 3))
    est, ref = su2_dixmier_ratio(word, 100)
    (num,), (den,) = su2._ratio_partial_sums(word, [200])
    quot = num / den
    assert abs(est - ref) < abs(quot - ref)


def test_b1b1_quotient_is_a_third_at_every_spin():
    nums, dens = su2._ratio_partial_sums(GenPoly.word((1, 1)), list(range(1, 17)))
    for num, den in zip(nums, dens):
        assert num / den == pytest.approx(1 / 3, abs=1e-12)


# The per-block band path that the flat multi-block pass replaced, kept as its oracle:
# one spin at a time, one dict of dim-long bands per block.


def per_block_bands(half):
    m = (np.arange(half.dim) - half.value).astype(float)
    ll = half.l_squared()
    scale = np.sqrt(4.0 * ll)
    up = np.zeros(half.dim)
    up[:-1] = np.sqrt(ll - m[:-1] * (m[:-1] + 1.0)) / scale
    down = np.roll(up, 1)
    return ({0: (2.0 * m / scale).astype(complex)}, {1: up + 0j, -1: down + 0j}, {1: -1j * up, -1: 1j * down})


def per_block_window(a, dim):
    return (slice(0, dim - a), slice(a, dim)) if a >= 0 else (slice(-a, dim), slice(0, dim + a))


def per_block_mul(left, right, dim):
    out = {}
    for a, u in left.items():
        for b, v in right.items():
            if abs(a + b) >= dim:
                continue
            cols, rows = per_block_window(b, dim)
            out.setdefault(a + b, np.zeros(dim, dtype=complex))[cols] += u[rows] * v[cols]
    return out


def per_block_word(word, gens, dim):
    out = {0: np.ones(dim, dtype=complex)}
    for k in word:
        out = per_block_mul(out, gens[k - 1], dim)
    return out


def per_block_trace(w, half):
    gens = per_block_bands(half)
    total = 0j
    for word, c in sorted(w.coeffs.items()):
        cut = len(word) // 2
        left, right = per_block_word(word[:cut], gens, half.dim), per_block_word(word[cut:], gens, half.dim)
        for a in sorted(left):
            if -a in right:
                cols, rows = per_block_window(a, half.dim)
                total += c * np.dot(left[a][cols], right[-a][rows])
    return complex(total)


def per_spin_partial_sums(w, twice_grid):
    """The per-spin loop of _ratio_partial_sums: one block trace per spin, summed in spin order."""
    nums, dens = [], []
    num, den = 0j, 0.0
    for twice in range(1, twice_grid[-1] + 1):
        half = HalfInteger(twice)
        weight = (1.0 + half.l_squared()) ** -1.5
        num += half.dim * per_block_trace(w, half) * weight
        den += half.dim**2 * weight
        if twice in twice_grid:
            nums.append(num)
            dens.append(den)
    return nums, dens


ORACLE_WORDS = {
    "b1b1": GenPoly.parse("b1b1"),
    "b3b3b3b3": GenPoly.parse("b3b3b3b3"),
    "b1b1b2b2": GenPoly.parse("b1b1b2b2"),
    "b1b2b3": GenPoly.parse("b1b2b3"),
    "sum": GenPoly.word((1, 1), 0.5) + GenPoly.word((2, 3, 2, 3), -2.0 + 1j) + GenPoly.word((3,), 3.0) + GenPoly.one(),
}


def _close(got, want):
    return np.all(np.abs(np.asarray(got) - np.asarray(want)) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", sorted(ORACLE_WORDS))
def test_flat_traces_match_the_per_block_oracle(name):
    w = ORACLE_WORDS[name]
    spins = [HalfInteger(twice) for twice in range(1, 81)]  # l = 1/2 ... 40
    want = [per_block_trace(w, half) for half in spins]
    got = block_trace(w, spins)
    assert got.shape == (80,) and got.dtype == complex
    assert _close(got, want), name
    # any run of the same blocks gives the same traces
    assert _close(block_trace(w, spins[37:41]), want[37:41])
    assert _close(block_trace(w, spins[::-1]), want[::-1])


LETTER_WORDS = {**ORACLE_WORDS, "1": GenPoly.one(), "b2": GenPoly.parse("b2"), "b3b3": GenPoly.parse("b3b3")}


def _every_letter(monkeypatch):
    """Make every _unit_bands call build all three generators: the oracle of the letter-only build."""
    build = su2._unit_bands
    monkeypatch.setattr(su2, "_unit_bands", lambda spins, letters: build(spins, (1, 2, 3)))


@pytest.mark.parametrize("name", sorted(LETTER_WORDS))
def test_letter_only_bands_trace_bitwise_as_every_letter(monkeypatch, name):
    w = LETTER_WORDS[name]
    spins = [HalfInteger(twice) for twice in range(1, 81)]
    used = {k for word in w.coeffs for k in word}
    assert set(su2._unit_bands(spins, used)[1]) == {0} | used
    got, ratio = block_trace(w, spins), su2_dixmier_ratio(w, 40)
    _every_letter(monkeypatch)
    assert got.tobytes() == block_trace(w, spins).tobytes(), name
    assert np.array(ratio).tobytes() == np.array(su2_dixmier_ratio(w, 40)).tobytes(), name


def test_letter_only_beta_residual_is_bitwise_every_letter(monkeypatch):
    # the residual reads b1's diagonal whatever letters the word has
    exponents = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 6]
    got = [beta_formula_residual(l, *e) for l in (HalfInteger(1), 3, 20) for e in exponents]
    _every_letter(monkeypatch)
    assert got == [beta_formula_residual(l, *e) for l in (HalfInteger(1), 3, 20) for e in exponents]


@pytest.mark.parametrize("chunk", [1, 7, 50, 1 << 12])
@pytest.mark.parametrize("name", sorted(ORACLE_WORDS))
def test_chunked_partial_sums_match_the_per_spin_loop(monkeypatch, name, chunk):
    monkeypatch.setattr(su2, "SPIN_CHUNK", chunk)
    w = ORACLE_WORDS[name]
    grid = [10, 20, 40, 80]
    nums, dens = su2._ratio_partial_sums(w, grid)
    want_nums, want_dens = per_spin_partial_sums(w, grid)
    assert _close(nums, want_nums), (name, chunk)
    assert _close(dens, want_dens), (name, chunk)


@pytest.mark.parametrize("chunk", [1, 7, 50, 300, 1 << 12])
def test_spin_chunks_cover_every_spin_once_within_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(su2, "SPIN_CHUNK", chunk)
    twice = np.arange(1, 401)
    chunks = su2._spin_chunks(twice)
    assert np.array_equal(np.concatenate(chunks), twice)
    for run in chunks:
        assert len(run) == 1 or int(np.sum(run + 1)) <= chunk
    # each run is as long as the chunk allows
    for run, nxt in zip(chunks, chunks[1:]):
        assert int(np.sum(run + 1)) + int(nxt[0]) + 1 > chunk
    if chunk == 50:
        assert max(len(run) for run in chunks) > 1  # chunks split between many spins


def test_block_trace_shapes_and_spin_types():
    w = GenPoly.parse("b1b1b2b2")
    one = block_trace(w, 3)
    assert isinstance(one, complex)
    assert block_trace(w, np.int64(3)) == one
    assert block_trace(w, HalfInteger(np.int64(6))) == one
    assert HalfInteger(np.int64(6)) == HalfInteger(6) and type(HalfInteger(np.int64(6)).twice_value) is int
    many = block_trace(w, np.arange(1, 4))
    assert many.shape == (3,) and many[2] == one
    for bad in (True, np.bool_(True), 1.5, "3"):
        with pytest.raises(TypeError):
            block_trace(w, bad)
    with pytest.raises(ValueError):
        HalfInteger(True)
    with pytest.raises(ValueError):
        block_trace(w, [])


def test_spin_budget_refuses_before_any_block(monkeypatch):
    def refuse(spins):
        raise AssertionError("bands laid out")

    w = GenPoly.parse("b1b1")
    largest = 2895  # L(2L+3) <= SPIN_BUDGET
    assert largest * (2 * largest + 3) <= su2.SPIN_BUDGET < (largest + 1) * (2 * largest + 5)
    assert beta_formula_residual(largest, 0, 4, 0) < 0.05
    monkeypatch.setattr(su2, "_unit_bands", refuse)
    for L in (largest + 1, 10**9):
        with pytest.raises(ValueError, match="budget"):
            su2_dixmier_ratio(w, L)
        with pytest.raises(ValueError, match="budget"):
            beta_formula_residual(L, 0, 4, 0)


def _random_su2_stack(rng, n):
    return expm(1j * np.tensordot(rng.normal(size=(n, 3)), PAULI_TRIPLE, axes=(-1, 0)))


def test_stacked_covering_map_is_bitwise_the_per_matrix_map():
    rng = np.random.default_rng(23)
    g = _random_su2_stack(rng, 500)
    stacked = su2_to_so3(g)
    assert stacked.shape == (500, 3, 3)
    assert all(np.array_equal(stacked[i], su2_to_so3(g[i])) for i in range(500))
    nested = su2_to_so3(g.reshape(5, 100, 2, 2))
    assert nested.shape == (5, 100, 3, 3) and np.array_equal(nested.reshape(500, 3, 3), stacked)


@pytest.mark.parametrize("s", [0.3, 1.0, -2.0])
def test_stacked_exp_is_bitwise_the_per_matrix_exp(s):
    rng = np.random.default_rng(29)
    h = np.tensordot(rng.normal(size=(100, 2, 3)), PAULI_TRIPLE, axes=(-1, 0))
    stacked = exp_i_hermitian(h, s)
    assert stacked.shape == (100, 2, 2, 2)
    assert all(np.array_equal(stacked[i, j], exp_i_hermitian(h[i, j], s)) for i in range(100) for j in range(2))
    gen = build_block(HalfInteger(7)).gens
    assert all(np.array_equal(e, exp_i_hermitian(m, s)) for e, m in zip(exp_i_hermitian(gen, s), gen))


def test_stacks_with_one_bad_member_are_refused():
    rng = np.random.default_rng(31)
    g = _random_su2_stack(rng, 20)
    h = np.tensordot(rng.normal(size=(20, 3)), PAULI_TRIPLE, axes=(-1, 0))
    bad = g.copy()
    bad[13] = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not unitary"):
        su2_to_so3(bad)
    bad = g.copy()
    bad[4] = 1j * np.eye(2)  # unitary, determinant -1
    with pytest.raises(ValueError, match="determinant"):
        su2_to_so3(bad)
    bad = g.copy()
    bad[19, 1, 0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        su2_to_so3(bad)
    with pytest.raises(ValueError, match="2x2"):
        su2_to_so3(np.zeros((4, 3, 3)))
    bad = h.copy()
    bad[7, 0, 1] += 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        exp_i_hermitian(bad, 1.0)
    bad = h.copy()
    bad[0, 1, 1] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        exp_i_hermitian(bad, 1.0)
    with pytest.raises(ValueError, match="square"):
        exp_i_hermitian(np.zeros((3, 2, 3)), 1.0)
