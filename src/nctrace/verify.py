"""Batch verification CLI.

Runs one named check suite against the library, collects (name, measured,
reference, tolerance, pass) records, prints them, and optionally writes a JSON
or CSV report. A record passes when |measured - reference| <= tolerance.
Given the same config and seed, every measured value reproduces exactly; wall
time is the only field outside the determinism contract.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 config error
(including a tolerance override naming no record of the run), 3 report I/O
error, 4 internal error (an unexpected exception while running the suite).

A `--config` file's `key = value` lines are read as the flags `--key=value`; flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import dixmier as dx, moyal, su2, symbols as sy
from .sphere import (
    SpherePoly,
    _moments,
    _monomial_integrals,
    _multi_indices,
    moment_recursion_check,
    quadrature_rule,
    sphere_integrate,
    sphere_moment,
    sphere_volume,
)
from .torus import ThetaMatrix, torus_identity, torus_trace, twist_phase, unitary_generator

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_INTERNAL_ERROR = 4

class ConfigError(Exception):
    pass


@dataclass
class VerifyConfig:
    suite: str
    d: int = 2
    theta_upper: tuple | None = None
    nmax: int = 4096
    lmax: int = 200
    max_degree: int = 10
    word: str = "b3b3b3b3"
    seed: int = 0
    out: str | None = None
    format: str = "json"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.d < 2:
            raise ConfigError("d must be >= 2")
        if self.max_degree < 0:
            raise ConfigError(f"max_degree must be >= 0, got {self.max_degree}")
        if self.format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        for name, tol in self.tolerances.items():
            if not 0 < tol < np.inf:
                raise ConfigError(f"tolerance for {name} must be positive and finite, got {tol}")

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "d": self.d,
            "theta": None if self.theta_upper is None else list(self.theta_upper),
            "nmax": self.nmax,
            "lmax": self.lmax,
            "max_degree": self.max_degree,
            "word": self.word,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


@dataclass
class VerifyReport:
    suite: str
    records: list
    wall_time_s: float
    config: dict

    @property
    def overall_pass(self) -> bool:
        return all(r["pass"] for r in self.records)


def _theta_of(config: VerifyConfig):
    if config.theta_upper is not None:
        return ThetaMatrix.from_upper(config.d, config.theta_upper)
    count = config.d * (config.d - 1) // 2
    return ThetaMatrix.from_upper(config.d, [np.pi / (2.0 + k) for k in range(count)])


def _record(name: str, measured, reference, tol: float) -> dict:
    """One check with its default tolerance; run_suite applies overrides and decides pass."""
    return {"name": name, "measured": float(measured), "reference": float(reference), "tolerance": float(tol)}


# ---------------------------------------------------------------------------
# suites


def _suite_torus_trace(cfg: VerifyConfig) -> list:
    # the t1^2 and odd-slope fits run on the doubling grid at nmax // 4, which needs 32; from d=3 on the
    # t1^2 fit on radii 2..32 misses its 5% tolerance (1.3164 against 1.3963 at d=3, 1.1496 against 1.2337
    # at d=4), and at d=3 it still misses on radii 2..46 (nmax 184) but passes on radii 3..48 (nmax 192)
    floor = 128 if cfg.d == 2 else 192 if cfg.d == 3 else 256
    if cfg.nmax < floor:
        raise ConfigError(f"torus-trace at d={cfg.d} needs --nmax >= {floor}, got {cfg.nmax}")
    d = cfg.d
    theta = _theta_of(cfg)
    e = tuple([1, 1] + [0] * (d - 2))
    x = (
        torus_identity(theta)
        + 0.5 * unitary_generator(theta, e)
        + 0.5 * unitary_generator(theta, tuple(-v for v in e))
    )
    y = SpherePoly.monomial(d, (0, 2))
    quarter = dx.doubling_grid(cfg.nmax // 4)
    # one walk of the union of the four grids; the odd symbol's fit only counts
    constant, t1sq, odd, mixed = dx.log_fits(
        [
            (dx.LatticeDiagonal.symbol_weighted(SpherePoly.constant(d, 1.0)), dx.doubling_grid(cfg.nmax)),
            (dx.LatticeDiagonal.symbol_weighted(SpherePoly.monomial(d, (2,))), quarter),
            (dx.LatticeDiagonal.symbol_weighted(SpherePoly.coordinate(d, 1)), quarter),
            (dx.model_diagonal(x, y), dx.doubling_grid(min(cfg.nmax, 1024))),
        ]
    )
    vol = sphere_volume(d)
    records = [
        _record("slope_constant", abs(constant.slope), vol, 0.02 * vol),
        _record("estimate_constant", abs(constant.estimate), vol / d, 0.03 * vol / d),
    ]
    ref = sphere_moment((2,), d) / d
    records.append(_record("estimate_t1_squared", abs(t1sq.estimate), ref, 0.05 * ref))
    records.append(_record("slope_odd", abs(odd.slope), 0.0, 1e-10))

    drift = abs(dx.radial_integral_check(d, cfg.nmax) - dx.radial_integral_check(d, cfg.nmax // 4))
    records.append(_record("radial_integral_drift", drift, 0.0, 1e-3))

    reference = torus_trace(x) * sphere_integrate(y) / d
    err = abs(complex(mixed.estimate) - reference)
    records.append(_record("connes_trace_mixed", err, 0.0, 0.05 * max(abs(reference), 0.01)))
    return records


def _suite_moments(cfg: VerifyConfig) -> list:
    if cfg.d % 2:
        raise ConfigError("moment suite needs even d (the paired reduction identity)")
    rep = moment_recursion_check(cfg.d, cfg.max_degree)
    records = [
        _record("odd_vanishing_residual", rep.odd.max(), 0.0, 1e-12),
        _record("first_reduction_residual", rep.first.max(), 0.0, 1e-12),
        _record("main_reduction_residual", rep.main.max(), 0.0, 1e-12),
    ]
    degree = min(6, cfg.max_degree)
    table = _monomial_integrals(quadrature_rule(cfg.d), degree)
    worst = np.abs(table - _moments(_multi_indices(cfg.d, degree), cfg.d)).max()
    records.append(_record("quadrature_cross_check", worst, 0.0, 1e-8))
    return records


def _suite_su2(cfg: VerifyConfig) -> list:
    records = []
    word = su2.GenPoly.parse(cfg.word)
    est, ref = su2.su2_dixmier_ratio(word, cfg.lmax)
    tol = max(0.02 * abs(complex(ref)), 0.01)
    records.append(_record(f"ratio_{cfg.word}", abs(complex(est) - complex(ref)), 0.0, tol))

    block = su2.build_block(20)
    records.append(_record("commutator_norm_l20", su2.block_commutator_norm(block, 1, 2), 1.0 / 21.0, 1e-12))
    b = block.unit_gens
    casimir = np.abs(b[0] @ b[0] + b[1] @ b[1] + b[2] @ b[2] - np.eye(block.dim)).max()
    records.append(_record("casimir_residual_l20", casimir, 0.0, 1e-13))

    # 100 pairs (g, h), drawn in the order g, h, g, h, ... as one stack
    pairs = np.tensordot(np.random.default_rng(cfg.seed).normal(size=(100, 2, 3)), su2.PAULI_TRIPLE, axes=(-1, 0))
    u = su2.exp_i_hermitian(pairs, 1.0)
    g, h = u[:, 0], u[:, 1]
    rot_gh, rot_g, rot_h = su2.su2_to_so3(np.stack([g @ h, g, h]))
    worst = float(np.abs(rot_gh - rot_h @ rot_g).max())
    records.append(_record("so3_product_residual", worst, 0.0, 1e-11))

    cov = max(
        su2.conjugation_covariance_check(su2.build_block(2), 1, 0.3),
        su2.conjugation_covariance_check(su2.build_block(su2.HalfInteger(7)), 3, 1.1),
    )
    records.append(_record("conjugation_covariance", cov, 0.0, 1e-9))

    small = max(2, cfg.lmax // 4)
    r_small = su2.beta_formula_residual(small, 0, 4, 0)
    r_big = su2.beta_formula_residual(cfg.lmax, 0, 4, 0)
    records.append(_record("beta_residual_040", r_big, 0.0, 0.05))
    records.append(_record("beta_decrease_040", r_big / r_small, 0.0, 1.0))
    odd_worst = max(
        su2.beta_formula_residual(cfg.lmax, 0, 1, 1),
        su2.beta_formula_residual(cfg.lmax, 1, 1, 1),
    )
    records.append(_record("beta_odd_zero", odd_worst, 0.0, 1e-12))
    return records


def _suite_symplectic(cfg: VerifyConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    records = []

    worst_nf = 0.0
    for d in (2, 4, 6):
        a = rng.normal(size=(34, d, d))
        th = a - np.swapaxes(a, -1, -2)
        th = th[~(np.abs(np.linalg.det(th)) < 1e-8)]
        worst_nf = moyal.antisymmetric_normal_form(th).residual.max(initial=worst_nf)
    records.append(_record("normal_form_residual", worst_nf, 0.0, 1e-10))

    d = cfg.d if cfg.d % 2 == 0 else cfg.d + 1
    omega = moyal.SymplecticForm(d).matrix
    # each loop keeps its draws in their interleaved order; the algebra after them is stacked
    gens, scales = [], []
    for _ in range(20):
        gens.append(rng.normal(size=(d, d)))
        scales.append(rng.uniform(-2, 2))
    # the generator's symmetric part has unit spectral norm, as in moyal.random_sp_block: unscaled, its
    # norm grows with d, and expm's roundoff in g^T omega g - omega with it (past 1e-9 at d = 64)
    g = moyal._sp_exp(np.array(gens), np.array(scales)[:, None, None])
    records.append(_record("exp_membership", float(moyal._form_residuals(g, omega).max()), 0.0, 1e-9))

    thetas, gens = [], []
    for _ in range(20):
        a = rng.normal(size=(d, d))
        th = a - a.T
        if abs(np.linalg.det(th)) < 1e-8:
            continue
        thetas.append(th)
        gens.append(rng.normal(size=(d, d)))  # the draw of moyal.random_sp_block(d, rng)
    # each member of a stack is bitwise the output of its own call
    thetas = np.reshape(thetas, (-1, d, d))
    betas = moyal.antisymmetric_normal_form(thetas).beta
    hs = moyal.sp_theta_conjugate(moyal._sp_exp(np.reshape(gens, (-1, d, d)), 0.5), betas, thetas)
    worst_conj = float(moyal._form_residuals(hs, thetas).max(initial=0.0))
    records.append(_record("conjugate_membership", worst_conj, 0.0, 1e-9))

    theta = _theta_of(cfg) if cfg.d % 2 == 0 else None
    if theta is not None:
        degree = min(4, cfg.max_degree)
        if cfg.d == 2:
            rep = moyal.sp_invariant_functional_check(theta, degree, quadrature_rule(2), 20, cfg.seed)
            records.append(_record("invariance_product", rep.max_residual, 0.0, 1e-8))
        elif cfg.d == 4:
            rep = moyal.sp_invariant_functional_check(theta, degree, quadrature_rule(4), 20, cfg.seed)
            records.append(_record("invariance_hopf", rep.max_residual, 0.0, 1e-6))
            # the (64,128) Hopf rule has 2^20 nodes, the million-sample check
            rep2 = moyal.sp_invariant_functional_check(theta, degree, quadrature_rule(4, n=(64, 128)), 3, cfg.seed + 1)
            records.append(_record("invariance_samples_1m", rep2.max_residual, 0.0, 1e-5))
        # d >= 6: no quadrature in the library resolves the pullback integrand
        # well enough to certify the identity, so only the algebraic records run
    return records


def _suite_moyal(cfg: VerifyConfig) -> list:
    # the only record that depends on d runs first, so a d over the shell-sample limit is refused at once
    rz = moyal.riesz_difference_decay(1, cfg.d, [10.0, 50.0, 250.0, 1000.0], seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    records = []

    theta = ThetaMatrix.from_upper(2, [np.pi])
    grid = moyal.UniformGrid(2, 96, 0.5)
    worst = moyal.ccr_phase_residual((1.0, 0.0), (0.0, 1.0), theta, grid)
    worst = max(worst, moyal.ccr_phase_residual((1.5, -2.0), (1.5, -2.0), theta, grid))
    t = tuple(0.5 * rng.integers(-4, 5, size=2).astype(float))
    s = tuple(0.5 * rng.integers(-4, 5, size=2).astype(float))
    worst = max(worst, moyal.ccr_phase_residual(t, s, theta, grid))
    records.append(_record("ccr_residual", worst, 0.0, 1e-13))
    anti = abs(moyal.ccr_phase(t, s, theta) * moyal.ccr_phase(s, t, theta) - 1.0)
    records.append(_record("ccr_antisymmetry", anti, 0.0, 1e-14))

    worst_mult = moyal.multiplier_identity_residual(np.diag([2.0, 1.0]), SpherePoly.coordinate(2, 1))
    g4 = moyal.random_sp_block(4, rng)
    worst_mult = max(
        worst_mult,
        moyal.multiplier_identity_residual(g4, SpherePoly(4, {(1, 1, 0, 0): 1.0}), seed=cfg.seed),
    )
    records.append(_record("multiplier_identity", worst_mult, 0.0, 1e-13))

    g = np.diag([2.0, 0.5])
    prof = moyal.h_decay_profile(g, [10.0, 50.0, 250.0, 1000.0], seed=cfg.seed, cell_radii=(500, 1000))
    records.append(_record("h_profile_ratio", prof.bounded_ratio(), 0.0, 1.05))
    cs = prof.cell_sums
    records.append(_record("h_cell_sum_drift", abs(cs[1] / cs[0] - 1.0), 0.0, 0.01))

    records.append(_record("riesz_profile_ratio", rz.bounded_ratio(), 0.0, 1.05))
    records.append(_record("riesz_sup_1000", rz.sups[-1], 0.5, 1e-4))
    return records


def _one_shift_difference(a: dict, b: dict, cols: np.ndarray) -> np.ndarray:
    """a - b on the columns cols, for two window operators that are weighted shifts by one common shift."""
    (shift,) = set(a) | set(b)
    return a[shift][cols] - b[shift][cols]


def _suite_symbol_compactness(cfg: VerifyConfig) -> list:
    theta = _theta_of(cfg)
    d = cfg.d
    rng = np.random.default_rng(cfg.seed)
    m1 = tuple([1] + [0] * (d - 1))
    m2 = tuple([0, 1] + [0] * (d - 2))
    u1, u2 = unitary_generator(theta, m1), unitary_generator(theta, m2)
    # the commutator scan runs first: its point budget refuses d >= 3 before any window is built
    vals = sy.commutator_tail_norms(u1, SpherePoly.coordinate(d, 1), (50, 100, 200, 400))

    window = sy.LatticeWindow(d, 16)
    pts = window.points
    r2 = np.einsum("ij,ij->i", pts, pts)
    prod = sy.word_matrix(sy.OperatorWord(theta, (sy.TorusLetter(u1), sy.TorusLetter(u2))), window)
    target = sy.build_pi1_matrix(
        twist_phase(theta, m1, m2) * unitary_generator(theta, tuple(a + b for a, b in zip(m1, m2))), window
    )
    cols = np.nonzero(r2 <= 12)[0]  # |n| <= 3.5, far inside the window
    records = [_record("pi1_cocycle_residual", np.abs(_one_shift_difference(prod, target, cols)).max(), 0.0, 1e-13)]

    probe = tuple([3, 4] + [0] * (d - 2))
    (entry,) = sy.build_pi2_matrix(SpherePoly.coordinate(d, 1), window).values()
    records.append(_record("pi2_direction_entry", entry[window.index()[probe]].real, 0.6, 1e-14))

    dev = max(abs(a / b - 2.0) for a, b in zip(vals, vals[1:]))
    records.append(_record("commutator_halving_deviation", dev, 0.0, 0.2))

    worst_ratio = 0.0
    for _ in range(3):
        word = sy.random_word(theta, rng)
        rep = sy.residual_compactness_report(word, (25, 50, 100, 200))
        worst_ratio = max(worst_ratio, max(b / a for a, b in zip(rep.tail_norms, rep.tail_norms[1:])))
    records.append(_record("word_residual_decrease", worst_ratio, 0.0, 0.999))

    gap = 0.0
    for _ in range(5):
        w1, w2 = sy.random_word(theta, rng, 2), sy.random_word(theta, rng, 2)
        gap = max(gap, sy.sym(w1 * w2).gap(sy.sym(w1) * sy.sym(w2), seed=cfg.seed))
    records.append(_record("sym_homomorphism_gap", gap, 0.0, 1e-12))

    word = sy.OperatorWord(theta, (sy.SphereLetter(SpherePoly.coordinate(d, 1)), sy.TorusLetter(u1)))
    R = 8
    cols = np.nonzero((r2 > R * R) & (r2 <= (window.radius - 2) ** 2))[0]
    # the difference A is a weighted shift by one mode, so A^H A is diagonal and the norm of A on the
    # columns cols is exactly its largest |weight| there
    diff = _one_shift_difference(sy.word_matrix(word, window), sy.representative_matrix(sy.sym(word), window), cols)
    mat_norm = float(np.abs(diff).max())
    bound = sy.residual_compactness_report(word, (R,)).tail_norms[0]
    records.append(_record("tail_bound_certificate", max(0.0, mat_norm - bound), 0.0, 1e-12))
    return records


# in the order that --help and the unknown-suite message list them
_SUITE_RUNNERS = {
    "torus-trace": _suite_torus_trace,
    "su2": _suite_su2,
    "moments": _suite_moments,
    "symplectic": _suite_symplectic,
    "moyal": _suite_moyal,
    "symbol-compactness": _suite_symbol_compactness,
}
SUITES = tuple(_SUITE_RUNNERS)
# The suites that draw random numbers. numpy loads numpy.random on first use; run_suite imports it
# before these suites' clocks start and no suite imports anything inside its clock, so import time
# never counts as suite time, and the other suites never load it (about 13 ms and 5 MB of every
# process). tests/test_verify.py checks this in one fresh process per suite.
_RANDOM_SUITES = ("su2", "symplectic", "moyal", "symbol-compactness")


def run_suite(config: VerifyConfig) -> VerifyReport:
    """Run the suite, then apply tolerance overrides (a ConfigError if one names no record) and decide pass."""
    if config.suite in _RANDOM_SUITES:
        import numpy.random
    start = time.perf_counter()
    records = _SUITE_RUNNERS[config.suite](config)
    names = [r["name"] for r in records]
    unknown = sorted(set(config.tolerances) - set(names))
    if unknown:
        raise ConfigError(f"unknown tolerance name(s) {', '.join(unknown)}; this run's checks are {', '.join(names)}")
    for r in records:
        r["tolerance"] = float(config.tolerances.get(r["name"], r["tolerance"]))
        r["pass"] = bool(abs(r["measured"] - r["reference"]) <= r["tolerance"])
    return VerifyReport(config.suite, records, time.perf_counter() - start, config.echo())


# ---------------------------------------------------------------------------
# reporting and entry point


def emit_report(report: VerifyReport, fmt: str, path: str) -> None:
    if fmt == "json":
        payload = {
            "suite": report.suite,
            "config": report.config,
            "records": report.records,
            "overall_pass": report.overall_pass,
            "wall_time_s": report.wall_time_s,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "measured", "reference", "tolerance", "pass"])
        for r in report.records:
            writer.writerow([r["name"], repr(r["measured"]), repr(r["reference"]), repr(r["tolerance"]), r["pass"]])
        text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _config_argv(path: str) -> list:
    """The flags a config file stands for: each `key = value` line is `--key=value`, `_` or `-` alike in key."""
    argv = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                argv.append(f"--{key.replace('_', '-')}={val}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return argv


def _settings(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """(the flags argv sets, its tolerance overrides); `--suite` beats the positional suite."""
    argv, tolerances = _extract_tol_flags(argv)
    args = vars(parser.parse_args(argv))
    positional = args.pop("suite_positional")
    args["suite"] = args["suite"] or positional
    return {key: val for key, val in args.items() if val is not None}, tolerances


def _build_config(parser: argparse.ArgumentParser, argv: list) -> VerifyConfig:
    """Settings from the command line, over those from its --config file."""
    settings, tolerances = _settings(parser, argv)
    path = settings.pop("config", None)
    if path:
        parser.allow_abbrev = False  # a config key is a whole flag name
        parser.prog += f" --config {path}"  # argparse's messages name the file
        from_file, file_tolerances = _settings(parser, _config_argv(path))
        if "config" in from_file:
            raise ConfigError(f"{path}: a config file cannot name another config file")
        settings = {**from_file, **settings}
        tolerances = {**file_tolerances, **tolerances}
    if "suite" not in settings:
        raise ConfigError("no suite given (positional argument, --suite, or config file)")
    return VerifyConfig(tolerances=tolerances, **settings)


def _parse_theta(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse theta entries {text!r}") from exc


def _extract_tol_flags(argv: list) -> tuple:
    """(argv without its --tol.<check> flags, {check: tolerance}); `-` in a check name reads as `_`."""
    rest = []
    tols = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--tol."):
            body = tok[6:]
            if "=" in body:
                name, val = body.split("=", 1)
                i += 1
            else:
                name = body
                if i + 1 >= len(argv):
                    raise ConfigError(f"flag --tol.{name} needs a value")
                val = argv[i + 1]
                i += 2
            if not name:
                raise ConfigError("empty check name in --tol. flag")
            name = name.replace("-", "_")
            try:
                tols[name] = float(val)
            except ValueError as exc:
                raise ConfigError(f"tolerance for {name} must be a float, got {val!r}") from exc
        else:
            rest.append(tok)
            i += 1
    return rest, tols


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="nct-verify",
        description="Run a verification suite and report pass/fail records.",
    )
    parser.add_argument("suite_positional", nargs="?", choices=SUITES, metavar="suite")
    parser.add_argument("--suite", choices=SUITES)
    parser.add_argument("--d", type=int)
    parser.add_argument(
        "--theta",
        type=_parse_theta,
        dest="theta_upper",
        metavar="THETA",
        help="comma list of strict upper-triangle entries",
    )
    parser.add_argument("--nmax", type=int)
    parser.add_argument("--lmax", type=int)
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--word", help="generator word for the su2 suite, e.g. b1b1")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--config", help="flat key=value config file, keys named as flags; flags win")

    try:
        config = _build_config(parser, argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code,
        # but normalize help (exit 0) through untouched
        return EXIT_PASS if exc.code == 0 else EXIT_CONFIG_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        report = run_suite(config)
    except (ConfigError, ValueError) as exc:
        # the library validates parameter ranges (grid sizes, degrees, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        # a defect, not a failed check: exit 1 stays reserved for check failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    for r in report.records:
        status = "PASS" if r["pass"] else "FAIL"
        print(
            f"[{status}] {r['name']}: measured={r['measured']:.6g} "
            f"reference={r['reference']:.6g} tolerance={r['tolerance']:.3g}"
        )
    n_pass = sum(1 for r in report.records if r["pass"])
    print(
        f"suite {report.suite}: {'PASS' if report.overall_pass else 'FAIL'} "
        f"({n_pass}/{len(report.records)} checks, {report.wall_time_s:.2f}s)"
    )

    if config.out:
        try:
            emit_report(report, config.format, config.out)
        except OSError as exc:
            print(f"i/o error writing report: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR

    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
