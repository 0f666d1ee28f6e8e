"""Tests for the verification CLI: config handling, reports, exit codes."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nctrace
from nctrace import verify
from nctrace.verify import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_IO_ERROR,
    EXIT_PASS,
    SUITES,
    ConfigError,
    VerifyConfig,
    _extract_tol_flags,
    emit_report,
    main,
    run_suite,
)

# the moments suite finishes in milliseconds, so it backs all the CLI tests
FAST = "moments"


class TestConfig:
    def test_defaults(self):
        cfg = VerifyConfig(suite=FAST)
        assert cfg.d == 2
        assert cfg.format == "json"
        assert cfg.tolerances == {}

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            VerifyConfig(suite="nonsense")

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            VerifyConfig(suite=FAST, d=1)

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            VerifyConfig(suite=FAST, format="xml")

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_degree(self, suite):
        with pytest.raises(ConfigError, match="max_degree must be >= 0"):
            VerifyConfig(suite=suite, max_degree=-1)

    def test_nonpositive_tolerance(self):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                VerifyConfig(suite=FAST, tolerances={"x": tol})

    def test_echo_is_report_ready(self):
        echo = VerifyConfig(suite=FAST, theta_upper=(0.5,), tolerances={"b": 1.0, "a": 2.0}).echo()
        assert echo["suite"] == FAST
        assert echo["theta"] == [0.5]
        assert list(echo["tolerances"]) == ["a", "b"]  # sorted for stable reports


class TestRunSuite:
    def test_moments_report(self):
        rep = run_suite(VerifyConfig(suite=FAST))
        assert rep.suite == FAST
        assert rep.overall_pass
        assert rep.wall_time_s > 0
        names = [r["name"] for r in rep.records]
        assert "main_reduction_residual" in names
        assert "quadrature_cross_check" in names
        for r in rep.records:
            assert set(r) == {"name", "measured", "reference", "tolerance", "pass"}
            assert r["pass"] == (abs(r["measured"] - r["reference"]) <= r["tolerance"])

    def test_tolerance_override_flips_record(self):
        cfg = VerifyConfig(suite=FAST, tolerances={"quadrature_cross_check": 1e-300})
        rep = run_suite(cfg)
        assert not rep.overall_pass
        failed = [r for r in rep.records if not r["pass"]]
        assert [r["name"] for r in failed] == ["quadrature_cross_check"]

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(VerifyConfig(suite=FAST, d=3))

    def test_records_are_deterministic(self):
        a = run_suite(VerifyConfig(suite=FAST, seed=5))
        b = run_suite(VerifyConfig(suite=FAST, seed=5))
        assert a.records == b.records
        assert a.config == b.config


class TestTolFlagParsing:
    def test_equals_form(self):
        rest, tols = _extract_tol_flags(["moments", "--tol.slope_constant=0.5"])
        assert rest == ["moments"]
        assert tols == {"slope_constant": 0.5}

    def test_space_form(self):
        rest, tols = _extract_tol_flags(["--tol.slope_constant", "0.5", "--d", "2"])
        assert rest == ["--d", "2"]
        assert tols == {"slope_constant": 0.5}

    def test_missing_value(self):
        with pytest.raises(ConfigError):
            _extract_tol_flags(["--tol.slope_constant"])

    def test_empty_name(self):
        with pytest.raises(ConfigError):
            _extract_tol_flags(["--tol.=0.5"])

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError):
            _extract_tol_flags(["--tol.x=tight"])


class TestMainExitCodes:
    def test_pass(self, capsys):
        assert main([FAST]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert f"suite {FAST}: PASS" in out

    def test_suite_flag_form(self, capsys):
        assert main(["--suite", FAST]) == EXIT_PASS
        capsys.readouterr()

    def test_check_failure(self, capsys):
        code = main([FAST, "--tol.quadrature_cross_check=1e-300"])
        assert code == EXIT_CHECK_FAILURE
        assert "[FAIL] quadrature_cross_check" in capsys.readouterr().out

    def test_unknown_suite_is_config_error(self, capsys):
        assert main(["granite"]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_no_suite_is_config_error(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_library_validation_is_config_error(self, capsys):
        # odd d reaches the suite body, which rejects it
        assert main([FAST, "--d", "3"]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--max-degree", "-1"],
            ["symplectic", "--max-degree", "-3"],
            ["symplectic", "--d", "6", "--max-degree", "-3"],
            ["moyal", "--max-degree", "-1"],
        ],
    )
    def test_negative_degree_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "max_degree must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_config_error(self, value, capsys):
        assert main([FAST, f"--tol.quadrature_cross_check={value}"]) == EXIT_CONFIG_ERROR
        assert "must be positive and finite" in capsys.readouterr().err

    def test_small_theta_passes(self, capsys):
        # det theta = 1e-16, condition number 1: accepted as well conditioned
        assert main(["symplectic", "--d", "4", "--theta", "1e-4,0,0,0,0,1e-4"]) == EXIT_PASS
        assert "PASS (5/5 checks" in capsys.readouterr().out

    def test_rank_deficient_theta_is_config_error(self, capsys):
        assert main(["symplectic", "--d", "4", "--theta", "1,0,0,0,0,0"]) == EXIT_CONFIG_ERROR
        assert "theta is numerically singular" in capsys.readouterr().err

    def test_non_finite_theta_is_config_error(self, capsys):
        assert main(["torus-trace", "--nmax", "128", "--theta", "nan"]) == EXIT_CONFIG_ERROR
        assert "theta entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_tolerance_name_is_config_error(self, source, tmp_path, capsys):
        if source == "flag":
            argv = [FAST, "--tol.quadrature_crosscheck=1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"suite = {FAST}\ntol.quadrature_crosscheck = 1\n")
            argv = ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "quadrature_crosscheck" in err
        assert "quadrature_cross_check" in err  # the valid names are listed

    def test_lattice_budget_is_config_error(self, capsys):
        # the walk of the four fits' union would visit about 4.5e11 fundamental-domain points
        start = time.perf_counter()
        assert main(["torus-trace", "--d", "6", "--nmax", "4096"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert "d=6" in err and "budget" in err

    @pytest.mark.parametrize("d", ["12", "13"])
    def test_high_dimension_torus_trace_is_refused_at_once(self, capsys, d):
        # the largest radius of the four grids' union is checked before any shell is walked
        start = time.perf_counter()
        assert main(["torus-trace", "--d", d, "--nmax", "256"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert f"d={d}" in err and "budget" in err

    def test_moment_table_budget_is_config_error(self, capsys):
        start = time.perf_counter()
        assert main(["moments", "--d", "16"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert "in d=16" in err and "budget" in err

    def test_tail_scan_budget_is_config_error(self, capsys):
        # the commutator tail scan at R = 400 covers the box of radius 1600; it runs first
        start = time.perf_counter()
        assert main(["symbol-compactness", "--d", "3"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert "d=3 up to radius 1600" in err and "budget" in err

    def test_tail_scan_budget_is_refused_before_any_window_matrix(self, capsys, monkeypatch):
        # at d=4 the radius-16 window would hold 323,721 points; the commutator scan's budget refuses the run
        # before any window operator is built
        built = []
        monkeypatch.setattr(verify.sy, "build_pi1_matrix", lambda *args: built.append(args))
        start = time.perf_counter()
        assert main(["symbol-compactness", "--d", "4"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 5.0
        assert built == []
        err = capsys.readouterr().err
        assert "d=4 up to radius 1600" in err and "budget" in err

    def test_symbol_compactness_builds_one_window(self, monkeypatch, tmp_path, capsys):
        built = []
        window_class = verify.sy.LatticeWindow

        def counting(*args):
            built.append(args)
            return window_class(*args)

        monkeypatch.setattr(verify.sy, "LatticeWindow", counting)
        assert main(["symbol-compactness", "--d", "2", "--out", str(tmp_path / "r.json")]) == EXIT_PASS
        capsys.readouterr()
        assert built == [(2, 16)]

    def test_small_nmax_is_config_error(self, capsys):
        # the nmax // 4 fits need nmax >= 128; the check runs before the nmax-sized sums
        assert main(["torus-trace", "--nmax", "64"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--nmax" in err and "128" in err

    def test_small_nmax_at_d3_is_config_error(self, capsys):
        # at d=3 the t1^2 fit on radii 2..46 (nmax 184) misses its tolerance; 192 passes
        assert main(["torus-trace", "--d", "3", "--nmax", "184"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "d=3" in err and "--nmax >= 192" in err

    def test_small_nmax_from_d4_is_config_error(self, capsys):
        # at d=4 the t1^2 fit on radii 2..32 (nmax 128) misses its tolerance; 256 passes
        start = time.perf_counter()
        assert main(["torus-trace", "--d", "4", "--nmax", "128"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "d=4" in err and "--nmax >= 256" in err

    def test_oversized_window_matrix_is_config_error(self, capsys):
        # the radius-16 window at d=5 would hold 5,554,265 points, but the commutator scan's budget refuses the run first
        start = time.perf_counter()
        assert main(["symbol-compactness", "--d", "5"]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 30.0
        err = capsys.readouterr().err
        assert "d=5 up to radius 1600" in err and "budget" in err

    @pytest.mark.parametrize("d", [5, 8])
    def test_high_d_is_refused_before_any_window(self, capsys, monkeypatch, d):
        # the radius-16 window would hold 5.55M points at d=5 and 17.6G at d=8; the commutator scan's budget
        # check refuses the run before any window is built
        def refuse(*args):
            raise AssertionError("a window was built")

        monkeypatch.setattr(verify.sy, "LatticeWindow", refuse)
        start = time.perf_counter()
        assert main(["symbol-compactness", "--d", str(d)]) == EXIT_CONFIG_ERROR
        assert time.perf_counter() - start < 5.0
        assert "budget" in capsys.readouterr().err

    def test_oversized_shell_sample_is_config_error(self, capsys):
        # the Riesz profile at d=5000 would sample a 7.6 GiB point array per shell
        assert main(["moyal", "--d", "5000"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "d=5000" in err and "GiB" in err

    def test_oversized_shell_sample_is_refused_before_other_records(self, monkeypatch):
        # the d-independent records, the cell sums among them, never start
        started = []
        for name in ("ccr_phase_residual", "multiplier_identity_residual", "h_decay_profile"):
            monkeypatch.setattr(verify.moyal, name, lambda *args, name=name, **kwargs: started.append(name))
        assert main(["moyal", "--d", "5000"]) == EXIT_CONFIG_ERROR
        assert started == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["quadrature_cross_check", "quadrature-cross-check"])
    def test_tolerance_name_spellings(self, source, name, tmp_path, capsys):
        out = tmp_path / "report.json"
        if source == "flag":
            argv = [FAST, f"--tol.{name}", "0.25"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"suite = {FAST}\ntol.{name} = 0.25\n")
            argv = ["--config", str(cfg)]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["config"]["tolerances"] == {"quadrature_cross_check": 0.25}
        assert {r["name"]: r["tolerance"] for r in doc["records"]}["quadrature_cross_check"] == 0.25

    def test_unwritable_report_is_io_error(self, capsys):
        code = main([FAST, "--out", "/nonexistent-dir/report.json"])
        assert code == EXIT_IO_ERROR
        assert "i/o error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_PASS
        assert "suite" in capsys.readouterr().out

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(verify._SUITE_RUNNERS, FAST, broken)
        assert main([FAST]) == EXIT_INTERNAL_ERROR
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_theta_is_config_error(self, source, tmp_path, capsys):
        if source == "flag":
            argv = [FAST, "--theta", "0.5,abc"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"suite = {FAST}\ntheta = 0.5,abc\n")
            argv = ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "0.5,abc" in capsys.readouterr().err


class TestConfigFile:
    def test_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\n\nsuite = moments\nd = 2\ntol.quadrature_cross_check = 1e-6\n")
        assert main(["--config", str(cfg)]) == EXIT_PASS
        capsys.readouterr()

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = moments\nd = 4\n")
        out = tmp_path / "report.json"
        assert main(["--config", str(cfg), "--d", "2", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["d"] == 2

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = moments\nmystery = 3\n")
        assert main(["--config", str(cfg)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_bad_integer(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = moments\nd = two\n")
        assert main(["--config", str(cfg)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite moments\n")
        assert main(["--config", str(cfg)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["--config", "/no/such/file.cfg"]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_positional_suite_beats_file_suite(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = su2\nlmax = 2\n")
        out = tmp_path / "report.json"
        assert main([FAST, "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["suite"] == FAST
        assert doc["config"]["lmax"] == 2  # the rest of the file still applies

    @pytest.mark.parametrize("key", ["max_degree", "max-degree"])
    def test_key_spellings(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "report.json"
        cfg.write_text(f"suite = {FAST}\n{key} = 3\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert json.loads(out.read_text())["config"]["max_degree"] == 3

    def test_tolerance_name_used_as_written(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "report.json"
        cfg.write_text(f"suite = {FAST}\ntol.quadrature_cross_check = 0.25\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["config"]["tolerances"] == {"quadrature_cross_check": 0.25}
        tols = {r["name"]: r["tolerance"] for r in doc["records"]}
        assert tols["quadrature_cross_check"] == 0.25

    def test_config_key_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = {FAST}\nconfig = {cfg}\n")
        assert main(["--config", str(cfg)]) == EXIT_CONFIG_ERROR
        capsys.readouterr()


class TestReports:
    def test_json_report_schema(self, tmp_path):
        rep = run_suite(VerifyConfig(suite=FAST))
        path = tmp_path / "r.json"
        emit_report(rep, "json", str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"suite", "config", "records", "overall_pass", "wall_time_s"}
        assert doc["overall_pass"] is True
        assert doc["records"] == rep.records

    def test_json_reruns_identical_outside_wall_time(self, tmp_path):
        paths = []
        for k in range(2):
            rep = run_suite(VerifyConfig(suite=FAST, seed=3))
            path = tmp_path / f"r{k}.json"
            emit_report(rep, "json", str(path))
            paths.append(path)
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("wall_time_s")
        assert docs[0] == docs[1]

    def test_csv_report_round_trips(self, tmp_path):
        rep = run_suite(VerifyConfig(suite=FAST))
        path = tmp_path / "r.csv"
        emit_report(rep, "csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "measured", "reference", "tolerance", "pass"]
        assert len(rows) == len(rep.records) + 1
        # repr() serialisation keeps every float exact
        for row, rec in zip(rows[1:], rep.records):
            assert float(row[1]) == rec["measured"]
            assert float(row[3]) == rec["tolerance"]

    def test_cli_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([FAST, "--format", "csv", "--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert out.read_text().startswith("name,measured,reference,tolerance,pass")


def test_suites_constant_covers_runners():
    # every advertised suite runs end to end somewhere in the test suite or
    # acceptance checks; here just pin the advertised names
    assert SUITES == ("torus-trace", "su2", "moments", "symplectic", "moyal", "symbol-compactness")


# numpy 2 loads these submodules on first use (numpy 1 with numpy itself); per suite, the ones its
# process holds when it exits
_LAZY_NUMPY = ("numpy.polynomial", "numpy.random")
_SUITE_NUMPY = {
    ("torus-trace", "--nmax", "128"): (),
    ("su2", "--lmax", "8"): ("numpy.random",),
    ("moments", "--d", "4", "--max-degree", "4"): (),
    ("symplectic", "--d", "4", "--max-degree", "0"): ("numpy.random",),
    ("moyal",): ("numpy.random",),
    ("symbol-compactness",): ("numpy.random",),
}


@pytest.mark.parametrize("args", list(_SUITE_NUMPY), ids=lambda args: args[0])
def test_suite_process_loads_only_the_numpy_modules_it_uses(args):
    # a fresh process per suite, since a module one suite loads stays loaded for the next
    assert {a[0] for a in _SUITE_NUMPY} == set(SUITES)
    code = (
        "import json, sys, numpy\n"
        f"lazy = {_LAZY_NUMPY!r}\n"
        "eager = [m for m in lazy if m in sys.modules]\n"
        "import nctrace.verify as v\n"
        "clocked = []\n"
        "def watch(run):\n"
        "    def timed(cfg):\n"
        "        before = set(sys.modules)\n"
        "        records = run(cfg)\n"
        "        clocked.extend(sorted(set(sys.modules) - before))\n"
        "        return records\n"
        "    return timed\n"
        "v._SUITE_RUNNERS.update({name: watch(run) for name, run in v._SUITE_RUNNERS.items()})\n"
        "rc = v.main(sys.argv[1:])\n"
        "print(json.dumps([rc, clocked, eager, [m for m in lazy if m in sys.modules]]))\n"
    )
    src = str(Path(nctrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, clocked, eager, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == EXIT_PASS
    # a module imported inside the suite's clock would count as suite time
    assert clocked == []
    assert sorted(set(loaded) - set(eager)) == sorted(set(_SUITE_NUMPY[args]) - set(eager))


# four configurations run back to back in one process; moments --d 4 --max-degree 4 runs twice,
# before and after suites that build other multi-index tables and rules
_ONE_PROCESS_SEQUENCE = (
    ("moments", "--d", "4", "--max-degree", "4"),
    ("symplectic", "--d", "4", "--max-degree", "0"),
    ("moments", "--d", "6"),
    ("moments", "--d", "4", "--max-degree", "4"),
)


def test_nothing_carries_between_suites_in_one_process(tmp_path, capsys):
    # each report of the sequence equals, apart from wall_time_s, the report of its
    # configuration run as a fresh process
    src = str(Path(nctrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = []
    for k, args in enumerate(_ONE_PROCESS_SEQUENCE):
        out = tmp_path / f"fresh-{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nctrace", *args, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        fresh.append(out)
    for k, args in enumerate(_ONE_PROCESS_SEQUENCE):
        assert main([*args, "--out", str(tmp_path / f"same-{k}.json")]) == EXIT_PASS
    for k, want in enumerate(fresh):
        lines = [(tmp_path / f"same-{k}.json").read_text().splitlines(), want.read_text().splitlines()]
        got, want = ([line for line in text if '"wall_time_s"' not in line] for text in lines)
        assert got == want, _ONE_PROCESS_SEQUENCE[k]
        assert len(got) == len(lines[1]) - 1
