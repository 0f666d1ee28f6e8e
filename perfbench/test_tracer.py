"""Checks of the benchmark's tracer: exact counts, self times, clean restore.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def brute_ball(d, r2):
    m = int(r2**0.5) + 1 if r2 >= 0 else 0
    return sum(1 for n in itertools.product(range(-m, m + 1), repeat=d) if sum(v * v for v in n) <= r2)


def test_ball_count_matches_enumeration():
    for d in (1, 2, 3):
        for r2 in (-1, 0, 1, 2, 5, 24, 25, 26, 50):
            assert tracer.ball_count(d, r2) == brute_ball(d, r2)


def test_union_count_merges_overlapping_shells():
    calls = [["symbols", 2, 4, 25, 0], ["symbols", 2, 9, 36, 0], ["symbols", 2, 36, 49, 0]]
    assert tracer.union_count(calls) == tracer.ball_count(2, 49) - tracer.ball_count(2, 4)
    assert tracer.union_count([["symbols", 2, 9, 9, 0]]) == 0


def test_candidates_is_the_enumerated_box():
    assert tracer.candidates(2, 0, 16) == 81
    assert tracer.candidates(3, -1, 17) == 9**3
    assert tracer.candidates(2, 16, 16) == 0


def test_self_time_subtracts_children():
    spans = [
        ["dixmier.log_fit", -1, 0.0, 10.0],
        ["_lattice.iter_shell", 0, 1.0, 3.0],
        ["dixmier.LatticeDiagonal.entry", 0, 4.0, 8.0],
        ["sphere.SpherePoly.evaluate", 2, 5.0, 6.5],
    ]
    own, covered = tracer.self_times(spans)
    assert covered == 10.0
    assert own == {"dixmier.fit": 4.0, "lattice.self": 2.0, "dixmier.entry": 2.5, "sphere.poly_eval": 1.5}


def test_traced_suite_counts_are_exact_and_originals_restored(tmp_path):
    import nctrace
    from nctrace import _lattice, dixmier, sphere, symbols, verify

    before = {m: dict(vars(m)) for m in (nctrace, _lattice, dixmier, sphere, symbols)}
    evaluate = sphere.SpherePoly.__dict__["evaluate"]
    t = tracer.Tracer("test")
    t.install()
    assert dixmier.iter_shell is not before[dixmier]["iter_shell"]
    assert symbols.iter_shell is not before[symbols]["iter_shell"]
    try:
        code = verify.main(["torus-trace", "--d", "2", "--nmax", "128", "--out", str(tmp_path / "r.json")])
    finally:
        t.uninstall()
    assert code == 0
    for mod, names in before.items():
        assert all(vars(mod)[k] is v for k, v in names.items())
    assert sphere.SpherePoly.__dict__["evaluate"] is evaluate

    assert t.lattice_calls
    for _, d, lo, hi, points in t.lattice_calls:
        assert points == tracer.ball_count(d, hi) - tracer.ball_count(d, max(lo, -1))
    total = sum(c[4] for c in t.lattice_calls)
    assert t.counts["dixmier.entries"] == total
    metrics = tracer.layer_metrics([t.document()], suite_s=1e9)
    assert metrics["lattice.points"] == (total, "count")
    assert 0.0 < metrics["lattice.keep_ratio"][0] < 1.0
    assert tracer.partition_holds(metrics)
