"""Benchmark of the nct-verify CLI: one closed-loop client, one suite process at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice-sum --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of suite invocations (``python -m nctrace <suite>
... --seed S --out report.json``). A pass runs them in order, each process
started only after the previous one exited. With ``--trace 0`` the run makes
passes while the next one is expected to end within ``--seconds`` (always at
least one) and prints the end-to-end metrics. With
``--trace 1`` it makes one untraced pass and one pass under perfbench/tracer.py
and prints the per-layer metrics. Every report is checked: exit code, record
count, every record passing, and bitwise-equal ``measured`` values between
the passes of a run, which all use the same seed. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
starting with ``#`` record the environment and the per-invocation samples.

Suite processes get PYTHONPATH=src and one BLAS thread, on every commit, so a
second busy core cannot stretch a dense kernel (BLAS_THREADS below).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

# (suite arguments, records the suite reports). The run's seed is appended to
# every invocation that does not fix its own.
WORKLOADS = {
    # full-ball log-divergent sums: _lattice enumeration and dixmier entries do
    # nearly all the work
    "lattice-sum": [(("torus-trace", "--d", "2", "--nmax", "2048"), 6)],
    # sup-scans over annuli of shifted points, window matrices and torus_mul.
    # The three random words set the scan work (6-12 s over seeds 0-11), so
    # the draw is fixed and the time measures the code, not the draw.
    "shell-scan": [(("symbol-compactness", "--d", "2", "--seed", "0"), 6)],
    # sphere quadrature and the weighted pullback on Hopf rules up to 2^20 nodes
    "quadrature": [(("moments", "--d", "4", "--max-degree", "4"), 4), (("symplectic", "--d", "4", "--max-degree", "0"), 5)],
    # spin blocks: the power word reuses cached half-products, the mixed one not
    "spin": [(("su2", "--lmax", "200"), 8), (("su2", "--word", "b1b1b2b2", "--lmax", "150"), 8)],
}
BLAS_THREADS = 1
DEADLINE_S = 170.0


@dataclass
class Sample:
    """One suite process."""

    args: tuple
    expected: int
    code: int
    elapsed: float
    rss_mb: float
    report: dict | None
    records_failed: int = field(init=False)

    def __post_init__(self):
        records = self.report["records"] if self.report else []
        ok = self.code == 0 and self.report is not None and len(records) == self.expected
        passed = sum(1 for r in records if r["pass"]) if ok else 0
        self.records_failed = self.expected - passed

    @property
    def wall_time_s(self) -> float:
        """Suite time from the report; a crashed or killed process counts with its whole wall time."""
        return self.report["wall_time_s"] if self.report else self.elapsed

    @property
    def setup_s(self) -> float | None:
        return self.elapsed - self.report["wall_time_s"] if self.report else None


class Runner:
    def __init__(self, root: Path, work: Path, seed: int, deadline: float):
        self.root = root
        self.work = work
        self.seed = seed
        self.deadline = deadline
        path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.serial = 0

    def process(self, argv: list) -> tuple:
        """(exit code, wall seconds, max RSS in MB); killed at the run's deadline."""
        self.serial += 1
        with open(self.work / f"stderr-{self.serial}.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / f"stderr-{self.serial}.txt").read_text(errors="replace")[-2000:]
            print(f"perfbench: exit {proc.returncode} from {' '.join(argv[1:])}\n{tail}", file=sys.stderr)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def invoke(self, args: tuple, expected: int, spans: Path | None = None) -> Sample:
        self.serial += 1
        out = self.work / f"report-{self.serial}.json"
        cli = ["-m", "nctrace"]
        if spans is not None:
            cli = [str(HERE / "tracer.py"), "--spans", str(spans), "--run-id", spans.stem, "--"]
        seed = () if "--seed" in args else ("--seed", str(self.seed))
        code, elapsed, rss = self.process([sys.executable, *cli, *args, *seed, "--out", str(out)])
        try:
            report = json.loads(out.read_text())
        except (OSError, ValueError):
            report = None
        return Sample(args, expected, code, elapsed, rss, report)

    def run_pass(self, invocations: list, trace_dir: Path | None = None) -> list:
        samples = []
        for k, (args, expected) in enumerate(invocations):
            spans = None if trace_dir is None else trace_dir / f"{self.seed}-{k}.json"
            samples.append(self.invoke(args, expected, spans))
        return samples


def measured_bits(samples: list) -> list:
    out = []
    for s in samples:
        records = s.report["records"] if s.report else []
        out.append([(r["name"], struct.pack("<d", r["measured"])) for r in records])
    return out


def nondeterministic(passes: list) -> int:
    """Records whose measured value differs bitwise from the first pass."""
    first = measured_bits(passes[0])
    bad = set()
    for other in passes[1:]:
        for k, (a, b) in enumerate(zip(first, measured_bits(other))):
            if len(a) != len(b):
                bad.update((k, j) for j in range(max(len(a), len(b))))
            else:
                bad.update((k, j) for j, (x, y) in enumerate(zip(a, b)) if x != y)
    return len(bad)


def tol_use_max(samples: list) -> float:
    uses = [
        abs(r["measured"] - r["reference"]) / r["tolerance"] for s in samples if s.report for r in s.report["records"]
    ]
    return max(uses) if uses else 0.0


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def describe(samples: list) -> list:
    return [
        {
            "args": " ".join(s.args),
            "code": s.code,
            "elapsed_s": s.elapsed,
            "wall_time_s": s.wall_time_s,
            "rss_mb": s.rss_mb,
            "records_failed": s.records_failed,
        }
        for s in samples
    ]


def timed_run(runner: Runner, invocations: list, seconds: float) -> tuple:
    start = time.monotonic()
    passes = [runner.run_pass(invocations)]
    while True:
        last = time.monotonic() - start
        per_pass = last / len(passes)
        if last + per_pass > seconds or time.monotonic() + per_pass > runner.deadline - 30:
            break
        passes.append(runner.run_pass(invocations))
    samples = [s for p in passes for s in p]
    setups = [[p[k].setup_s for p in passes if p[k].setup_s is not None] for k in range(len(invocations))]
    metrics = {
        "batch_s": (statistics.median(sum(s.wall_time_s for s in p) for p in passes), "s"),
        "setup_s": (sum(statistics.median(v) if v else 0.0 for v in setups), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    return passes, metrics, {"batch_samples": len(passes)}


def traced_run(runner: Runner, invocations: list, trace_dir: Path) -> tuple:
    plain = runner.run_pass(invocations)
    traced = runner.run_pass(invocations, trace_dir)
    docs = []
    for path in sorted(trace_dir.glob("*.json")):
        docs.append(json.loads(path.read_text()))
    suite_s = sum(s.wall_time_s for s in traced)
    metrics = tracer.layer_metrics(docs, suite_s)
    base = sum(s.wall_time_s for s in plain)
    metrics["verify.trace_overhead"] = (suite_s / base, "ratio")
    info = {"spans": sum(len(d["spans"]) for d in docs), "span_files": len(docs)}
    return [plain, traced], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy seeds are non-negative)")

    root = Path.cwd()
    if not (root / "src" / "nctrace" / "verify.py").is_file():
        print(f"perfbench: no nctrace sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # the program's only build step: byte-compile, so no suite process pays for it
    compileall.compile_dir(str(root / "src"), quiet=1)
    print("# environment " + json.dumps(environment(args)), flush=True)

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, args.seed, deadline)
        invocations = WORKLOADS[args.workload]
        if args.trace:
            (work / "trace").mkdir()
            passes, metrics, info = traced_run(runner, invocations, work / "trace")
        else:
            passes, metrics, info = timed_run(runner, invocations, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    samples = [s for p in passes for s in p]
    attempted = sum(s.expected for s in samples)
    failed = sum(s.records_failed for s in samples)
    unstable = nondeterministic(passes) if len(passes) > 1 else 0
    correct = failed == 0 and unstable == 0
    if args.trace:
        metrics["verify.nondeterministic_records"] = (unstable, "count")
        metrics["verify.tol_use_max"] = (tol_use_max(samples), "ratio")
        correct = correct and info["span_files"] == len(WORKLOADS[args.workload]) and tracer.partition_holds(metrics)
    info.update(
        {
            "check_fail_ratio": failed / attempted,
            "tol_use_max": tol_use_max(samples),
            "nondeterministic_records": unstable,
            "compared_passes": len(passes),
            "invocations": [describe(p) for p in passes],
        }
    )
    print("# samples " + json.dumps(info), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
