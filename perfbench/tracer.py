"""Outside-in tracer for one nctrace suite process.

Run as a script it takes the place of ``python -m nctrace``:

    python perfbench/tracer.py --spans FILE --run-id ID -- <nct-verify args>

It imports the package, wraps the public functions of each layer module (the
package modules ``_lattice``, ``dixmier``, ``sphere``, ``symbols``, ``su2``,
``moyal``, ``torus``), runs the CLI, restores every original and writes the
spans and counts to FILE. Nothing inside ``src/`` is changed: a wrapper
replaces each module-level binding of the original object, so names a consumer
module bound at import (``from ._lattice import iter_shell``) are wrapped too.

A span is (name, parent, start, end) under the run id; spans nest on one
stack, so a span's self time is its duration minus its children's. Each
wrapped name belongs to one bucket, and bucket self times are what the
benchmark reports per layer (see ``layer_metrics``).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from math import isqrt, prod

import numpy as np

# (module, attribute, bucket). A dotted attribute is a class member.
FUNCTIONS = (
    ("_lattice", "ball_points", "lattice.self"),
    ("dixmier", "log_fit", "dixmier.fit"),
    ("dixmier", "normalised_trace_estimate", "dixmier.fit"),
    ("dixmier", "lattice_partial_sum", "dixmier.fit"),
    ("dixmier", "partial_sum_quotient", "dixmier.fit"),
    ("dixmier", "connes_trace_torus", "dixmier.fit"),
    ("dixmier", "radial_integral_check", "dixmier.radial"),
    ("sphere", "quadrature_integrate", "sphere.quad"),
    ("sphere", "quadrature_rule", "sphere.rule_build"),
    ("sphere", "SpherePoly.evaluate", "sphere.poly_eval"),
    ("su2", "build_block", "su2.block_build"),
    ("su2", "block_trace", "su2.block_trace"),
    ("su2", "beta_formula_residual", "su2.beta"),
    ("symbols", "commutator_tail_norm", "symbols.tail"),
    ("symbols", "residual_compactness_report", "symbols.tail"),
    ("symbols", "build_pi1_matrix", "symbols.window"),
    ("symbols", "build_pi2_matrix", "symbols.window"),
    ("symbols", "word_matrix", "symbols.window"),
    ("symbols", "representative_matrix", "symbols.window"),
    ("symbols", "LatticeWindow.points", "symbols.window"),
    ("symbols", "sym", "symbols.sym"),
    ("symbols", "Symbol.gap", "symbols.sym"),
    ("moyal", "h_decay_profile", "moyal.h_profile"),
    ("moyal", "riesz_difference_decay", "moyal.h_profile"),
    ("moyal", "sp_invariant_functional_check", "moyal.invariance"),
    ("moyal", "antisymmetric_normal_form", "moyal.algebra"),
    ("moyal", "random_sp_block", "moyal.algebra"),
    ("moyal", "sp_theta_conjugate", "moyal.algebra"),
    ("moyal", "random_sp_theta", "moyal.algebra"),
    ("moyal", "grid_unitary_apply", "moyal.algebra"),
    ("moyal", "ccr_phase", "moyal.algebra"),
    ("moyal", "ccr_phase_residual", "moyal.algebra"),
    ("moyal", "multiplier_identity_residual", "moyal.algebra"),
    ("torus", "torus_mul", "torus.mul"),
)
# Spans made for the callables that factories return, and for iter_shell.
LATTICE_SPAN = "_lattice.iter_shell"
ENTRY_SPAN = "dixmier.LatticeDiagonal.entry"
PULLBACK_SPAN = "sphere.vg_action.evaluator"
BUCKETS = {f"{mod}.{attr}": bucket for mod, attr, bucket in FUNCTIONS}
BUCKETS.update({LATTICE_SPAN: "lattice.self", ENTRY_SPAN: "dixmier.entry", PULLBACK_SPAN: "sphere.pullback"})

TIME_METRICS = {
    "lattice.self_s": "lattice.self",
    "dixmier.entry_s": "dixmier.entry",
    "dixmier.fit_s": "dixmier.fit",
    "dixmier.radial_s": "dixmier.radial",
    "sphere.quad_s": "sphere.quad",
    "sphere.poly_eval_s": "sphere.poly_eval",
    "sphere.pullback_s": "sphere.pullback",
    "sphere.rule_build_s": "sphere.rule_build",
    "su2.block_build_s": "su2.block_build",
    "su2.block_trace_s": "su2.block_trace",
    "su2.beta_s": "su2.beta",
    "symbols.tail_s": "symbols.tail",
    "symbols.window_s": "symbols.window",
    "symbols.sym_s": "symbols.sym",
    "moyal.h_profile_s": "moyal.h_profile",
    "moyal.invariance_s": "moyal.invariance",
    "moyal.algebra_s": "moyal.algebra",
    "torus.mul_s": "torus.mul",
}


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list = []
        self.counts: dict = {}
        self.lattice_calls: list = []  # [consumer, d, r2_min, r2_max, points yielded]
        self.max_chunk_bytes = 0
        self._restore: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, name: str, fn, after=None, before=None):
        """fn inside a span; before(args) and after(result) may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            return after(result) if after is not None else result

        return wrapper

    def lattice_generator(self, orig, consumer: str):
        """iter_shell for one consumer: a span around each chunk, never around the consumer's loop body."""
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def iter_shell(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            gen = orig(*args, **kwargs)
            points = 0
            try:
                while True:
                    idx = self.begin(LATTICE_SPAN)
                    try:
                        chunk = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    points += len(chunk)
                    self.max_chunk_bytes = max(self.max_chunk_bytes, chunk.nbytes)
                    yield chunk
            finally:
                gen.close()
                a = bound.arguments
                self.lattice_calls.append([consumer, int(a["d"]), int(a["r2_min"]), int(a["r2_max"]), points])

        return iter_shell

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules: list, orig, wrapped_for) -> None:
        """Replace every module-level binding of orig; wrapped_for(module) gives the replacement."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped_for(mod))

    def install(self) -> None:
        import nctrace.verify  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sorted(sys.modules.items()) if name == "nctrace" or name.startswith("nctrace.")]
        layer = {m.__name__.rpartition(".")[2]: m for m in modules}

        counters = {
            "sphere.quadrature_integrate": dict(
                before=lambda a: self.count("sphere.quad_nodes", len(a[1].points) + len(a[1].coarse_points))
            ),
            "sphere.SpherePoly.evaluate": dict(before=lambda a: self.count("sphere.poly_points", _leading_size(a[1]))),
            "su2.build_block": dict(after=self._count_block),
            "torus.torus_mul": dict(before=lambda a: self.count("torus.mul_calls", 1)),
        }
        for mod_name, attr, _ in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            mod = layer[mod_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, property):
                    self._set(cls, member, property(self.spanned(name, raw.fget)))
                else:
                    self._set(cls, member, self.spanned(name, raw, **counters.get(name, {})))
            else:
                orig = getattr(mod, attr)
                wrapped = self.spanned(name, orig, **counters.get(name, {}))
                self._rebind(modules, orig, lambda _m, w=wrapped: w)

        iter_shell = layer["_lattice"].iter_shell
        self._rebind(modules, iter_shell, lambda m: self.lattice_generator(iter_shell, m.__name__.rpartition(".")[2]))

        # factories whose products carry the callable that does the work
        dixmier, sphere = layer["dixmier"], layer["sphere"]

        def with_entry(diag):
            entry = self.spanned(ENTRY_SPAN, diag.entry, before=lambda a: self.count("dixmier.entries", len(a[0])))
            return dataclasses.replace(diag, entry=entry)

        raw = dixmier.LatticeDiagonal.__dict__["symbol_weighted"]
        self._set(dixmier.LatticeDiagonal, "symbol_weighted", classmethod(_then(raw.__func__, with_entry)))
        self._rebind(modules, dixmier.model_diagonal, lambda _m, f=_then(dixmier.model_diagonal, with_entry): f)

        def with_pullback(fn):
            return dataclasses.replace(fn, evaluator=self.spanned(PULLBACK_SPAN, fn.evaluator))

        self._rebind(modules, sphere.vg_action, lambda _m, f=_then(sphere.vg_action, with_pullback): f)

    def _count_block(self, block):
        self.count("su2.blocks", 1)
        self.count("su2.block_dim3", block.dim**3)
        return block

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def document(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "lattice_calls": self.lattice_calls,
            "max_chunk_bytes": self.max_chunk_bytes,
        }


def _leading_size(points) -> int:
    """Number of points in an array of shape (..., d)."""
    return prod(np.shape(points)[:-1])


def _then(fn, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return post(fn(*args, **kwargs))

    return wrapper


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process)


def ball_count(d: int, r2: int) -> int:
    """Number of integer points n in Z^d with |n|^2 <= r2 (exact)."""
    if r2 < 0:
        return 0
    m = isqrt(r2)
    if d == 1:
        return 2 * m + 1
    return ball_count(d - 1, r2) + 2 * sum(ball_count(d - 1, r2 - a * a) for a in range(1, m + 1))


def union_count(calls: list) -> int:
    """Distinct lattice points in the union of shells (r2_min, r2_max], per dimension."""
    total = 0
    for d in sorted({c[1] for c in calls}):
        intervals = sorted((lo, hi) for _, dd, lo, hi, _ in calls if dd == d and hi > lo and hi >= 0)
        merged: list = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        total += sum(ball_count(d, hi) - ball_count(d, lo) for lo, hi in merged)
    return total


def candidates(d: int, r2_min: int, r2_max: int) -> int:
    """Points iter_shell's box holds for one call: (2 floor(sqrt r2_max) + 1)^d."""
    if r2_max < 0 or r2_max <= r2_min:
        return 0
    return (2 * isqrt(r2_max) + 1) ** d


def self_times(spans: list) -> tuple:
    """(self seconds per bucket, seconds covered by top-level spans)."""
    child = [0.0] * len(spans)
    covered = 0.0
    for name, parent, start, end in spans:
        if parent < 0:
            covered += end - start
        else:
            child[parent] += end - start
    out: dict = {}
    for (name, _, start, end), inner in zip(spans, child):
        bucket = BUCKETS[name]
        out[bucket] = out.get(bucket, 0.0) + (end - start) - inner
    return out, covered


def layer_metrics(traces: list, suite_s: float) -> dict:
    """Per-layer metrics of one traced pass; traces are the dumped documents."""
    buckets: dict = {}
    counts: dict = {}
    covered = 0.0
    calls: list = []
    max_chunk = 0
    for doc in traces:
        own, cov = self_times(doc["spans"])
        for k, v in own.items():
            buckets[k] = buckets.get(k, 0.0) + v
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v
        covered += cov
        calls += doc["lattice_calls"]
        max_chunk = max(max_chunk, doc["max_chunk_bytes"])

    points = sum(c[4] for c in calls)
    cand = sum(candidates(*c[1:4]) for c in calls)
    scans = [c for c in calls if c[0] == "symbols"]
    scan_points = sum(c[4] for c in scans)
    distinct = union_count(scans)
    out = {
        "lattice.points": (points, "count"),
        "lattice.candidates": (cand, "count"),
        "lattice.keep_ratio": (points / cand if cand else 0.0, "ratio"),
        "lattice.max_chunk_mb": (max_chunk / 2**20, "MB"),
        "dixmier.entries": (counts.get("dixmier.entries", 0), "count"),
        "sphere.quad_nodes": (counts.get("sphere.quad_nodes", 0), "count"),
        "sphere.poly_points": (counts.get("sphere.poly_points", 0), "count"),
        "su2.blocks": (counts.get("su2.blocks", 0), "count"),
        "su2.block_dim3": (counts.get("su2.block_dim3", 0), "count"),
        "symbols.scan_points": (scan_points, "count"),
        "symbols.rescan_ratio": (scan_points / distinct if distinct else 0.0, "ratio"),
        "moyal.cell_points": (sum(c[4] for c in calls if c[0] == "moyal"), "count"),
        "torus.mul_calls": (counts.get("torus.mul_calls", 0), "count"),
        "verify.suite_s": (suite_s, "s"),
        "verify.unattributed_s": (suite_s - covered, "s"),
    }
    for metric, bucket in TIME_METRICS.items():
        out[metric] = (buckets.get(bucket, 0.0), "s")
    return out


def partition_holds(metrics: dict) -> bool:
    """Layer self times and unattributed time add up to the traced suite time."""
    layers = sum(metrics[m][0] for m in TIME_METRICS)
    unattributed = metrics["verify.unattributed_s"][0]
    return unattributed >= 0.0 and abs(layers + unattributed - metrics["verify.suite_s"][0]) < 1e-6


def main(argv: list) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    tracer = Tracer(opts["--run-id"])
    tracer.install()
    try:
        from nctrace.verify import main as cli

        code = cli(argv[split + 1 :])
    finally:
        tracer.uninstall()
        with open(opts["--spans"], "w") as fh:
            json.dump(tracer.document(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
