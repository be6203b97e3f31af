#!/usr/bin/env python3
"""Benchmark of the nccausal CLI experiments, driven in-process.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload grids --seed 1 --seconds 60 --trace 0

Each workload is a fixed list of experiment invocations (operations),
each with a full JSON config made from ``--seed`` by ``workloads.py``.
The run repeats whole rounds of ``nccausal.cli.run`` over the
operations for ``--seconds``.  Before each round it sets up afresh:
it re-imports the package from ``src/`` and loads every config
(``setup_s`` is the median set-up; ``wall_s`` and the per-operation
times are likewise medians over the run's repeats).
The first artifacts of every operation are checked by ``checks.py``;
every later repeat must be byte-identical, or the operation counts as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced rounds for half of ``--seconds`` and then one traced round
(``load_config`` plus ``run`` of every operation) with every public
function of the package wrapped by ``spans.Recorder``; it writes the
spans to ``.bench_out/trace-<workload>.npz`` and prints the per-layer
metrics, including the tracing overhead against the untraced rounds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Write the reference SHA-256 digests of every workload's artifacts:

    python3 bench/run.py --digests bench/reference_digests.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
DIGEST_SEED = 1
MODULES = ("hermitian", "poset", "isocone", "minkowski", "causal_cone", "cli")

# (metric, span name, "calls" | "self_s"); spans are named module.[Class.]function.
SPAN_METRICS = [
    *[(f"hermitian.spectrum.d{d}.{f}", f"hermitian.spectrum.d{d}", f)
      for d in (2, 4, 16) for f in ("calls", "self_s")],
    ("hermitian.is_psd.calls", "hermitian.is_psd", "calls"),
    ("hermitian.pauli_coeffs.calls", "hermitian.HermMat.pauli_coeffs", "calls"),
    ("hermitian.pauli_coeffs.self_s", "hermitian.HermMat.pauli_coeffs", "self_s"),
    ("isocone.state_value.calls", "isocone.state_value", "calls"),
    ("isocone.state_value.self_s", "isocone.state_value", "self_s"),
    ("isocone.lex_membership.calls", "isocone.lex_membership", "calls"),
    ("isocone.lex_membership.self_s", "isocone.lex_membership", "self_s"),
    ("isocone.lex_induced_order.calls", "isocone.lex_induced_order", "calls"),
    ("isocone.min_cap_dot.calls", "isocone.min_cap_dot", "calls"),
    ("poset.leq.calls", "poset.FinitePoset.leq", "calls"),
    ("poset.strict_pairs.calls", "poset.FinitePoset.strict_pairs", "calls"),
    ("poset.strict_pairs.self_s", "poset.FinitePoset.strict_pairs", "self_s"),
    ("minkowski.causal_leq.calls", "minkowski.causal_leq", "calls"),
    ("minkowski.causal_leq.self_s", "minkowski.causal_leq", "self_s"),
    ("minkowski.lambda_leq.calls", "minkowski.lambda_leq", "calls"),
    ("minkowski.lambda_leq.self_s", "minkowski.lambda_leq", "self_s"),
    ("minkowski.penrose_inverse.calls", "minkowski.penrose_inverse", "calls"),
    ("minkowski.penrose_inverse.self_s", "minkowski.penrose_inverse", "self_s"),
    ("causal_cone.cone_condition_at.calls", "causal_cone.cone_condition_at", "calls"),
    ("causal_cone.cone_condition_at.self_s", "causal_cone.cone_condition_at", "self_s"),
    ("causal_cone.field_in_cone.self_s", "causal_cone.field_in_cone", "self_s"),
    ("causal_cone.spectral_distance.calls", "causal_cone.spectral_distance", "calls"),
    ("causal_cone.spectral_distance.self_s", "causal_cone.spectral_distance", "self_s"),
    ("causal_cone.MatrixField.from_json.self_s", "causal_cone.MatrixField.from_json",
     "self_s"),
    ("cli.load_config.self_s", "cli.load_config", "self_s"),
    ("cli.FutureSetGrid.to_csv.self_s", "cli.FutureSetGrid.to_csv", "self_s"),
    ("cli.FutureSetGrid.to_pgm.self_s", "cli.FutureSetGrid.to_pgm", "self_s"),
    ("cli.run.self_s", "cli.run", "self_s"),
]
UNITS = {"calls": "count", "self_s": "s"}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = 0
        os.environ[var] = str(min(cur, ncpu) if cur > 0 else ncpu)
    return int(os.environ[BLAS_VARS[0]])


def import_package():
    """(Re-)import nccausal from ``src/``; returns the package module."""
    for name in [m for m in sys.modules if m == "nccausal" or m.startswith("nccausal.")]:
        del sys.modules[name]
    nc = importlib.import_module("nccausal")
    importlib.import_module("nccausal.cli")
    return nc


class Bench:
    """Runs a workload's operations and keeps their times and outcomes."""

    def __init__(self, ops, work: Path):
        import checks  # numpy may load only after cap_blas_threads()
        self.checks = checks
        self.ops = ops
        work.mkdir(parents=True)
        self.paths, self.outs = [], []
        for k, op in enumerate(ops):
            path = work / f"op{k + 1}-{op.experiment}.json"
            path.write_text(json.dumps(op.config))
            self.paths.append(path)
            self.outs.append(work / f"out{k + 1}")
        self.times = [[] for _ in ops]
        self.reference = [None] * len(ops)
        self.attempted = self.failed = 0
        self.correct = True

    def setup(self) -> float:
        """Seconds to import the package and load every operation's config."""
        t0 = time.perf_counter()
        self.nc = import_package()
        self.cfgs = [self.nc.cli.load_config(str(p), op.experiment)
                     for p, op in zip(self.paths, self.ops)]
        return time.perf_counter() - t0

    def round(self, reload: bool = False) -> float:
        """Run every operation once; returns the summed ``run()`` seconds.

        With ``reload`` the configs are loaded again inside the round,
        so a traced round covers ``load_config`` too (untimed).  The
        first artifacts of each operation become its reference digests;
        later ones must match them.
        """
        cli = self.nc.cli
        wall = 0.0
        for k, op in enumerate(self.ops):
            cfg = cli.load_config(str(self.paths[k]), op.experiment) if reload else self.cfgs[k]
            shutil.rmtree(self.outs[k], ignore_errors=True)
            gc.collect()
            t0 = time.perf_counter()
            try:
                outcome = cli.run(cfg, str(self.outs[k]))
            except Exception as exc:  # an internal error fails the operation
                outcome = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            self.times[k].append(dt)
            wall += dt
            self.attempted += 1
            if outcome != 0:
                self._fail(op, f"run() returned {outcome!r}")
                continue
            digests = {name: hashlib.sha256(data).hexdigest()
                       for name, data in self.artifacts(k).items()}
            if self.reference[k] is None:
                self.reference[k] = digests
            elif digests != self.reference[k]:
                self._fail(op, "artifacts differ from the first run")
        return wall

    def artifacts(self, k: int) -> dict:
        """{file name: bytes} of operation ``k``'s latest run."""
        return {p.name: p.read_bytes() for p in sorted(self.outs[k].iterdir())}

    def check(self) -> None:
        """Check the latest artifacts of every operation that succeeded."""
        for k, op in enumerate(self.ops):
            if self.reference[k] is None:
                continue
            try:
                files = self.artifacts(k)
                self.checks.check_manifest(files, op.experiment, op.config["seed"])
                op.check(files, self.nc, op.params)
            except Exception as exc:  # any exception means the output is wrong
                self.correct = False
                print(f"# check failed: {op.experiment}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"# failed: {op.experiment}: {why}", file=sys.stderr)


def layer_metrics(bench: Bench, recorder, traced_wall: float, untraced_wall: float) -> dict:
    summary = recorder.summary()
    metrics = {}
    for metric, span, field in SPAN_METRICS:
        calls, self_s = summary.get(span, (0, 0.0))
        metrics[metric] = {"value": calls if field == "calls" else self_s,
                           "unit": UNITS[field]}
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = {
            "value": sum(s for name, (_, s) in summary.items() if name.startswith(mod + ".")),
            "unit": "s"}
    constructions = recorder.counters["hermitian.HermMat.constructions"][0]
    metrics["hermitian.HermMat.constructions"] = {"value": constructions, "unit": "count"}
    artifact_bytes = flagged = eliminated = 0
    for k, op in enumerate(bench.ops):
        files = bench.artifacts(k)
        artifact_bytes += sum(len(data) for data in files.values())
        if op.experiment == "saturate":
            f, e = bench.checks.saturate_counts(files)
            flagged, eliminated = flagged + f, eliminated + e
    metrics["cli.artifact_bytes"] = {"value": artifact_bytes, "unit": "bytes"}
    metrics["saturate.flagged_coarse"] = {"value": flagged, "unit": "count"}
    metrics["saturate.eliminated"] = {"value": eliminated, "unit": "count"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(recorder.start), "unit": "count"}
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, blas: int) -> dict:
    import numpy as np
    import spans
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    work = OUT / f"{workload}-{os.getpid()}"
    try:
        bench = Bench(ops, work)
        budget = seconds / 2 if trace else seconds
        t0 = time.perf_counter()
        setup = [bench.setup() for _ in range(SETUP_REPEATS)]
        walls = [bench.round()]
        # Peak memory of set-up and one round, before the checks add their own.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.check()
        step = 0.0  # the last set-up plus round; no round starts that would overrun
        while time.perf_counter() - t0 + step < budget:
            # Set-ups are spread over the run like the rounds, so that both
            # sample the same stretches of machine noise.
            t1 = time.perf_counter()
            setup.append(bench.setup())
            walls.append(bench.round())
            step = time.perf_counter() - t1
        wall = statistics.median(walls)
        print(f"# {workload} seed={seed} rounds={len(walls)} blas_threads={blas} "
              f"python={platform.python_version()} numpy={np.__version__}")
        for k, op in enumerate(ops):
            t = bench.times[k]
            print(f"# op{k + 1} {op.experiment}: run() median {statistics.median(t):.4f} s, "
                  f"min {min(t):.4f} s, max {max(t):.4f} s over {len(t)}")
        if trace:
            recorder = spans.Recorder()
            recorder.install(bench.nc, MODULES)
            recorder.count(bench.nc.hermitian.HermMat, "__init__",
                           "hermitian.HermMat.constructions")
            traced_wall = bench.round(reload=True)
            recorder.write(OUT / f"trace-{workload}.npz")
            metrics = layer_metrics(bench, recorder, traced_wall, wall)
            print(f"# traced round {traced_wall:.4f} s against untraced median "
                  f"{wall:.4f} s")
        else:
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                       "wall_s": {"value": wall, "unit": "s"}}
            for k in range(len(ops)):
                metrics[f"op{k + 1}_s"] = {"value": statistics.median(bench.times[k]),
                                           "unit": "s"}
            metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": bench.correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def write_digests(path: Path) -> int:
    """Write SHA-256 digests of every workload's artifacts at ``DIGEST_SEED``."""
    import workloads

    result = {"seed": DIGEST_SEED, "workloads": {}}
    ok = True
    for name, make in workloads.WORKLOADS.items():
        ops = make(DIGEST_SEED)
        work = OUT / f"digests-{name}-{os.getpid()}"
        try:
            bench = Bench(ops, work)
            bench.setup()
            bench.round()
            bench.check()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ok = ok and bench.correct and not bench.failed
        result["workloads"][name] = [
            {"experiment": op.experiment, "files": bench.reference[k]}
            for k, op in enumerate(ops)]
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}" + ("" if ok else " (some outputs failed their checks)"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("grids", "orders"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=None,
                        help="write reference artifact digests to this file and exit")
    args = parser.parse_args(argv)
    if args.digests is None and args.workload is None:
        parser.error("--workload or --digests is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.environ.pop("NC_CAUSAL_SEED", None)  # it would override the configured seed
    blas = cap_blas_threads()  # before numpy is imported
    if not (SRC / "nccausal" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nc = import_package()
    if Path(nc.__file__).resolve().parent != (SRC / "nccausal").resolve():
        print(f"error: imported nccausal from {nc.__file__}", file=sys.stderr)
        return 2

    if args.digests is not None:
        return write_digests(args.digests)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), blas)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
