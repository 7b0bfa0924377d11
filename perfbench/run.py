"""Benchmark of `gppca evaluate`'s protocol, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload artificial-sparse --seed 0 --seconds 25 --trace 0

Run from the repository root: the program is imported from `src/`. One run

1. times the set-up (interpreter, imports, configuration) in fresh child
   processes, two before the rounds and one after each round, and takes
   the median;
2. makes the workload's inputs from --seed (`workloads.py`);
3. runs whole rounds of the protocol (`protocol.py`: the program's
   `run_experiment` and `write_report_files`, with the outputs captured)
   until the rounds add up to --seconds;
4. checks every output of the first round against the benchmark's own
   computations (`checks.py`) and requires every later round to reproduce it
   bit for bit;
5. with --trace 1, runs one more round with spans around each layer
   (`spans.py`) and reports the per-layer metrics instead.

BLAS runs on one thread (README, "BLAS threads"). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PROBES_FIRST = 2  # then one after every timed round


def _use_sources() -> None:
    if not (ROOT / "src" / "gppca" / "__init__.py").is_file():
        sys.exit(f"no gppca sources under {ROOT / 'src'}; run from the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload: str):
    """What a `gppca evaluate` process does before its first cell."""
    import gppca.cli  # noqa: F401  (the console script's imports)
    import workloads

    return workloads.WORKLOADS[workload].config()


def _probe_setup(args) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload],
        check=True, cwd=ROOT,
    )
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse(argv)
    _use_sources()
    if args.setup_probe:
        _setup(args.workload)
        return 0
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")

    import checks
    import protocol
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup_times = []

    def probe():  # spread over the run, so that a slow stretch of the machine weighs less
        if not args.trace:
            setup_times.append(_probe_setup(args))

    for _ in range(SETUP_PROBES_FIRST):
        probe()
    cfg = _setup(args.workload)
    inputs = workloads.cell_inputs(cfg, args.seed)
    outdir = OUT / f"{args.workload}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)

    rounds = [protocol.run_round(cfg, inputs, outdir, keep_cells=True)]
    probe()
    while sum(r.wall_s for r in rounds) < args.seconds:
        rounds.append(protocol.run_round(cfg, inputs, outdir))
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    first = rounds[0]

    # Verdicts on the first round; every later round must reproduce it exactly.
    per_cell = [
        checks.check_cell(c, inputs[(c.repetition, c.n)].operations, cfg.adapt_opts.rel_tol)
        for c in first.cells
    ]
    report_verdict = checks.check_report(first.cells, outdir)
    if args.trace:
        tracer = Tracer()
        traced = protocol.run_round(cfg, inputs, outdir, tracer=tracer)
        rounds_checked = [*rounds, traced]
    else:
        rounds_checked = rounds
    reproduced = all(
        (r.outputs_digest, r.report_digest) == (first.outputs_digest, first.report_digest)
        for r in rounds_checked
    )

    faults, examples, worst_pass = {}, {}, {}
    for v in per_cell:
        for label, count in v.failed.items():
            faults[label] = faults.get(label, 0) + count
        for label, detail in v.examples.items():
            examples.setdefault(label, detail)
        for check, ratio in v.worst_pass.items():
            worst_pass[check] = max(worst_pass.get(check, 0.0), ratio)
    per_round = sum(v.attempted for v in per_cell)
    attempted = per_round * len(rounds_checked)
    failed = sum(faults.values()) * len(rounds_checked)
    correct = report_verdict.ok and reproduced

    quality = protocol.quality(first.cells, first.report)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} timed rounds")
    for name in ("wall", "train", "adapt", "predict"):
        print(f"  {name} seconds per round: {[round(getattr(r, name + '_s'), 4) for r in rounds]}")
    print(f"report files sha256 {first.report_digest}; outputs sha256 {first.outputs_digest}")
    print(f"operations per round {per_round}; failed per round by fault: {faults}")
    for label, detail in examples.items():
        print(f"  first failure of {label}: {detail}")
    print("largest |difference| / tolerance among passes: "
          + ", ".join(f"{k} {v:.3g}" for k, v in sorted(worst_pass.items())))
    gaps = [g for v in per_cell for g in v.numbers.get("adapt_gaps", [])]
    if gaps:
        print(f"check 4 gaps above the line minimum (nats) over {len(gaps)} adaptations: "
              f"min {min(gaps):.3g}, median {statistics.median(gaps):.3g}, max {max(gaps):.3g}")
    for c, v in zip(first.cells, per_cell):
        if c.error:
            print(f"  cell N={c.n} rep={c.repetition}: raised {c.error}")
            continue
        fit = c.model.fit_result
        rmse = quality["cell_rmse"]
        print(
            f"  cell N={c.n} rep={c.repetition}: fit iterations {fit.iterations} "
            f"converged {fit.converged} objective {fit.objective:.4f} "
            f"(single Gaussian {v.numbers['single_gaussian']:.4f}); test rmse "
            f"gp {rmse[('gp', 'test', c.n, c.repetition)]:.4f} "
            f"gp_epca {rmse[('gp_epca', 'test', c.n, c.repetition)]:.4f}; train rmse "
            f"gp {rmse[('gp', 'train', c.n, c.repetition)]:.4f} "
            f"gp_epca {rmse[('gp_epca', 'train', c.n, c.repetition)]:.4f}"
        )
    if not report_verdict.ok:
        print(f"check 6 failed: {report_verdict.detail}")
    if not reproduced:
        print("a later round did not reproduce the first round's outputs")

    if args.trace:
        untraced = statistics.median(r.wall_s for r in rounds)
        layer = tracer.metrics(traced.wall_s)
        layer["trace.overhead_s"] = (traced.wall_s - untraced, "s")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        adapt_s = sum(r.adapt_s for r in rounds)
        predict_s = sum(r.predict_s for r in rounds)
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "train_s": (statistics.median(r.train_s for r in rounds), "s"),
            "adapt_per_s": (sum(r.adapted for r in rounds) / adapt_s if adapt_s else 0.0, "tasks/s"),
            "predict_per_s": (sum(r.predict_points for r in rounds) / predict_s if predict_s else 0.0,
                              "points/s"),
            "test_rmse": (quality["test_rmse"], "y"),
            "train_rmse": (quality["train_rmse"], "y"),
            "fit_objective": (quality["fit_objective"], "nats"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
