"""invisiscat benchmark: four workloads run in process through the public API.

    python3 perfbench/run.py --workload ls_single --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times whole passes over the workload for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` makes one warm-up pass,
then alternates untraced passes with passes in which every public layer
function is wrapped, and prints per-layer metrics plus the tracing
overhead.

Every operation's output is compared with an independent reference
outside the timed region.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON record of the machine, the problem sizes
and the raw samples.  Exit code 0 when every check passed, 1 when any
operation failed or disagreed with its reference, 2 when the program
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import TARGETS, Tracer, suite_targets

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


class ProgramMissing(RuntimeError):
    """invisiscat cannot be imported from this checkout's src/."""


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import invisiscat
    except ImportError as exc:
        raise ProgramMissing(f"cannot import invisiscat from {src}: {exc}") from exc
    if not Path(invisiscat.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"invisiscat was imported from {invisiscat.__file__}, not from {src}")
    return invisiscat


def setup_probe(args) -> int:
    """Child process: time importing the program and building the workload's scenes."""
    t0 = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_info(invisiscat) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "worker_count": invisiscat.experiments.worker_count(),
    }


def summarize(samples: list) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None, "samples": samples}
    if n >= 11:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return out


def run_iteration(workload, tracer=None):
    """Run every operation once; time the whole pass, then check each output."""
    outputs, errors = {}, {}
    if tracer is not None:
        tracer.reset()
    c0, t0 = time.process_time(), time.perf_counter()
    for label, fn in workload.ops:
        try:
            outputs[label] = fn(outputs)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            errors[label] = "".join(traceback.format_exception_only(exc)).strip()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    layers = layer_metrics(tracer, wall) if tracer is not None else None
    failures, worst = [], 0.0
    for label, _ in workload.ops:
        if label in errors:
            failures.append(f"{label}: raised {errors[label]}")
            continue
        try:
            worst = max(worst, float(workload.check(label, outputs)))
        except Exception as exc:  # a check that fails or cannot run counts as failed
            if not isinstance(exc, AssertionError):  # a failed check needs no traceback
                traceback.print_exc()
            failures.append(f"{label}: {''.join(traceback.format_exception_only(exc)).strip()}")
    return wall, cpu, failures, worst, layers


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced iteration
# ---------------------------------------------------------------------------

SUITE_NAMES = [
    "smallness_source",
    "curvature_source",
    "medium_visibility",
    "schiffer_separation",
    "schiffer_counting",
    "curvature_uniqueness",
]

# Names, units and order match the per_layer list in BENCHMARK.json.
LAYER_UNITS = {
    "kernels.make_support_grid.s": "s",
    "kernels.make_support_grid.cells": "count",
    "kernels.GridConvolver.build.s": "s",
    "kernels.GridConvolver.build.builds": "count",
    "kernels.GridConvolver.build.table_points": "count",
    "kernels.GridConvolver.build.distinct_ratio": "1",
    "kernels.GridConvolver.apply.s": "s",
    "kernels.GridConvolver.apply.applies": "count",
    "kernels.GridConvolver.apply.fft_points": "count",
    "kernels.GridConvolver.apply.s_per_apply": "s",
    "medium.solve_ls.s": "s",
    "medium.solve_ls.calls": "count",
    "medium.solve_ls.unknowns": "count",
    "medium.solve_ls.applies_per_solve": "count",
    "medium.solve_ls.picard": "count",
    "medium.solve_ls.gmres": "count",
    "medium.estimate_c0.s": "s",
    "medium.estimate_c0.calls": "count",
    "medium.incident.s": "s",
    "medium.scattered_far_field.s": "s",
    "specfun.hankel1_grid.s": "s",
    "specfun.hankel1_grid.points": "count",
    "source.solve_field.s": "s",
    "source.solve_field.targets": "count",
    "source.far_field.s": "s",
    "source.radiationless_radius.s": "s",
    "transmission.find_eigenvalues.s": "s",
    "transmission.itp_determinant.calls": "count",
    "transmission.roots_per_eval": "1",
    "quadrature.integrate_full.s": "s",
    "quadrature.integrate_full.calls": "count",
    "quadrature.integrate_full.evals": "count",
    "quadrature.integrate_full.evals_per_s": "1/s",
    "cgo.closed_form.s": "s",
    "holder.holder_norm.s": "s",
    "holder.holder_norm.calls": "count",
    **{f"experiments.{name}.s": "s" for name in SUITE_NAMES},
    "experiments.pool_utilization": "1",
    "other.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float) -> dict:
    """Self times and counters of one traced iteration of wall time ``wall``."""
    from invisiscat import experiments

    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    out = {}
    for name, unit in LAYER_UNITS.items():
        if unit == "s" and name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith(".calls") and name[:-6] in calls:
            out[name] = float(calls[name[:-6]])
        else:
            out[name] = float(counts.get(name, 0.0))
    builds = counts.get("kernels.GridConvolver.build.builds", 0.0)
    applies = counts.get("kernels.GridConvolver.apply.applies", 0.0)
    solves = calls.get("medium.solve_ls", 0)
    out["kernels.GridConvolver.build.distinct_ratio"] = _ratio(len(tracer.build_keys), builds)
    out["kernels.GridConvolver.apply.s_per_apply"] = _ratio(out["kernels.GridConvolver.apply.s"], applies)
    out["medium.solve_ls.applies_per_solve"] = _ratio(counts.get("medium.solve_ls.applies", 0.0), solves)
    out["transmission.roots_per_eval"] = _ratio(
        counts.get("transmission.roots", 0.0), counts.get("transmission.itp_determinant.calls", 0.0))
    out["quadrature.integrate_full.evals_per_s"] = _ratio(
        out["quadrature.integrate_full.evals"], out["quadrature.integrate_full.s"])
    out["experiments.pool_utilization"] = tracer.pool_utilization(experiments.worker_count())
    out["other.s"] = wall - sum(self_s.values())
    out["trace.wall_s"] = wall
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


class Samples:
    """Timings, counts and check results gathered over iterations."""

    def __init__(self):
        self.walls, self.cpus, self.layers, self.failures = [], [], [], []
        self.attempted, self.worst = 0, 0.0

    def run(self, workload, tracer=None):
        wall, cpu, failures, worst, layers = run_iteration(workload, tracer)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.attempted += len(workload.ops)
        self.failures += failures
        self.worst = max(self.worst, worst)
        if layers is not None:
            self.layers.append(layers)


def measure(workload, seconds: float) -> Samples:
    """Timed passes for ``seconds``.

    The first pass is timed too: every CLI command pays it in a fresh
    process, and a warm-up pass would take time that is better spent
    averaging over this machine's short-term speed changes.
    """
    samples = Samples()
    start = time.perf_counter()
    while not samples.walls or time.perf_counter() - start < seconds:
        samples.run(workload)
    return samples


def measure_traced(workload, seconds: float, tracer) -> tuple:
    """One warm-up pass, then untraced and traced passes in turn for ``seconds``."""
    untraced, traced = Samples(), Samples()
    untraced.run(workload)
    untraced.walls.clear()
    untraced.cpus.clear()
    start = time.perf_counter()
    while not traced.walls or time.perf_counter() - start < seconds:
        untraced.run(workload)
        tracer.install(TARGETS + suite_targets())
        try:
            traced.run(workload, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ls_single", "suites", "fields_spectra", "cgo_oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    try:
        invisiscat = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    setup = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(invisiscat)}

    if args.trace:
        tracer = Tracer()
        untraced, traced = measure_traced(workload, args.seconds, tracer)
        values = {name: statistics.fmean(lay[name] for lay in traced.layers) for name in LAYER_UNITS
                  if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = statistics.median(traced.walls) / statistics.median(untraced.walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        record.update(untraced_wall_s=summarize(untraced.walls), traced_wall_s=summarize(traced.walls),
                      absent=tracer.absent)
        failures = untraced.failures + traced.failures
        attempted = untraced.attempted + traced.attempted
        worst = max(untraced.worst, traced.worst)
    else:
        run = measure(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(run.cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "accuracy_digits": {"value": -math.log10(max(run.worst, 1e-16)), "unit": "digits"},
        }
        record.update(wall_s=summarize(run.walls), cpu_s=summarize(run.cpus))
        failures, attempted, worst = run.failures, run.attempted, run.worst

    record.update(sizes=workload.sizes, setup_s_samples=setup, worst_rel_err=worst,
                  fail_ratio=len(failures) / attempted, failures=failures)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
