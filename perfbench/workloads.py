"""The benchmark's four workloads, run in process through invisiscat's public API.

Each workload is a list of operations (a solve, a suite, a cubature check
or a scan).  ``Workload.ops`` are timed; ``Workload.check`` compares one
operation's output (and, where needed, the outputs of earlier
operations of the same run) with an independent reference and returns its
relative deviation, raising ``CheckFailed`` when it is out of tolerance.
References are computed when the workload is built or inside ``check``,
never inside the timed operations.

Workloads call only names listed in each module's ``__all__`` and pass
only arguments that the CLI or the experiment suites already pass, so
that internals can be replaced without editing the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import references as ref
from invisiscat import cgo, experiments, geometry, medium, quadrature, radial, source, transmission


class CheckFailed(AssertionError):
    """An operation's output disagrees with its independent reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Workload:
    ops: list  # (label, fn(outputs) -> output), run in order; later ops may read earlier outputs
    check: Callable[[str, dict], float]  # (label, outputs by label) -> relative deviation
    sizes: dict = field(default_factory=dict)


def _disk(R: float, n: int = 2):
    return geometry.Domain([geometry.BallComponent([0.0] * n, R, dim=n)])


def _uniform_angles(count: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)


def _check_roots(pairs, R: float, v0: float, n: int, k_max: float, modes) -> None:
    for p in pairs:
        _require(0.0 < p.k_eig <= k_max, f"root {p.k_eig!r} outside (0, {k_max}]")
        _require(ref.brackets_root(R, v0, n, p.mode, p.k_eig),
                 f"n={n} mode {p.mode}: no sign change within 1e-9 of {p.k_eig!r}")
    for m in modes:
        found = sum(p.mode == m for p in pairs)
        want = ref.root_count(R, v0, n, m, k_max)
        _require(found == want, f"n={n} mode {m}: {found} roots returned, reference scan finds {want}")


# ---------------------------------------------------------------------------
# ls_single: two large Lippmann-Schwinger solves
# ---------------------------------------------------------------------------

MIE = dict(k=0.5, R=1.0, v0=1.0, spacing=2.2 / 256, n_dirs=72, tol=1e-3)
EIGEN = dict(R=1.0, v0=15.0, k_max=1.2, spacing=2.2 / 384, tol=1e-11, n_quad=128, n_dirs=64, silent=1e-3)


def ls_single(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    inc = float(rng.uniform(0.0, 2.0 * math.pi))
    k, R, v0 = MIE["k"], MIE["R"], MIE["v0"]
    mie_scene = medium.MediumScene(_disk(R), v0, k, medium.PlaneWave([math.cos(inc), math.sin(inc)]))
    angles = _uniform_angles(MIE["n_dirs"])
    mie_ref = radial.mie_disk_far_field(k, R, v0, angles, inc_angle=inc)
    # radial's series runs on invisiscat.specfun; pin it to the scipy series as well.
    scipy_ref = ref.mie_disk_far_field(k, R, v0, angles, inc)
    _require(np.max(np.abs(mie_ref - scipy_ref)) <= 1e-10 * np.max(np.abs(scipy_ref)),
             "radial.mie_disk_far_field disagrees with the scipy Mie series")
    itp = transmission.RadialITP(R=EIGEN["R"], v0=EIGEN["v0"])
    sizes = {"plane_wave_angle": inc}

    def mie_solve(_):
        sol = medium.solve_ls(mie_scene, spacing=MIE["spacing"])
        ff = medium.scattered_far_field(mie_scene, sol, MIE["n_dirs"])
        return sol.method, sol.grid.shape, ff

    def eigen_scan(_):
        return transmission.find_eigenvalues(itp, EIGEN["k_max"])

    def eigen_solve(out):
        pair = out["eigen_scan"][0]
        density = transmission.eigen_incident_density(pair)
        wave = medium.HerglotzWave(density, n_quad=EIGEN["n_quad"])
        scene = medium.MediumScene(_disk(itp.R), itp.v0, pair.k_eig, wave)
        sol = medium.solve_ls(scene, tol=EIGEN["tol"], spacing=EIGEN["spacing"])
        ff = medium.scattered_far_field(scene, sol, EIGEN["n_dirs"])
        # The Herglotz wave is c J_0(k r), whose sup is |c| = 2 pi |density|.
        amplitude = 2.0 * math.pi * abs(complex(density(np.zeros(1))[0]))
        return sol.method, sol.grid.shape, ff.sup_norm(), amplitude

    def check(label, outputs):
        out = outputs[label]
        if label == "mie_solve":
            method, shape, ff = out
            sizes["mie_solve"] = {"grid": list(shape), "unknowns": int(np.prod(shape)), "method": method}
            _require(np.allclose(ff.angles[:, 0], angles, rtol=0, atol=1e-14), "far-field directions moved")
            err = float(np.max(np.abs(ff.values - mie_ref)) / np.max(np.abs(mie_ref)))
            _require(err < MIE["tol"], f"Mie far-field mismatch {err:.3e}")
            return err
        if label == "eigen_scan":
            _require(len(out) > 0, "no eigenvalue below k_max")
            _check_roots(out, itp.R, itp.v0, 2, EIGEN["k_max"], [0])
            return 0.0
        method, shape, ff_sup, amplitude = out
        sizes["eigen_solve"] = {"grid": list(shape), "unknowns": int(np.prod(shape)), "method": method}
        err = ff_sup / amplitude
        _require(err < EIGEN["silent"], f"eigen-incident far field not silent: {err:.3e}")
        return err

    ops = [("mie_solve", mie_solve), ("eigen_scan", eigen_scan), ("eigen_solve", eigen_solve)]
    return Workload(ops, check, sizes)


# ---------------------------------------------------------------------------
# suites: all six experiment suites at their frozen defaults
# ---------------------------------------------------------------------------

SUITE_TOL = 1e-2  # grid and quadrature far fields against Bessel and Mie series
# Defaults of run_smallness_source and run_medium_visibility, which the references need.
SMALLNESS_K = 1.0
MEDIUM = dict(k=0.4, v0=0.1, n_dirs=48)


def suites(seed: int) -> Workload:
    # The suites keep their defaults (calibration.json was frozen on them),
    # so the seed changes nothing here.
    del seed
    names = list(experiments.SUITES)
    first_tables = {}
    sizes = {"suites": names, "workers": experiments.worker_count()}

    def make_op(name):
        def op(_):
            res = experiments.SUITES[name]()
            return res.passed, res.counterexamples, res.rows, res.columns
        return op

    def reference_error(name, rows) -> float:
        if name == "smallness_source":
            wants = [(r["far_field_sup"], ref.disk_source_far_field_sup(SMALLNESS_K, r["radius"]))
                     for r in rows if not r["radiationless_expected"]]
        elif name == "medium_visibility":
            angles = _uniform_angles(MEDIUM["n_dirs"])
            wants = [(r["far_field_sup"], float(np.max(np.abs(ref.mie_disk_far_field(
                MEDIUM["k"], r["size"], MEDIUM["v0"], angles, 0.0))))) for r in rows if r["kind"] == "disk"]
        else:
            return 0.0
        _require(len(wants) > 0, f"{name}: no rows with a closed-form reference")
        return max(abs(got - want) / want for got, want in wants)

    def check(label, outputs):
        passed, counterexamples, rows, columns = outputs[label]
        _require(passed and counterexamples == 0,
                 f"{label}: passed={passed}, {counterexamples} counterexamples")
        table = repr([[row.get(c) for c in columns] for row in rows])
        first = first_tables.setdefault(label, table)
        _require(table == first, f"{label}: table differs from the first run in this process")
        err = reference_error(label, rows)
        _require(err < SUITE_TOL, f"{label}: far field off its closed form by {err:.3e}")
        return err

    return Workload([(n, make_op(n)) for n in names], check, sizes)


# ---------------------------------------------------------------------------
# fields_spectra: source fields on the CLI field grid and transmission spectra
# ---------------------------------------------------------------------------

FIELD = dict(k=2.0, R=1.0, grid=16, tol=1e-2)
SPECTRA = dict(v0=15.0, k_max=4.0, modes=[0, 1, 2])
SCALING_TOL = 1e-9


def fields_spectra(seed: int) -> Workload:
    # The seed sets nothing here: the targets are the grid that
    # ``invisiscat source --fields --grid 16`` samples, and the spectra are fixed.
    del seed
    k, R = FIELD["k"], FIELD["R"]
    axis = np.linspace(-1.5 * R, 1.5 * R, FIELD["grid"])
    targets = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    field_ref = ref.disk_source_field(k, R, targets)
    scene = source.SourceScene(_disk(R), 1.0, k, 2)
    v0, k_max, modes = SPECTRA["v0"], SPECTRA["k_max"], SPECTRA["modes"]
    itps = {
        "scan_2d": transmission.RadialITP(R=1.0, v0=v0, n=2),
        "scan_3d": transmission.RadialITP(R=1.0, v0=v0, n=3),
        "scan_2d_R2": transmission.RadialITP(R=2.0, v0=v0, n=2),
    }
    k_maxes = {"scan_2d": k_max, "scan_3d": k_max, "scan_2d_R2": k_max / 2.0}
    # The scaling check needs one mode only.
    scan_modes = {"scan_2d": modes, "scan_3d": modes, "scan_2d_R2": modes[:1]}
    sizes = {"field_targets": len(targets), "field_k": k, "scans": {
        lbl: {"R": itps[lbl].R, "n": itps[lbl].n, "k_max": k_maxes[lbl], "modes": scan_modes[lbl]}
        for lbl in itps}}

    def field_op(_):
        return source.solve_field(scene, targets)

    def make_scan(lbl):
        return lambda _: transmission.find_eigenvalues(itps[lbl], k_maxes[lbl], modes=scan_modes[lbl])

    def check(label, outputs):
        out = outputs[label]
        if label == "field":
            err = float(np.max(np.abs(out - field_ref)) / np.max(np.abs(field_ref)))
            _require(err < FIELD["tol"], f"disk field off Graf's closed form by {err:.3e}")
            return err
        itp = itps[label]
        _check_roots(out, itp.R, itp.v0, itp.n, k_maxes[label], scan_modes[label])
        sizes.setdefault("roots", {})[label] = len(out)
        if label != "scan_2d_R2":
            return 0.0
        # Doubling the radius halves every eigenvalue.
        half = sorted(p.k_eig / 2.0 for p in outputs["scan_2d"] if p.mode in scan_modes[label])
        got = sorted(p.k_eig for p in out)
        _require(len(got) == len(half), "R=2 scan found a different number of roots than R=1")
        dev = max(abs(a - b) / b for a, b in zip(got, half))
        _require(dev < SCALING_TOL, f"R=2 roots deviate from half the R=1 roots by {dev:.3e}")
        return dev

    ops = [("field", field_op)] + [(lbl, make_scan(lbl)) for lbl in itps]
    return Workload(ops, check, sizes)


# ---------------------------------------------------------------------------
# cgo_oracle: paraboloid and shell closed forms against adaptive cubature
# ---------------------------------------------------------------------------

CGO = dict(samples=25, tol=1e-8, dims=(2, 3), seed=20240917)


def _cgo_params(n: int, samples: int):
    """The draws ``invisiscat cgo-verify --n N`` makes at its default seed, in its order."""
    rng = np.random.default_rng(CGO["seed"])
    out = []
    for _ in range(samples):
        K = float(rng.uniform(0.5, 100.0))
        tau = float(rng.uniform(0.5, min(50.0, 20.0 * K)))
        km = float(rng.uniform(0.5, 50.0))
        kp = km * float(rng.uniform(1.0 + 1e-3, 3.0))
        h = float(rng.uniform(0.1, 2.0))
        out.append((K, tau, km, kp, h))
    return out


def cgo_oracle(seed: int) -> Workload:
    # The samples are not drawn from the seed: the cubature cost of one sample
    # ranges over 100x (small K with large tau in 3-D dominates), so seeded
    # samples made the run time vary by 65% from seed to seed.
    del seed
    tol = CGO["tol"]
    ops = []
    for n in CGO["dims"]:
        for i, (K, tau, km, kp, h) in enumerate(_cgo_params(n, CGO["samples"])):
            ops.append((f"paraboloid_n{n}_{i}", _paraboloid_check(n, K, tau, tol)))
            ops.append((f"shell_n{n}_{i}", _shell_check(n, tau, km, kp, h, tol)))

    def check(label, outputs):
        got, want = outputs[label]
        if label.startswith("paraboloid"):
            err = abs(got - want) / abs(want)
        else:
            err = abs(got - want) / (1.0 + abs(want))
        _require(err <= tol, f"{label}: closed form and cubature differ by {err:.3e}")
        return err

    sizes = {"samples_per_dim": CGO["samples"], "dims": list(CGO["dims"]), "tol": tol, "cli_seed": CGO["seed"]}
    return Workload(ops, check, sizes)


def _paraboloid_check(n, K, tau, tol):
    def op(_):
        vec = cgo.CgoVector.canonical(tau, n)
        want = cgo.cgo_over_parabola(vec, K)
        cub_tol = max(tol * abs(want) / (1.0 + abs(want)) * 0.1, 1e-13)
        got = quadrature.integrate(vec.field, quadrature.ParaboloidCap(K, dim=n, decay_rate=tau), tol=cub_tol)
        return got, want
    return op


def _shell_check(n, tau, km, kp, h, tol):
    def op(_):
        want = cgo.cgo_sliced(tau, km, kp, h, n)
        got = quadrature.integrate(
            lambda p: np.exp(-tau * p[:, -1]),
            quadrature.AnnularParaboloid(km, kp, h, dim=n),
            tol=max(tol * 0.1, 1e-12),
        )
        return got, want
    return op


WORKLOADS = {
    "ls_single": ls_single,
    "suites": suites,
    "fields_spectra": fields_spectra,
    "cgo_oracle": cgo_oracle,
}
