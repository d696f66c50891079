"""Command-line front end.

    invisiscat source scene.json --farfield ff.csv [--fields u.csv]
    invisiscat medium scene.json --farfield ff.csv [--fields u.csv]
    invisiscat teig itp.json --kmax 4 --modes 0,1 --out eigs.csv
    invisiscat cgo-verify --n 2 --samples 20 --tol 1e-8
    invisiscat experiment NAME [config.json] --out DIR

Exit codes: 0 success, 1 suite assertion failure, 2 configuration
error, 3 numerical failure.  ``main`` alone maps exceptions to codes:
``errors.ConfigError`` (``SceneError``, ``InadmissiblePerturbation``
and every bad flag) and ``OSError`` exit 2 with an ``error:`` line;
``errors.NumericalFailure`` (``PrecondViolated``, ``NotContractive``,
``BudgetExceeded`` and ``QuadratureFailure``) exits 3 with a
``numerical failure:`` line.  ``teig`` writes an empty table for
``NoneFound``, so it exits 0.  Flags are checked before any work
starts.  Any other exception is a bug and ends in its traceback.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import sys

import numpy as np

from .cgo import CgoVector, cgo_over_parabola, cgo_sliced
from .errors import ConfigError, NumericalFailure
from .experiments import SUITES, write_outputs
from .kernels import _MAX_CELLS
from .medium import scattered_far_field, solve_ls
from .quadrature import AnnularParaboloid, ParaboloidCap, integrate
from .scenes import load_itp, load_medium_scene, load_source_scene, read_json
from .source import MIN_DIRS, far_field, solve_field
from .transmission import NoneFound, find_eigenvalues

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_field_csv(path, pts, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i+1}" for i in range(pts.shape[1])] + ["re", "im"])
        for p, v in zip(pts, values):
            writer.writerow(
                [repr(float(c)) for c in p]
                + [repr(float(v.real)), repr(float(v.imag))]
            )


def _field_grid(domain, n):
    lo, hi = domain.bounding_box()
    span = np.max(hi - lo)
    c = 0.5 * (lo + hi)
    lo = c - 0.75 * span
    hi = c + 0.75 * span
    axes = [np.linspace(lo[d], hi[d], n) for d in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value before any work starts."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value!r}")


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _finite_number(x) -> bool:
    """A JSON number, not a bool, within the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _check_suite_value(flag: str, default, value) -> None:
    """Reject a suite config value that is not of its default's kind.

    Values are not coerced: an int given for a float parameter stays an
    int, as the suite would print it.
    """
    if isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
        _require(ok, flag, "an integer >= 0", value)
    elif isinstance(default, float):
        _require(_finite_number(value), flag, "a finite number", value)
    else:  # a tuple of numbers
        ok = isinstance(value, list) and len(value) > 0 and all(map(_finite_number, value))
        _require(ok, flag, "a non-empty list of finite numbers", value)


def cmd_source(args) -> int:
    _require(args.dirs >= MIN_DIRS, "--dirs", f"at least {MIN_DIRS}", args.dirs)
    _require(args.grid >= 1, "--grid", "at least 1", args.grid)
    scene = load_source_scene(read_json(args.scene))
    ok = args.grid**scene.n <= _MAX_CELLS
    _require(ok, "--grid", f"at most {_MAX_CELLS} points in all (grid^{scene.n})", args.grid)
    ff = far_field(scene, args.dirs)
    if args.farfield:
        ff.to_csv(args.farfield)
    if args.farfield_json:
        ff.to_json(args.farfield_json)
    if args.fields:
        pts = _field_grid(scene.domain, args.grid)
        _write_field_csv(args.fields, pts, solve_field(scene, pts))
    print(f"far-field sup norm: {ff.sup_norm()!r}")
    return EXIT_OK


def cmd_medium(args) -> int:
    _require(args.dirs >= 1, "--dirs", "at least 1", args.dirs)
    spacing = args.spacing
    _require(spacing is None or _positive(spacing), "--spacing", "finite and positive", spacing)
    scene = load_medium_scene(read_json(args.scene))
    sol = solve_ls(scene, spacing=spacing)
    ff = scattered_far_field(scene, sol, args.dirs)
    if args.farfield:
        ff.to_csv(args.farfield)
    if args.fields:
        _write_field_csv(args.fields, sol.grid.points, sol.u)
    print(
        f"scattered far-field sup norm: {ff.sup_norm()!r} "
        f"({sol.method}, {len(sol.residuals)} residuals logged)"
    )
    return EXIT_OK


def cmd_teig(args) -> int:
    _require(_positive(args.kmax), "--kmax", "finite and positive", args.kmax)
    modes = args.modes.split(",")
    _require(
        all(m.strip().isdecimal() for m in modes),
        "--modes", "a comma-separated list of nonnegative integers", args.modes,
    )
    itp = load_itp(read_json(args.config))
    try:
        pairs = find_eigenvalues(itp, args.kmax, modes=[int(m) for m in modes])
    except NoneFound:  # no eigenvalue below --kmax is a result, not a failure
        pairs = []
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "index", "k_eig", "boundary_value_u"])
        counts = {}
        for p in pairs:
            counts[p.mode] = counts.get(p.mode, 0) + 1
            u_R = abs(p.u(np.array([itp.R]))[0])
            writer.writerow(
                [p.mode, counts[p.mode], repr(p.k_eig), repr(float(u_R))]
            )
    print(f"{len(pairs)} eigenvalues written to {args.out}")
    return EXIT_OK


def cmd_cgo_verify(args) -> int:
    _require(_positive(args.tol), "--tol", "finite and positive", args.tol)
    _require(args.samples >= 1, "--samples", "at least 1", args.samples)
    _require(args.seed >= 0, "--seed", "nonnegative", args.seed)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    for _ in range(args.samples):
        n = args.n
        K = float(rng.uniform(0.5, 100.0))
        tau = float(rng.uniform(0.5, min(50.0, 20.0 * K)))
        vec = CgoVector.canonical(tau, n)
        want = cgo_over_parabola(vec, K)
        tol = max(args.tol * abs(want) / (1.0 + abs(want)) * 0.1, 1e-13)
        got = integrate(vec.field, ParaboloidCap(K, dim=n, decay_rate=tau), tol=tol)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        failures += int(rel > args.tol)
        km = float(rng.uniform(0.5, 50.0))
        kp = km * float(rng.uniform(1.0 + 1e-3, 3.0))
        h = float(rng.uniform(0.1, 2.0))
        want_s = cgo_sliced(tau, km, kp, h, n)
        got_s = integrate(
            lambda p: np.exp(-tau * p[:, -1]),
            AnnularParaboloid(km, kp, h, dim=n),
            tol=max(args.tol * 0.1, 1e-12),
        )
        rel_s = abs(got_s - want_s) / (1.0 + abs(want_s))
        worst = max(worst, rel_s)
        failures += int(rel_s > args.tol)
    print(f"worst relative deviation over {2*args.samples} checks: {worst:.3e}")
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


def cmd_experiment(args) -> int:
    if args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    suite = SUITES[args.suite]
    cfg = read_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError("experiment config must be a JSON object")
    # Every suite parameter has a default, so a config binds to the
    # signature exactly when it names no other key.
    params = inspect.signature(suite).parameters
    unknown = sorted(set(cfg) - set(params))
    if unknown:
        raise ConfigError(
            f"bad config for suite {args.suite}: unknown keys {unknown}; "
            f"the config may set {sorted(params)}"
        )
    for key, value in cfg.items():
        _check_suite_value(f"{args.suite} config {key}", params[key].default, value)
    result = suite(**cfg)
    path = write_outputs(result, args.out)
    status = "pass" if result.passed else "FAIL"
    print(
        f"{result.name}: {status}, {result.counterexamples} counterexample rows, "
        f"table at {path}"
    )
    return EXIT_OK if result.passed else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invisiscat",
        description="Helmholtz scattering laboratory: sources, media, "
        "transmission eigenvalues, visibility experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("source", help="solve a source scene")
    p.add_argument("scene")
    p.add_argument("--farfield", help="far-field CSV output")
    p.add_argument("--farfield-json", help="far-field JSON output")
    p.add_argument("--fields", help="field samples CSV output")
    p.add_argument("--grid", type=int, default=32, help="field sample grid size")
    p.add_argument("--dirs", type=int, default=64)
    p.set_defaults(fn=cmd_source)

    p = sub.add_parser("medium", help="solve a medium scattering scene")
    p.add_argument("scene")
    p.add_argument("--farfield")
    p.add_argument("--fields")
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--spacing", type=float, default=None)
    p.set_defaults(fn=cmd_medium)

    p = sub.add_parser("teig", help="transmission eigenvalue table")
    p.add_argument("config")
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--modes", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_teig)

    p = sub.add_parser("cgo-verify", help="closed forms vs oracle cubature")
    p.add_argument("--n", type=int, default=2, choices=(2, 3))
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=20240917)
    p.set_defaults(fn=cmd_cgo_verify)

    p = sub.add_parser("experiment", help="run an experiment suite")
    p.add_argument("suite")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns an exception into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
