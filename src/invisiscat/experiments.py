"""Reproducible experiment suites tying the solvers to visibility bounds.

Each suite sweeps a family of scenes, tabulates the relevant comparator
(boundary intensity ratio, apex intensity, far-field mismatch) next to
the computed far field, and certifies the falsifiable reading of the
corresponding visibility statement: no row may simultaneously put the
comparator above its frozen calibration constant and exhibit a
numerically vanishing far field.

Constants are calibrated once from the most extreme passing
configuration (``calibrate`` regenerates them deterministically) and
frozen into calibration.json next to this module; the suites always run
against the frozen file.  All randomness is seeded, sweeps preserve row
order, and CSV output is byte-stable, so reruns reproduce results
exactly.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cgo import curvature_estimate_rhs
from .errors import ConfigError
from .geometry import (
    BallComponent,
    BoxComponent,
    CappedComponent,
    CurvatureCap,
    Domain,
    StarComponent,
    cap_window_columns,
)
from .holder import SampledFunction, holder_norm
from .kernels import far_field_constant
from .manufactured import LensBump
from .medium import (
    MediumScene,
    PlaneWave,
    default_spacing,
    estimate_c0,
    scatter_visibility_ratio,
    scattered_far_field,
    solve_ls,
)
from .source import (
    FarField,
    SourceScene,
    _point_far_field,
    far_field,
    radiationless_radius,
    visibility_ratio,
    write_csv,
)

__all__ = [
    "SuiteResult",
    "load_calibration",
    "calibrate",
    "write_outputs",
    "run_smallness_source",
    "run_curvature_source",
    "run_medium_visibility",
    "run_schiffer_separation",
    "run_schiffer_counting",
    "run_curvature_uniqueness_demo",
    "SUITES",
    "worker_count",
]

_CAL_PATH = Path(__file__).with_name("calibration.json")


def worker_count() -> int:
    """Sweep workers: 1, since every suite runs its rows on the caller's thread.

    Kept because perfbench records it with each run.
    """
    return 1


_BLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


def _pin_blas_threads() -> None:
    """Set every OpenBLAS already mapped into the process to one thread.

    COCG's complex dot products (``g @ g``, ``p @ q``, ``np.linalg.norm``)
    and the far fields' ``@`` wake OpenBLAS workers that then busy-wait on
    a core and shorten no call: unpinned, ``ls_single`` takes about twice
    the CPU time.  Libraries are opened with ``RTLD_NOLOAD``, so none is
    loaded; without ``/proc/self/maps``, or with another BLAS, nothing
    happens.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads(1)
                break


@dataclass
class SuiteResult:
    """A suite's rows, each with a boolean ``counterexample`` entry last.

    ``checks_pass`` carries any suite-level check beyond the rows.
    """

    name: str
    rows: list
    calibration: dict
    notes: list = field(default_factory=list)
    checks_pass: bool = True

    @property
    def columns(self) -> list:
        return list(self.rows[0]) if self.rows else []

    @property
    def counterexamples(self) -> int:
        return sum(int(row["counterexample"]) for row in self.rows)

    @property
    def passed(self) -> bool:
        return self.counterexamples == 0 and self.checks_pass

    def table(self):
        return [[row.get(c) for c in self.columns] for row in self.rows]


def load_calibration() -> dict:
    with open(_CAL_PATH) as fh:
        return json.load(fh)


def write_outputs(result: SuiteResult, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{result.name}.csv"
    write_csv(csv_path, result.columns, result.table())
    summary = {
        "suite": result.name,
        "passed": result.passed,
        "counterexamples": result.counterexamples,
        "rows": len(result.rows),
        "calibration": result.calibration,
        "notes": result.notes,
    }
    with open(out_dir / f"{result.name}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return csv_path


# ---------------------------------------------------------------------------
# Suite 1: small sources must radiate
# ---------------------------------------------------------------------------


def run_smallness_source(
    alpha: float = 0.5,
    radii=(1.0, 0.5, 0.25, 0.125),
    k: float = 1.0,
    n_dirs: int = 64,
) -> SuiteResult:
    """Visibility of constant sources across radii, radiationless rows included."""
    cal = load_calibration()["smallness_source"]
    r_bessel = radiationless_radius(k, 2, 1)
    sweep = [(r, False) for r in radii] + [(r_bessel, True), (r_bessel / 2.0, False)]

    rows = []
    for r, silent in sweep:
        scene = SourceScene(Domain([BallComponent([0.0, 0.0], r)]), 1.0, k, 2)
        ratio = visibility_ratio(scene, alpha)
        ff = far_field(scene, n_dirs).sup_norm()
        rows.append({
            "radius": r,
            "ratio": ratio,
            "far_field_sup": ff,
            "radiationless_expected": silent,
            "counterexample": ratio >= cal["C_visibility"] and ff < cal["far_field_floor"],
        })
    # Lower-bound family check: radiationless balls obey
    # diam^alpha >= C_lower * sup/norm (constant intensity: sup/norm = 1).
    lb_ok = True
    for m in range(1, 5):
        rm = radiationless_radius(k, 2, m)
        lb_ok &= (2.0 * rm) ** alpha >= cal["C_lower_bound"] * (1.0 - 1e-12)
    notes = [] if lb_ok else ["radiationless family violates the diameter lower bound"]
    return SuiteResult("smallness_source", rows, cal, notes, lb_ok)


# ---------------------------------------------------------------------------
# Suite 2: high-curvature points radiate / radiationless implies small apex
# ---------------------------------------------------------------------------


# The exponent delta of the suites' caps; ``run_curvature_source`` takes
# it as a config value, the other suites use it as is.
_SUITE_DELTA = 0.75


def _capped_component(K: float, delta: float = _SUITE_DELTA) -> CappedComponent:
    """The suites' capped body: cubic 0.1 K and the cap's L, M and n defaults."""
    cap = CurvatureCap(K, 0.1 * K, delta=delta)
    width = max(0.35, 1.25 * cap.rim_radius)
    return CappedComponent(cap, bulk_width=width, bulk_height=0.5)


def run_curvature_source(
    K_list=(math.e, 10.0, 100.0, 1000.0),
    alpha: float = 0.75,
    delta: float = _SUITE_DELTA,
    k: float = 1.0,
    n_dirs: int = 64,
) -> SuiteResult:
    """Constant capped sources radiate; manufactured radiationless duals obey
    the apex-intensity envelope with one frozen constant."""
    cal = load_calibration()["curvature_source"]
    rows = []
    for K in K_list:
        comp = _capped_component(K, delta)
        cap, n = comp.cap, comp.cap.n
        ff_const = far_field(SourceScene(Domain([comp]), 1.0, k, n), n_dirs).sup_norm()
        # Radiationless dual: w in H^2_0(Omega), phi = (Delta+k^2) w has an
        # exactly vanishing far field; its apex intensity obeys the bound.
        # phi vanishes above the lens, so the window column rule, which
        # resolves the graph and lid exactly, is the accurate quadrature.
        bump = LensBump(cap)
        lens, lens_w = cap_window_columns(cap, cap.h / 96.0)
        weighted = lens_w * bump.phi(lens, k)
        ff_dual = _point_far_field(lens + comp.apex, weighted, k, n, n_dirs).sup_norm()
        spacing = cap.h / 48.0
        wpts, _ = cap_window_columns(cap, spacing)
        phi_samples = SampledFunction(
            points=wpts, values=bump.phi(wpts, k).astype(complex), spacing=spacing
        )
        norm_phi = holder_norm(phi_samples, alpha)
        apex = abs(complex(bump.phi(np.zeros((1, n)), k)[0]))
        ratio = apex / max(1.0, norm_phi)
        psi = curvature_estimate_rhs(K, alpha, cap.delta, n)
        visible = ff_const > cal["far_field_floor"]
        dual_ok = ratio <= cal["C_manufactured"] * psi * (1.0 + 1e-9)
        dual_silent = ff_dual <= cal["dual_far_field_ceiling"]
        rows.append({
            "K": K,
            "far_field_sup": ff_const,
            "envelope": psi,
            "dual_apex_ratio": ratio,
            "dual_far_field_sup": ff_dual,
            "dual_phi_norm": norm_phi,
            "counterexample": not (visible and dual_ok and dual_silent),
        })
    return SuiteResult("curvature_source", rows, cal)


# ---------------------------------------------------------------------------
# Suite 3: media scatter when the boundary comparator is large
# ---------------------------------------------------------------------------


def _born_scale(k: float, v0: float, area: float) -> float:
    return k * k * abs(far_field_constant(2, k)) * abs(v0) * area


def run_medium_visibility(
    radii=(1.0, 0.5, 0.25),
    K_list=(10.0, 100.0),
    v0: float = 0.1,
    k: float = 0.4,
    alpha: float = 0.5,
    n_dirs: int = 48,
) -> SuiteResult:
    """Plane-wave scattering from shrinking disks and capped media."""
    cal = load_calibration()["medium_visibility"]
    c0 = estimate_c0(k, max(max(radii), 1.0), 2, resolution=32)
    jobs = (
        [("control", 0.0, None)]
        + [("disk", r, None) for r in radii]
        + [("capped", None, K) for K in K_list]
    )
    rows = []
    for kind, r, K in jobs:
        contrast = 0.0 if kind == "control" else v0
        envelope = float("nan")
        if kind == "capped":
            comp = _capped_component(K)
            dom = Domain([comp])
            area = float(np.sum(dom.quad_nodes(32)[1]))
            envelope = curvature_estimate_rhs(K, alpha, comp.cap.delta, comp.cap.n)
        else:
            radius = 1.0 if kind == "control" else r
            dom = Domain([BallComponent([0.0, 0.0], radius)])
            area = math.pi * radius * radius
        scene = MediumScene(dom, contrast, k, PlaneWave([1.0, 0.0]))
        sol = solve_ls(scene, tol=1e-10)
        ff = scattered_far_field(scene, sol, n_dirs).sup_norm()
        comparator = scatter_visibility_ratio(scene, alpha)
        born = _born_scale(k, contrast, area)
        rows.append({
            "kind": kind,
            "size": r if r is not None else K,
            "comparator": comparator,
            "far_field_sup": ff,
            "born_scale": born,
            "contraction": k * k * c0 * abs(contrast),
            "envelope_K": envelope,
            "counterexample": comparator >= cal["C_comparator"]
            and ff < cal["relative_floor"] * born,
        })
    return SuiteResult("medium_visibility", rows, cal)


# ---------------------------------------------------------------------------
# Suites 4-5: shape determination from one far-field pattern
# ---------------------------------------------------------------------------


def _pair_rows(pairs, difference_floor: float) -> list:
    """Rows for (name, far field, far field, expect_separation, extra columns).

    A pair named ``identical*`` (one scene solved twice) is a
    counterexample above 1e-14; a pair expected to separate is one at or
    below the floor; any other pair is reported only.
    """
    rows = []
    for pair, ff, other, separate, extra in pairs:
        diff = ff.relative_l2_difference(other)
        if pair.startswith("identical"):
            bad = diff > 1e-14
        else:
            bad = separate and diff <= difference_floor
        row = {"pair": pair, "difference": diff, "expect_separation": separate}
        rows.append({**row, **extra, "counterexample": bad})
    return rows


def _medium_far_field(domain, v0, k, n_dirs=48, spacing=None) -> FarField:
    scene = MediumScene(domain, v0, k, PlaneWave([1.0, 0.0]))
    sol = solve_ls(scene, tol=1e-10, spacing=spacing)
    return scattered_far_field(scene, sol, n_dirs)


def run_schiffer_separation(
    k: float = 0.3,
    radius: float = 0.3,
    v0_a: float = 0.4,
    v0_b: float = 0.8,
) -> SuiteResult:
    """Disjoint small scatterers cannot share a far-field pattern."""
    cal = load_calibration()["schiffer_separation"]
    dom_a = Domain([BallComponent([-0.8, 0.0], radius)])
    dom_b = Domain([BallComponent([0.8, 0.0], radius)])
    ff_a = _medium_far_field(dom_a, v0_a, k)
    ff_same = _medium_far_field(dom_a, v0_a, k)
    ff_b = _medium_far_field(dom_b, v0_b, k)
    dom_c = Domain([BallComponent([-0.75, 0.05], radius)])
    ff_c = _medium_far_field(dom_c, v0_b, k)
    pairs = [
        ("identical", ff_a, ff_same, False, {}),
        ("disjoint_small", ff_a, ff_b, True, {}),
        ("overlapping", ff_a, ff_c, False, {}),
    ]
    rows = _pair_rows(pairs, cal["difference_floor"])
    notes = [
        f"diam {2*radius} within C1 = {cal['C1']}; k = {k} within C2 = {cal['C2']}"
    ]
    ok_regime = 2 * radius <= cal["C1"] and k <= cal["C2"]
    return SuiteResult("schiffer_separation", rows, cal, notes, ok_regime)


def run_schiffer_counting(
    k: float = 0.3,
    radius: float = 0.2,
    v0: float = 0.5,
    n_candidates: int = 10,
    seed: int = 20240917,
) -> SuiteResult:
    """Wrong component counts are detectable from one far-field pattern."""
    cal = load_calibration()["schiffer_counting"]
    centers_true = [(-1.5, 0.0), (0.0, 0.0), (1.5, 0.0)]
    truth = Domain([BallComponent(list(c), radius) for c in centers_true])
    if not truth.gap_ok(cal["C1"]):
        raise ConfigError("true configuration is not well separated for frozen C1")
    ff_true = _medium_far_field(truth, v0, k)
    rng = np.random.default_rng(seed)
    candidates = []
    counts = [0, 1, 2, 4, 2, 1, 4]
    for i in range(n_candidates):
        if i < len(counts):
            m = counts[i]
        else:
            m = int(rng.integers(1, 5))
        if m == 0:
            candidates.append(("empty", None))
            continue
        idx = rng.choice(3, size=min(m, 3), replace=False)
        base = [centers_true[j] for j in idx]
        while len(base) < m:
            base.append((float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.5, 0.5))))
        jitter = rng.uniform(-radius, radius, size=(m, 2)) * 0.5
        centers = [
            (bx + float(dx), by + float(dy))
            for (bx, by), (dx, dy) in zip(base, jitter)
        ]
        candidates.append((f"count_{m}", centers))
    # Correct-count candidates with perturbed positions.
    for _ in range(3):
        jitter = rng.uniform(-radius, radius, size=(3, 2)) * 0.5
        centers = [
            (cx + float(dx), cy + float(dy))
            for (cx, cy), (dx, dy) in zip(centers_true, jitter)
        ]
        candidates.append(("count_3", centers))

    rows = []
    best_correct = math.inf
    for label, centers in candidates:
        if centers is None:
            m, mismatch = 0, 1.0
        elif not all(
            (cx - dx) ** 2 + (cy - dy) ** 2 > (2 * radius) ** 2
            for i, (cx, cy) in enumerate(centers)
            for (dx, dy) in centers[i + 1 :]
        ):
            m, mismatch = len(centers), float("nan")  # overlapping: reported, not judged
        else:
            dom = Domain([BallComponent(list(c), radius) for c in centers])
            ff = _medium_far_field(dom, v0, k)
            m, mismatch = len(centers), ff_true.relative_l2_difference(ff)
        if m == 3 and not math.isnan(mismatch):
            best_correct = min(best_correct, mismatch)
        bad = m != 3 and mismatch <= cal["mismatch_floor"]
        rows.append(
            {"candidate": label, "components": m, "mismatch": mismatch, "counterexample": bad}
        )
    notes = [f"smallest mismatch among correct-count candidates: {best_correct!r}"]
    return SuiteResult("schiffer_counting", rows, cal, notes)


# ---------------------------------------------------------------------------
# Suite 6: curvature points pin down the shape
# ---------------------------------------------------------------------------


def run_curvature_uniqueness_demo(
    k: float = 0.3,
    K: float = 100.0,
    v0: float = 0.5,
) -> SuiteResult:
    """Far-field discrimination of shapes differing by a curvature cap."""
    cal = load_calibration()["curvature_uniqueness"]
    comp = _capped_component(K)
    capped = Domain([comp])
    h, hw, hh = comp.cap.h, comp.bulk_width, comp.bulk_height
    bulk_only = Domain([BoxComponent([-hw, h], [hw, h + hh])])
    # One spacing for both bodies, so their shared walls rasterize alike
    # and the difference is the lens's own far field.
    spacing = default_spacing(MediumScene(capped, v0, k, PlaneWave([1.0, 0.0])))
    ff_capped = _medium_far_field(capped, v0, k, spacing=spacing)
    ff_capped_again = _medium_far_field(capped, v0, k, spacing=spacing)
    ff_bulk = _medium_far_field(bulk_only, v0, k, spacing=spacing)

    tri = lambda th: 0.6 * (1.0 + 0.12 * np.cos(3.0 * th))
    tri_a = Domain([StarComponent([0.0, 0.0], tri)])
    tri_b = Domain(
        [StarComponent([0.0, 0.0], lambda th: tri(th - math.pi / 3.0))]
    )
    ff_tri_a = _medium_far_field(tri_a, v0, k)
    ff_tri_b = _medium_far_field(tri_b, v0, k)

    d_apex = h  # distance from the apex to the bulk-only body
    gap_condition = d_apex < math.sqrt(1.0 + comp.cap.M) / K
    pairs = [
        ("capped_vs_bulk", ff_capped, ff_bulk, True, {"gap_condition_honored": gap_condition}),
        ("identical_capped", ff_capped, ff_capped_again, False, {"gap_condition_honored": True}),
        ("rotated_rounded_triangle", ff_tri_a, ff_tri_b, True, {"gap_condition_honored": False}),
    ]
    rows = _pair_rows(pairs, cal["difference_floor"])
    return SuiteResult("curvature_uniqueness", rows, cal)


SUITES = {
    "smallness_source": run_smallness_source,
    "curvature_source": run_curvature_source,
    "medium_visibility": run_medium_visibility,
    "schiffer_separation": run_schiffer_separation,
    "schiffer_counting": run_schiffer_counting,
    "curvature_uniqueness": run_curvature_uniqueness_demo,
}


def calibrate(path=None) -> dict:
    """Regenerate the frozen calibration constants (developer entry point).

    Constants derive from the most extreme passing configuration of the
    default sweeps; the margins are fixed multiplicative factors, so the
    output is deterministic.
    """
    k = 1.0
    alpha = 0.5
    r_b = radiationless_radius(k, 2, 1)
    # Most extreme radiationless comparator over the Bessel family.
    c_vis = max(
        (2.0 * radiationless_radius(k, 2, m)) ** -alpha for m in range(1, 5)
    )
    cal = {
        "smallness_source": {
            "C_visibility": c_vis * 1.02,
            "C_lower_bound": (2.0 * r_b) ** alpha,
            "far_field_floor": 1e-6,
        }
    }
    # Curvature dual constant: max apex-ratio / envelope over the sweep.
    res = run_curvature_source()
    worst = max(row["dual_apex_ratio"] / row["envelope"] for row in res.rows)
    worst_dual_ff = max(row["dual_far_field_sup"] for row in res.rows)
    cal["curvature_source"] = {
        "C_manufactured": worst * 1.05,
        "far_field_floor": 1e-6,
        "dual_far_field_ceiling": max(worst_dual_ff * 5.0, 1e-8),
    }
    # Medium comparator: smallest comparator that still scattered.
    relative_floor = 1e-3
    res = run_medium_visibility()
    visible = [
        row["comparator"]
        for row in res.rows
        if row["far_field_sup"] > relative_floor * row["born_scale"]
    ]
    cal["medium_visibility"] = {
        "C_comparator": min(visible) * 0.5,
        "relative_floor": relative_floor,
    }
    cal["schiffer_separation"] = {
        "C1": 0.8,
        "C2": 0.5,
        "difference_floor": 1e-3,
    }
    # Counting floor: half the smallest wrong-count mismatch at defaults.
    res = run_schiffer_counting()
    wrong = [
        row["mismatch"]
        for row in res.rows
        if row["components"] != 3 and not math.isnan(row["mismatch"])
    ]
    cal["schiffer_counting"] = {
        "C1": 0.45,
        "mismatch_floor": min(wrong) * 0.5,
    }
    cal["curvature_uniqueness"] = {"difference_floor": 1e-4}
    path = Path(path) if path else _CAL_PATH
    with open(path, "w") as fh:
        json.dump(cal, fh, indent=1, sort_keys=True)
    return cal
