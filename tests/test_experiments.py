"""Experiment suites under the frozen calibration."""

import json
import math

import numpy as np

import invisiscat.experiments as ex
from invisiscat.geometry import BoxComponent, Domain
from invisiscat.medium import MediumScene, PlaneWave, default_spacing


class TestInfrastructure:
    def test_calibration_file_loads(self):
        cal = ex.load_calibration()
        for suite in ex.SUITES:
            key = suite if suite in cal else None
            assert key is not None or suite == "curvature_uniqueness"
        assert "smallness_source" in cal

    def test_calibrate_reproduces_frozen_file(self, tmp_path):
        # Regenerating the constants must give the frozen file, which stays
        # untouched: calibrate() writes only where it is told to.
        frozen = ex.load_calibration()
        path = tmp_path / "c.json"
        cal = ex.calibrate(path)
        assert json.loads(path.read_text()) == cal
        assert cal.keys() == frozen.keys()
        for suite, consts in frozen.items():
            assert cal[suite].keys() == consts.keys()
            for name, want in consts.items():
                assert math.isclose(cal[suite][name], want, rel_tol=1e-12), (suite, name)

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU gets one worker, however many the
        # machine has.
        monkeypatch.setattr(ex.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ex.worker_count() == 1
        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: set(range(16)))
        assert ex.worker_count() == 4
        monkeypatch.delattr(ex.os, "sched_getaffinity")
        monkeypatch.setattr(ex.os, "cpu_count", lambda: 3)
        assert ex.worker_count() == 3

    def test_write_outputs_idempotent(self, tmp_path):
        res = ex.run_smallness_source(radii=[0.5], n_dirs=16)
        p1 = ex.write_outputs(res, tmp_path / "a")
        res2 = ex.run_smallness_source(radii=[0.5], n_dirs=16)
        p2 = ex.write_outputs(res2, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()


class TestSmallnessSource:
    def test_default_sweep_passes(self):
        res = ex.run_smallness_source()
        assert res.passed and res.counterexamples == 0

    def test_radiationless_row_is_silent_but_below_constant(self):
        res = ex.run_smallness_source()
        cal = res.calibration
        silent_rows = [r for r in res.rows if r["radiationless_expected"]]
        assert silent_rows
        for row in silent_rows:
            assert row["far_field_sup"] < cal["far_field_floor"]
            assert row["ratio"] < cal["C_visibility"]

    def test_visible_rows_radiate(self):
        res = ex.run_smallness_source()
        for row in res.rows:
            if not row["radiationless_expected"]:
                assert row["far_field_sup"] > 1e-3


class TestCurvatureSource:
    def test_default_sweep_passes(self):
        res = ex.run_curvature_source()
        assert res.passed and res.counterexamples == 0

    def test_constant_source_visible_at_every_K(self):
        res = ex.run_curvature_source()
        for row in res.rows:
            assert row["far_field_sup"] > res.calibration["far_field_floor"]

    def test_dual_rows_silent_and_bounded(self):
        res = ex.run_curvature_source()
        cal = res.calibration
        for row in res.rows:
            assert row["dual_far_field_sup"] <= cal["dual_far_field_ceiling"]
            assert row["dual_apex_ratio"] <= cal["C_manufactured"] * row["envelope"] * (
                1 + 1e-9
            )


class TestMediumVisibility:
    def test_default_sweep_passes(self):
        res = ex.run_medium_visibility()
        assert res.passed and res.counterexamples == 0

    def test_control_row_vacuous(self):
        res = ex.run_medium_visibility()
        control = [r for r in res.rows if r["kind"] == "control"][0]
        assert control["far_field_sup"] < 1e-12
        assert control["comparator"] == 0.0
        assert not control["counterexample"]

    def test_disk_far_fields_bounded_below(self):
        res = ex.run_medium_visibility()
        for row in res.rows:
            if row["kind"] == "disk":
                assert row["far_field_sup"] > 1e-3 * row["born_scale"]


class TestSchifferSeparation:
    def test_default_passes(self):
        res = ex.run_schiffer_separation()
        assert res.passed and res.counterexamples == 0

    def test_identical_pair_exactly_equal(self):
        res = ex.run_schiffer_separation()
        ident = [r for r in res.rows if r["pair"] == "identical"][0]
        assert ident["difference"] <= 1e-14

    def test_disjoint_pair_separated(self):
        res = ex.run_schiffer_separation()
        row = [r for r in res.rows if r["pair"] == "disjoint_small"][0]
        assert row["difference"] > res.calibration["difference_floor"]


class TestSchifferCounting:
    def test_default_passes(self):
        res = ex.run_schiffer_counting()
        assert res.passed and res.counterexamples == 0

    def test_wrong_counts_mismatch(self):
        res = ex.run_schiffer_counting()
        floor = res.calibration["mismatch_floor"]
        wrong = [
            r
            for r in res.rows
            if r["components"] != 3 and not math.isnan(r["mismatch"])
        ]
        assert wrong
        assert all(r["mismatch"] > floor for r in wrong)

    def test_empty_candidate_full_mismatch(self):
        res = ex.run_schiffer_counting()
        empty = [r for r in res.rows if r["components"] == 0][0]
        assert empty["mismatch"] == 1.0

    def test_correct_count_candidates_closest(self):
        res = ex.run_schiffer_counting()
        right = [r["mismatch"] for r in res.rows if r["components"] == 3]
        wrong = [
            r["mismatch"]
            for r in res.rows
            if r["components"] not in (3,) and not math.isnan(r["mismatch"])
        ]
        assert min(right) < min(wrong)

    def test_determinism(self):
        a = ex.run_schiffer_counting()
        b = ex.run_schiffer_counting()
        va = np.array([r["mismatch"] for r in a.rows])
        vb = np.array([r["mismatch"] for r in b.rows])
        assert np.array_equal(va, vb, equal_nan=True)


class TestCurvatureUniqueness:
    def test_default_passes(self):
        res = ex.run_curvature_uniqueness_demo()
        assert res.passed and res.counterexamples == 0

    def test_cap_discriminates(self):
        res = ex.run_curvature_uniqueness_demo()
        row = [r for r in res.rows if r["pair"] == "capped_vs_bulk"][0]
        assert row["difference"] > res.calibration["difference_floor"]
        assert row["gap_condition_honored"]

    def test_cap_difference_is_converged(self):
        # Both bodies on one grid: the difference is the lens's far field,
        # the same within 1% at the default spacing s0 and at s0/2.
        k, v0 = 0.3, 0.5
        comp = ex._capped_component(100.0, 0.75)
        h, hw, hh = comp.cap.h, comp.bulk_width, comp.bulk_height
        capped = Domain([comp])
        bulk = Domain([BoxComponent([-hw, h], [hw, h + hh])])
        s0 = default_spacing(MediumScene(capped, v0, k, PlaneWave([1.0, 0.0])))
        diff = [
            ex._medium_far_field(capped, v0, k, spacing=s).relative_l2_difference(
                ex._medium_far_field(bulk, v0, k, spacing=s)
            )
            for s in (s0, s0 / 2)
        ]
        assert abs(diff[0] - diff[1]) <= 0.01 * diff[1]
        res = ex.run_curvature_uniqueness_demo(k=k, v0=v0)
        assert [r["difference"] for r in res.rows if r["pair"] == "capped_vs_bulk"] == diff[:1]

    def test_identical_zero(self):
        res = ex.run_curvature_uniqueness_demo()
        row = [r for r in res.rows if r["pair"] == "identical_capped"][0]
        assert row["difference"] <= 1e-14

    def test_triangle_pair_separated(self):
        res = ex.run_curvature_uniqueness_demo()
        row = [r for r in res.rows if r["pair"] == "rotated_rounded_triangle"][0]
        assert row["difference"] > res.calibration["difference_floor"]
