"""Command-line interface: exit codes, file outputs, idempotency."""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invisiscat import cli
from invisiscat.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from invisiscat.experiments import SUITES
from invisiscat.medium import scattered_far_field, solve_ls
from invisiscat.scenes import load_domain, load_medium_scene, load_source_scene
from invisiscat.source import solve_field


@pytest.fixture
def ball_scene(tmp_path):
    cfg = {
        "dimension": 2,
        "wavenumber": 1.0,
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.7},
        "intensity": {"kind": "constant", "value": 1.0},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSourceCommand:
    def test_far_field_output(self, ball_scene, tmp_path, capsys):
        out = tmp_path / "ff.csv"
        code = main(["source", str(ball_scene), "--farfield", str(out), "--dirs", "16"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 17

    def test_bessel_zero_scene_silent(self, tmp_path):
        from invisiscat.source import radiationless_radius

        r0 = radiationless_radius(1.0, 2, 1)
        cfg = {
            "dimension": 2,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": r0},
            "intensity": {"kind": "constant", "value": 1.0},
        }
        scene = tmp_path / "silent.json"
        scene.write_text(json.dumps(cfg))
        out = tmp_path / "ff.csv"
        code = main(["source", str(scene), "--farfield", str(out), "--dirs", "16"])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        sup = max(
            abs(complex(float(r.split(",")[1]), float(r.split(",")[2])))
            for r in rows
        )
        assert sup < 1e-6

    def test_zero_intensity_all_zero(self, tmp_path):
        cfg = {
            "dimension": 2,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.7},
            "intensity": {"kind": "constant", "value": 0.0},
        }
        scene = tmp_path / "zero.json"
        scene.write_text(json.dumps(cfg))
        out = tmp_path / "ff.csv"
        assert main(["source", str(scene), "--farfield", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["source", str(bad)]) == EXIT_CONFIG

    def test_bad_schema_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2}))
        assert main(["source", str(bad)]) == EXIT_CONFIG

    def test_idempotent_outputs(self, ball_scene, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["source", str(ball_scene), "--farfield", str(out1), "--dirs", "16"])
        main(["source", str(ball_scene), "--farfield", str(out2), "--dirs", "16"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_field_samples_output(self, ball_scene, tmp_path):
        out = tmp_path / "u.csv"
        code = main(
            ["source", str(ball_scene), "--fields", str(out), "--grid", "8", "--dirs", "16"]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,re,im"
        assert len(lines) == 1 + 64


class TestThreeDimensionalScenes:
    def test_box_source_matches_sinc_product(self, tmp_path):
        from invisiscat.kernels import far_field_constant

        k = 1.3
        cfg = {
            "dimension": 3,
            "wavenumber": k,
            "domain": {"kind": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
            "intensity": {"kind": "constant", "value": 1.0},
        }
        scene = tmp_path / "box3.json"
        scene.write_text(json.dumps(cfg))
        out = tmp_path / "ff.json"
        code = main(["source", str(scene), "--farfield-json", str(out), "--dirs", "32"])
        assert code == EXIT_OK
        ff = json.loads(out.read_text())
        th, ph = np.array(ff["angles"]).T
        dirs = np.stack([np.sin(ph) * np.cos(th), np.sin(ph) * np.sin(th), np.cos(ph)], axis=-1)
        # int_0^1 exp(-i a y) dy = exp(-i a / 2) sin(a / 2) / (a / 2), with a = k xhat_d.
        a = k * dirs
        want = far_field_constant(3, k) * np.prod(np.exp(-0.5j * a) * np.sinc(a / (2 * np.pi)), axis=1)
        got = np.array(ff["re"]) + 1j * np.array(ff["im"])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_ball_source_fields(self, tmp_path, capsys):
        cfg = {
            "dimension": 3,
            "wavenumber": 1.0,
            "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.5},
            "intensity": {"kind": "constant", "value": 1.0},
        }
        scene = tmp_path / "ball3.json"
        scene.write_text(json.dumps(cfg))
        out = tmp_path / "u.csv"
        code = main(["source", str(scene), "--fields", str(out), "--grid", "4", "--dirs", "16"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,re,im"
        assert len(lines) == 1 + 4**3

    @pytest.mark.parametrize("command", ["source", "medium"])
    def test_annulus_exit_2_without_traceback(self, tmp_path, capsys, command):
        cfg = {
            "dimension": 3,
            "wavenumber": 1.0,
            "domain": {"kind": "annulus", "center": [0.0, 0.0, 0.0], "r_inner": 0.5, "r_outer": 1.0},
            "intensity": {"kind": "constant", "value": 1.0},
            "contrast": {"kind": "constant", "value": 0.1},
        }
        scene = tmp_path / "annulus3.json"
        scene.write_text(json.dumps(cfg))
        assert main([command, str(scene), "--dirs", "16"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error: ")


class TestBadNumbers:
    @pytest.mark.parametrize("k", [-1.0, float("nan")])
    def test_source_wavenumber_exit_2(self, tmp_path, capsys, k):
        cfg = {
            "dimension": 2,
            "wavenumber": k,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.7},
            "intensity": {"kind": "constant", "value": 1.0},
        }
        scene = tmp_path / "k.json"
        scene.write_text(json.dumps(cfg))
        assert main(["source", str(scene)]) == EXIT_CONFIG
        assert "wavenumber" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [-0.5, float("nan")])
    def test_medium_wavenumber_exit_2(self, tmp_path, capsys, k):
        cfg = {
            "dimension": 2,
            "wavenumber": k,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "contrast": {"kind": "constant", "value": 0.1},
        }
        scene = tmp_path / "k.json"
        scene.write_text(json.dumps(cfg))
        assert main(["medium", str(scene)]) == EXIT_CONFIG
        assert "wavenumber" in capsys.readouterr().err

    @pytest.mark.parametrize("kmax", ["-1", "nan"])
    def test_teig_kmax_exit_2(self, tmp_path, capsys, kmax):
        cfg = tmp_path / "itp.json"
        cfg.write_text(json.dumps({"radius": 1.0, "contrast": 15.0}))
        out = tmp_path / "eigs.csv"
        code = main(["teig", str(cfg), "--kmax", kmax, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--kmax" in capsys.readouterr().err
        assert not out.exists()


class TestMediumCommand:
    def test_far_field_output(self, tmp_path):
        cfg = {
            "dimension": 2,
            "wavenumber": 0.5,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "contrast": {"kind": "constant", "value": 0.1},
            "incident": {"kind": "plane_wave", "direction": [1.0, 0.0]},
        }
        scene = tmp_path / "m.json"
        scene.write_text(json.dumps(cfg))
        out = tmp_path / "ff.csv"
        code = main(["medium", str(scene), "--farfield", str(out), "--dirs", "16"])
        assert code == EXIT_OK
        assert out.exists()

    def test_zero_incident_exit_0(self, tmp_path, capsys):
        scene = tmp_path / "zero.json"
        scene.write_text(json.dumps(_medium_cfg(incident={"kind": "herglotz", "density": "0"})))
        assert main(["medium", str(scene), "--dirs", "16"]) == EXIT_OK
        assert "scattered far-field sup norm: 0.0 " in capsys.readouterr().out

    def test_prints_applies_per_precision(self, tmp_path, capsys):
        scene = tmp_path / "m.json"
        scene.write_text(json.dumps(_medium_cfg()))
        assert main(["medium", str(scene), "--dirs", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(cocg, " in out
        assert re.search(r"residuals logged, \d+ applies\)$", out.strip())


def _root_disk_cfg(radicand):
    """The radius-0.4 disk with field (radicand - x1^2 - x2^2)^0.5 as intensity and contrast."""
    field = {"kind": "expression", "expr": f"({radicand} - x1^2 - x2^2)^0.5"}
    return _small_scene(intensity=field, contrast=field)


def _abs_root(radicand):
    return lambda pts: np.abs(radicand - pts[:, 0] ** 2 - pts[:, 1] ** 2) ** 0.5 * np.ones(pts.shape[0])


class TestFieldsReadOnSupport:
    """Solvers read a field only at the centres of the cells the support touches."""

    # sqrt(0.3) reaches past every live cell of the radius-0.4 disk at
    # h = 0.01, but not the corners of the grid's bounding box; sqrt(0.17)
    # just clears the live cells' centres (0.407 out) but not every polar
    # node around a target near the rim.
    @pytest.mark.parametrize("radicand", [0.3, 0.17])
    def test_root_finite_on_live_cells_solves(self, tmp_path, radicand):
        scene = load_medium_scene(_root_disk_cfg(radicand))
        sol = solve_ls(scene, spacing=0.01)
        with np.errstate(invalid="ignore"):
            on_box = scene.contrast(sol.grid.points)
        assert np.any(np.isnan(on_box[sol.grid.coverage == 0]))
        assert np.all(np.isfinite(on_box[sol.grid.coverage > 0]))
        # The same field written with abs inside the root: the same bits.
        twin = dataclasses.replace(scene, phi=_abs_root(radicand))
        want = scattered_far_field(twin, solve_ls(twin, spacing=0.01), 16).values
        assert np.array_equal(scattered_far_field(scene, sol, 16).values, want)
        src = load_source_scene(_root_disk_cfg(radicand))
        pts = np.array([[0.0, 0.0], [0.39, 0.05], [0.41, 0.0], [0.6, 0.6]])
        got = solve_field(src, pts, spacing=0.01)
        assert np.all(np.isfinite(got))
        twin_src = dataclasses.replace(src, phi=_abs_root(radicand))
        assert np.array_equal(got, solve_field(twin_src, pts, spacing=0.01))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_root_disk_cfg(radicand)))
        assert main(["medium", str(path), "--spacing", "0.01", "--dirs", "8"]) == EXIT_OK
        assert main(["source", str(path), "--fields", str(tmp_path / "u.csv"), "--grid", "5"]) == EXIT_OK

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command", [["medium"], ["source", "--fields", "u.csv", "--grid", "5"]])
    def test_root_nan_on_live_cells_exit_2(self, tmp_path, monkeypatch, capsys, command):
        # sqrt(0.16) is the disk's own radius: cut cells whose centres lie
        # outside it read NaN.
        monkeypatch.chdir(tmp_path)
        Path("s.json").write_text(json.dumps(_root_disk_cfg(0.16)))
        assert main([command[0], "s.json", *command[1:]]) == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err


def _medium_cfg(**changes):
    cfg = {
        "dimension": 2,
        "wavenumber": 0.5,
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "contrast": {"kind": "constant", "value": 0.1},
    }
    cfg.update(changes)
    return cfg


def _npz_without_values(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez(path, origin=np.zeros(2), spacing=0.1)
    return str(path)


class TestBadMediumScenes:
    @pytest.mark.parametrize(
        "changes",
        [
            lambda tmp: {"dimension": 3},  # the ball's centre stays 2-d
            lambda tmp: {"contrast": {"kind": "constant", "value": [1.0, -0.5]}},
            lambda tmp: {"contrast": {"kind": "grid", "path": str(tmp / "missing.npz")}},
            lambda tmp: {"contrast": {"kind": "grid", "path": _npz_without_values(tmp)}},
            lambda tmp: {"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": -0.5}},
            lambda tmp: {"domain": {"kind": "star", "r0": -0.5}},
            lambda tmp: {"contrast": {"kind": "constant", "value": "abc"}},
            lambda tmp: {"incident": {"kind": "plane_wave", "direction": [1.0, 0.0, 1.0]}},
            lambda tmp: {"incident": {"kind": "plane_wave", "direction": [0.0, 0.0]}},
            lambda tmp: {"incident": {"kind": "herglotz", "density": "1", "n_quad": 0}},
            lambda tmp: {"incident": {"kind": "cgo", "tau": "nan"}},
        ],
        ids=["centre_dimension", "negative_imag_contrast", "missing_npz", "npz_without_values",
             "negative_radius", "negative_star_radius", "malformed_constant", "direction_dimension",
             "zero_direction", "no_herglotz_directions", "nan_cgo_tau"],
    )
    def test_exit_2_without_traceback(self, tmp_path, capsys, changes):
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(_medium_cfg(**changes(tmp_path))))
        assert main(["medium", str(scene), "--dirs", "16"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error: ")


class TestTeigCommand:
    def test_table(self, tmp_path):
        cfg = tmp_path / "itp.json"
        cfg.write_text(json.dumps({"radius": 1.0, "contrast": 15.0}))
        out = tmp_path / "eigs.csv"
        code = main(
            ["teig", str(cfg), "--kmax", "2.0", "--modes", "0,1", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mode,index,k_eig,boundary_value_u"
        ks = [float(l.split(",")[2]) for l in lines[1:]]
        assert any(abs(k - 0.993997561886) < 1e-8 for k in ks)

    def test_repeated_modes_write_each_root_once(self, tmp_path):
        cfg = tmp_path / "itp.json"
        cfg.write_text(json.dumps({"radius": 1.0, "contrast": 15.0}))
        tables = []
        for modes in ("2,0,0", "0,2"):
            out = tmp_path / f"eigs_{modes}.csv"
            args = ["teig", str(cfg), "--kmax", "3", "--modes", modes, "--out", str(out)]
            assert main(args) == EXIT_OK
            tables.append(out.read_text())
        assert tables[0] == tables[1]
        rows = [line.split(",") for line in tables[0].strip().splitlines()[1:]]
        mode0 = [int(r[1]) for r in rows if r[0] == "0"]
        assert mode0 == list(range(1, len(mode0) + 1)) and len(mode0) == 2

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "itp.json"
        cfg.write_text(json.dumps({"radius": 1.0}))
        out = tmp_path / "eigs.csv"
        assert main(["teig", str(cfg), "--kmax", "2.0", "--out", str(out)]) == EXIT_CONFIG


class TestCgoVerifyCommand:
    def test_passes_small_sample(self):
        assert main(["cgo-verify", "--n", "2", "--samples", "4"]) == EXIT_OK

    def test_unreachable_tolerance_exit_1(self):
        code = main(["cgo-verify", "--n", "2", "--samples", "3", "--tol", "1e-16"])
        assert code == EXIT_ASSERTION

    @pytest.mark.parametrize(
        "option, value", [("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"), ("--samples", "-1")]
    )
    def test_bad_argument_exit_2(self, capsys, option, value):
        assert main(["cgo-verify", "--n", "2", option, value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err


class TestNumericalFailureExit:
    def test_oversized_field_grid_exit_3(self, tmp_path):
        cfg = {
            "dimension": 2,
            "wavenumber": 5000.0,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.7},
            "intensity": {"kind": "constant", "value": 1.0},
        }
        scene = tmp_path / "hf.json"
        scene.write_text(json.dumps(cfg))
        code = main(
            ["source", str(scene), "--fields", str(tmp_path / "u.csv"), "--grid", "4"]
        )
        assert code == EXIT_NUMERICAL


class TestExperimentCommand:
    def test_unknown_suite(self, tmp_path):
        code = main(["experiment", "nope", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_smallness_suite(self, tmp_path):
        code = main(["experiment", "smallness_source", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "smallness_source.json").read_text())
        assert summary["passed"] is True
        assert summary["counterexamples"] == 0
        assert (tmp_path / "smallness_source.csv").exists()

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radii": [0.5], "n_dirs": 16}))
        code = main(
            ["experiment", "smallness_source", str(cfg), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "smallness_source.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header + one radius + two Bessel rows

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code = main(
            ["experiment", "smallness_source", str(cfg), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG


_SMALL_SCENE = {
    "dimension": 2,
    "wavenumber": 1.0,
    "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.4},
    "intensity": {"kind": "constant", "value": 1.0},
    "contrast": {"kind": "constant", "value": 0.1},
}


def _small_scene(**changes):
    return {**_SMALL_SCENE, **changes}


def _row(files, *argv):
    """A command line whose ``{tmp}`` fields name a fresh directory holding ``files``."""
    return files, list(argv)


def _patchy_grid_row(command, field, elsewhere):
    """``command`` on the small scene with ``field`` read from an npz grid that
    holds 0.1 in every cell the scene loader samples (the nodes of
    ``quad_nodes(16)``) and ``elsewhere`` in every other cell."""
    pts, _ = load_domain(_SMALL_SCENE["domain"], 2).quad_nodes(16)
    values = np.full((81, 81), elsewhere, dtype=complex)
    values[tuple(np.round((pts + 0.4) / 0.01).astype(int).T)] = 0.1
    files = {
        "g.npz": {"origin": np.array([-0.4, -0.4]), "spacing": 0.01, "values": values},
        "s.json": _small_scene(**{field: {"kind": "grid", "path": "g.npz"}}),
    }
    return _row(files, command, "{tmp}/s.json")


def _experiment(suite, cfg):
    """``invisiscat experiment`` on ``suite`` with config ``cfg``."""
    return _row({"cfg.json": cfg}, "experiment", suite, "{tmp}/cfg.json", "--out", "{tmp}")


_ITP = {"itp.json": {"radius": 1.0, "contrast": 15.0}}
_SCENE = {"s.json": _SMALL_SCENE}


def _domain_row(command, **domain):
    return _row({"s.json": _small_scene(domain=domain)}, command, "{tmp}/s.json")


# Out-of-range scene values, each refused by the constructor that states
# the rule, and the words of that rule in its message.
_CAP_RULE = "need K, L, delta > 0 and M >= 1"
_RANGE_ERRORS = {
    **{
        f"capped_{key}_{value}": (_domain_row("source", kind="capped", K=8, **{key: value}), _CAP_RULE)
        for key, value in (("M", 0.5), ("M", 0), ("M", -1), ("L", -1), ("delta", 0))
    },
    # The norm overflows, so the direction used to divide down to [0, 0].
    "plane_wave_direction_1e308": (
        _row({"s.json": _small_scene(incident={"kind": "plane_wave", "direction": [1e308, 1e308]})},
             "medium", "{tmp}/s.json"),
        "direction must have a finite, nonzero norm",
    ),
    **{
        f"{name}_{value}": (row, rule)
        for value in (0, -1)
        for name, row, rule in (
            ("ball_radius", _domain_row("source", kind="ball", center=[0, 0], radius=value),
             "ball radius must lie in"),
            ("annulus_r_inner", _domain_row(
                "source", kind="annulus", center=[0, 0], r_inner=value, r_outer=0.5),
             "need 0 < r_inner < r_outer"),
            ("star_r0", _domain_row("source", kind="star", r0=value),
             "star radial function must be finite and positive"),
            ("capped_K", _domain_row("source", kind="capped", K=value), "K >= e"),
            ("capped_bulk_width", _domain_row("source", kind="capped", K=8, bulk_width=value),
             "bulk_width must be finite and positive"),
            ("wavenumber", _row({"s.json": _small_scene(wavenumber=value)}, "medium", "{tmp}/s.json"),
             "wavenumber must be finite and positive"),
            ("itp_radius", _row({"itp.json": {"radius": value, "contrast": 15.0}},
                                "teig", "{tmp}/itp.json", "--kmax", "3", "--out", "{tmp}/e.csv"),
             "radius must be finite and positive"),
        )
    },
}

# Inputs that ended in a traceback, a wrong exit code or a silent exit 0;
# each must now exit 2 with an "error: " line.
_CONFIG_ERRORS = {
    "source_dirs_4": _row(_SCENE, "source", "{tmp}/s.json", "--dirs", "4"),
    "source_dirs_0": _row(_SCENE, "source", "{tmp}/s.json", "--dirs", "0"),
    "source_grid_negative": _row(
        _SCENE, "source", "{tmp}/s.json", "--fields", "{tmp}/u.csv", "--grid", "-3"
    ),
    "medium_spacing_0": _row(_SCENE, "medium", "{tmp}/s.json", "--spacing", "0"),
    "medium_spacing_negative": _row(_SCENE, "medium", "{tmp}/s.json", "--spacing", "-0.1"),
    "medium_spacing_nan": _row(_SCENE, "medium", "{tmp}/s.json", "--spacing", "nan"),
    "medium_dirs_0": _row(_SCENE, "medium", "{tmp}/s.json", "--dirs", "0"),
    "medium_dirs_negative": _row(_SCENE, "medium", "{tmp}/s.json", "--dirs", "-5"),
    "source_dirs_1e13": _row(_SCENE, "source", "{tmp}/s.json", "--dirs", "10000000000000"),
    "medium_dirs_1e13": _row(_SCENE, "medium", "{tmp}/s.json", "--dirs", "10000000000000"),
    "source_grid_1e8": _row(
        _SCENE, "source", "{tmp}/s.json", "--fields", "{tmp}/u.csv", "--grid", "100000000"
    ),
    "cgo_tau_0": _row(
        {"s.json": _small_scene(incident={"kind": "cgo", "tau": 0})}, "medium", "{tmp}/s.json"
    ),
    "cgo_tau_negative": _row(
        {"s.json": _small_scene(incident={"kind": "cgo", "tau": -1})}, "medium", "{tmp}/s.json"
    ),
    # CGO incident fields e^{tau x_1} on the unit disk, which the scene
    # loader samples only inside the disk: at tau = 600 every value on the
    # solver's grid is finite but their norm overflows, and at tau = 700
    # the cells past the disk overflow.
    "cgo_tau_600_norm_overflows": _row(
        {"s.json": _small_scene(domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                                incident={"kind": "cgo", "tau": 600})},
        "medium", "{tmp}/s.json",
    ),
    "cgo_tau_700_field_overflows": _row(
        {"s.json": _small_scene(domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                                incident={"kind": "cgo", "tau": 700})},
        "medium", "{tmp}/s.json",
    ),
    "source_grid_nan_off_sample": _patchy_grid_row("source", "intensity", np.nan),
    "medium_grid_nan_off_sample": _patchy_grid_row("medium", "contrast", np.nan),
    "medium_grid_negative_imag_off_sample": _patchy_grid_row("medium", "contrast", -0.5j),
    "herglotz_n_quad_1e13": _row(
        {"s.json": _small_scene(incident={"kind": "herglotz", "density": "1", "n_quad": 10**13})},
        "medium", "{tmp}/s.json",
    ),
    # Read as 1 by float(), before scenes took JSON numbers only.
    "source_radius_true": _row(
        {"s.json": _small_scene(domain={"kind": "ball", "center": [0.0, 0.0], "radius": True})},
        "source", "{tmp}/s.json",
    ),
    "teig_modes_letter": _row(
        _ITP, "teig", "{tmp}/itp.json", "--kmax", "3", "--modes", "a", "--out", "{tmp}/e.csv"
    ),
    "teig_modes_negative": _row(
        _ITP, "teig", "{tmp}/itp.json", "--kmax", "3", "--modes", "-1", "--out", "{tmp}/e.csv"
    ),
    "teig_dimension_fraction": _row(
        {"itp.json": {"radius": 1.0, "contrast": 15.0, "dimension": 2.5}},
        "teig", "{tmp}/itp.json", "--kmax", "3", "--out", "{tmp}/e.csv",
    ),
    "cgo_verify_seed_negative": _row({}, "cgo-verify", "--samples", "1", "--seed", "-1"),
    "teig_out_missing_dir": _row(
        _ITP, "teig", "{tmp}/itp.json", "--kmax", "3", "--out", "{tmp}/missing/e.csv"
    ),
    "source_farfield_missing_dir": _row(
        _SCENE, "source", "{tmp}/s.json", "--farfield", "{tmp}/missing/ff.csv"
    ),
    "experiment_out_under_file": _row(
        {"cfg.json": {"radii": [0.5], "n_dirs": 16}},
        "experiment", "smallness_source", "{tmp}/cfg.json", "--out", "{tmp}/cfg.json/out",
    ),
    "experiment_alpha_2": _row(
        {"cfg.json": {"alpha": 2}},
        "experiment", "curvature_source", "{tmp}/cfg.json", "--out", "{tmp}",
    ),
    "experiment_alpha_1": _row(
        {"cfg.json": {"alpha": 1}},
        "experiment", "curvature_source", "{tmp}/cfg.json", "--out", "{tmp}",
    ),
    "experiment_radius_0": _row(
        {"cfg.json": {"radii": [0]}},
        "experiment", "smallness_source", "{tmp}/cfg.json", "--out", "{tmp}",
    ),
    "wavenumber_list": _row({"s.json": _small_scene(wavenumber=[1])}, "source", "{tmp}/s.json"),
    "dimension_null": _row({"s.json": _small_scene(dimension=None)}, "source", "{tmp}/s.json"),
    "scene_is_list": _row({"s.json": [1, 2]}, "medium", "{tmp}/s.json"),
    "constant_one_entry": _row(
        {"s.json": _small_scene(intensity={"kind": "constant", "value": [1]})},
        "source", "{tmp}/s.json",
    ),
    "contrast_list": _row({"s.json": _small_scene(contrast=[1])}, "medium", "{tmp}/s.json"),
    "capped_K_text": _row(
        {"s.json": _small_scene(domain={"kind": "capped", "K": "a"})}, "source", "{tmp}/s.json"
    ),
    **{
        f"capped_{key}_{value}": _row(
            {"s.json": _small_scene(domain={"kind": "capped", "K": 8, key: value})},
            "source", "{tmp}/s.json",
        )
        for key, value in (
            ("bulk_height", -1), ("cubic", float("nan")), ("delta", float("nan")),
            ("L", float("inf")), ("M", 1e300),
        )
    },
    **{name: row for name, (row, _) in _RANGE_ERRORS.items()},
    "intensity_division_by_zero": _row(
        {"s.json": _small_scene(intensity={"kind": "expression", "expr": "1/0"})},
        "source", "{tmp}/s.json",
    ),
    "intensity_nested_250_parentheses": _row(
        {"s.json": _small_scene(intensity={"kind": "expression", "expr": "(" * 250 + "1" + ")" * 250})},
        "source", "{tmp}/s.json",
    ),
    "intensity_sum_of_1000_terms": _row(
        {"s.json": _small_scene(intensity={"kind": "expression", "expr": "+".join(["x1"] * 1000)})},
        "source", "{tmp}/s.json",
    ),
    "star_negative_radius": _row(
        {"s.json": _small_scene(domain={"kind": "star", "r0": 0.5, "cos_coeffs": [2.0]})},
        "source", "{tmp}/s.json",
    ),
    "experiment_calibration_5": _experiment("smallness_source", {"calibration": 5}),
    "experiment_calibration_override": _experiment(
        "smallness_source",
        {"calibration": {"smallness_source": {
            "C_visibility": 1e300, "C_lower_bound": 0, "far_field_floor": 0,
        }}},
    ),
    **{
        f"experiment_{suite}_k_{name}": _experiment(suite, {"k": k})
        for suite in SUITES
        for name, k in (("0", 0), ("negative", -1), ("nan", float("nan")), ("inf", float("inf")))
    },
    **{
        f"experiment_{suite}_K_{name}": _experiment(suite, {"K_list": [K]})
        for suite in ("curvature_source", "medium_visibility")
        for name, K in (
            ("below_e", 1.0), ("nan", float("nan")), ("inf", float("inf")), ("1e300", 1e300),
        )
    },
    **{
        f"experiment_curvature_uniqueness_K_{name}": _experiment("curvature_uniqueness", {"K": K})
        for name, K in (("2", 2), ("nan", float("nan")), ("inf", float("inf")), ("1e300", 1e300))
    },
    "experiment_medium_visibility_dirs_0": _experiment("medium_visibility", {"n_dirs": 0}),
    "experiment_schiffer_counting_seed_negative": _experiment("schiffer_counting", {"seed": -1}),
    "experiment_medium_visibility_radii_empty": _experiment("medium_visibility", {"radii": []}),
    "experiment_medium_visibility_dirs_fraction": _experiment("medium_visibility", {"n_dirs": 1.5}),
    "experiment_curvature_uniqueness_K_text": _experiment("curvature_uniqueness", {"K": "x"}),
    "experiment_curvature_source_delta_0": _experiment("curvature_source", {"delta": 0}),
    "experiment_curvature_source_delta_negative": _experiment("curvature_source", {"delta": -1}),
    **{
        f"experiment_medium_visibility_alpha_{alpha}": _experiment("medium_visibility", {"alpha": alpha})
        for alpha in (-1075.0, 1024.0)
    },
    # A radiationless radius j_(1, 1) / k whose square overflows, and a
    # radius whose spacing diam/64 underflows to zero.
    "experiment_smallness_source_k_tiny": _experiment("smallness_source", {"k": 2.4e-194}),
    "experiment_smallness_source_radius_subnormal": _experiment("smallness_source", {"radii": [5e-324]}),
}


def _run_row(tmp_path, monkeypatch, capsys, files, argv):
    """(exit code, stderr) of ``argv`` in ``tmp_path`` after writing ``files`` there."""
    monkeypatch.chdir(tmp_path)  # scenes name their npz files relative to it
    for name, content in files.items():
        if name.endswith(".npz"):
            np.savez(tmp_path / name, **content)
        else:
            (tmp_path / name).write_text(json.dumps(content))
    code = main([a.format(tmp=tmp_path) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("files, argv", _CONFIG_ERRORS.values(), ids=_CONFIG_ERRORS.keys())
def test_config_errors_exit_2_without_traceback(tmp_path, monkeypatch, capsys, files, argv):
    code, err = _run_row(tmp_path, monkeypatch, capsys, files, argv)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("row, rule", _RANGE_ERRORS.values(), ids=_RANGE_ERRORS.keys())
def test_range_errors_name_the_rule(tmp_path, monkeypatch, capsys, row, rule):
    code, err = _run_row(tmp_path, monkeypatch, capsys, *row)
    assert code == EXIT_CONFIG
    assert rule in err


def test_kernel_cell_integral_underflow_exits_3(tmp_path, capsys):
    """k h underflows to zero in the kernel's cell integral: a numerical failure, not a raise."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5e-324}))
    code = main(["experiment", "schiffer_separation", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "Traceback" not in capsys.readouterr().err


def test_medium_cgo_incident_below_overflow_solves(tmp_path):
    """tau = 300 on the unit disk, half the exponent of the rows above: a finite far field."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_small_scene(
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        incident={"kind": "cgo", "tau": 300},
    )))
    ff = tmp_path / "ff.csv"
    assert main(["medium", str(path), "--farfield", str(ff)]) == EXIT_OK
    values = np.loadtxt(ff, delimiter=",", skiprows=1)
    assert values.size and np.all(np.isfinite(values))


def test_medium_solves_a_fine_grid(tmp_path):
    """--spacing 0.001 puts 646,416 cells on the radius-0.4 disk, inside solve_ls's budget."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_SMALL_SCENE))
    assert main(["medium", str(path), "--spacing", "0.001", "--dirs", "8"]) == EXIT_OK


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
_FUZZ_FIELDS = [
    ("dimension",), ("wavenumber",), ("domain",), ("intensity",), ("contrast",), ("incident",),
    ("domain", "kind"), ("domain", "center"), ("domain", "radius"),
    ("intensity", "kind"), ("intensity", "value"), ("contrast", "kind"), ("contrast", "value"),
]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(field=st.sampled_from(_FUZZ_FIELDS), value=_JSON_VALUES)
def test_scene_fuzz_never_escapes_main(tmp_path_factory, field, value):
    """One field of a valid scene replaced by any JSON value: exit 0, 2 or 3, never a raise."""
    cfg = json.loads(json.dumps(_SMALL_SCENE))
    *parents, leaf = field
    node = cfg
    for key in parents:
        node = node[key]
    node[leaf] = value
    path = tmp_path_factory.mktemp("fuzz") / "scene.json"
    path.write_text(json.dumps(cfg))
    for command in ("source", "medium"):
        assert main([command, str(path), "--dirs", "8"]) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


def _of_default_kind(default, value) -> bool:
    """Whether a JSON value is of the kind of a suite parameter's default."""

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return number(value)
    return isinstance(value, list) and all(map(number, value))


@st.composite
def _bad_suite_configs(draw):
    """A suite and a one-key config naming an unknown key or holding a value of the wrong kind."""
    name = draw(st.sampled_from(sorted(SUITES)))
    params = inspect.signature(SUITES[name]).parameters
    if draw(st.booleans()):
        key = draw(st.text(max_size=8).filter(lambda s: s not in params))
        return name, {key: draw(_JSON_VALUES)}
    key = draw(st.sampled_from(sorted(params)))
    default = params[key].default
    return name, {key: draw(_JSON_VALUES.filter(lambda v: not _of_default_kind(default, v)))}


def _refuse(suite):
    """``suite``'s signature on a function that fails the test if it is called."""

    @functools.wraps(suite)
    def refuse(**cfg):
        raise AssertionError(f"{suite.__name__} started on a rejected config {cfg!r}")

    return refuse


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_bad_suite_configs())
def test_suite_config_fuzz_exits_2_before_the_suite_runs(tmp_path_factory, case):
    """An unknown key or a value not of its default's kind: exit 2, no traceback, no suite run."""
    name, cfg = case
    tmp = tmp_path_factory.mktemp("suite_fuzz")
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setitem(cli.SUITES, name, _refuse(SUITES[name]))
        code = main(["experiment", name, str(tmp / "cfg.json"), "--out", str(tmp)])
    assert code == EXIT_CONFIG
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


# Bounds on the suite keys that set grid sizes, quadrature nodes or solve
# counts.  Each is drawn from [0, bound] or [-bound, bound], so zero and
# negative values (which must exit 2) come up too; the other float keys
# (alpha, delta) from (0, 1] or from any finite float.
_GRID_KEY_BOUNDS = {
    "k": 2.0, "radius": 1.0, "radii": 1.0, "v0": 1.0, "v0_a": 1.0, "v0_b": 1.0,
    "K": 1e4, "K_list": 1e4, "n_dirs": 128, "n_candidates": 12,
}


def _suite_value(key, default):
    """Values of ``default``'s kind, bounded when ``key`` sizes a grid."""
    bound = _GRID_KEY_BOUNDS.get(key)
    if isinstance(default, int):
        return st.integers(0, bound) if bound else st.integers(0, 2**63)
    if bound:
        number = st.floats(0.0, bound) | st.floats(-bound, bound) | st.integers(-int(bound), int(bound))
    else:
        number = st.floats(0.0, 1.0, exclude_min=True) | st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, float):
        return number
    return st.lists(number, min_size=1, max_size=3)


@st.composite
def _valid_suite_configs(draw):
    """A suite and a config of its own keys, each holding a value of its default's kind."""
    name = draw(st.sampled_from(sorted(SUITES)))
    params = inspect.signature(SUITES[name]).parameters
    keys = draw(st.lists(st.sampled_from(sorted(params)), unique=True, max_size=3))
    return name, {key: draw(_suite_value(key, params[key].default)) for key in keys}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_valid_suite_configs())
def test_suite_config_fuzz_runs_within_the_exit_contract(tmp_path_factory, case):
    """A valid config runs: exit 0-3 and no traceback; 0 and 1 only with both outputs written."""
    name, cfg = case
    tmp = tmp_path_factory.mktemp("suite_run")
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["experiment", name, str(tmp / "cfg.json"), "--out", str(tmp)])
    assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_OK, EXIT_ASSERTION):
        assert (tmp / f"{name}.csv").exists()
        summary = json.loads((tmp / f"{name}.json").read_text())
        assert summary["passed"] is (code == EXIT_OK)
    else:
        assert err.getvalue().startswith("error: ")
