"""What ``import invisiscat`` loads, and the deferred imports on first use.

Each check runs in a fresh interpreter, so that modules the test run
already imported cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invisiscat
import invisiscat.experiments as ex

SRC = str(Path(invisiscat.__file__).resolve().parents[1])
DEFERRED = ["scipy.spatial", "scipy.ndimage", "scipy.sparse", "scipy.linalg"]


def run_fresh(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportSet:
    def test_import_loads_no_deferred_subpackage(self):
        loaded = run_fresh(
            "import json, sys\n"
            "import invisiscat, invisiscat.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        assert [m for m in loaded if any(m == d or m.startswith(d + ".") for d in DEFERRED)] == []
        assert "scipy.special" in loaded and "scipy.fft" in loaded

    def test_deferred_imports_work_on_first_use(self):
        got = run_fresh(
            "import json, math, sys\n"
            "import numpy as np\n"
            "from invisiscat.geometry import BallComponent, Domain\n"
            "from invisiscat.holder import SampledFunction, holder_norm\n"
            "from invisiscat.medium import MediumScene, PlaneWave, estimate_c0, solve_ls\n"
            "loaded = lambda: [m for m in ('scipy.spatial', 'scipy.sparse.linalg') if m in sys.modules]\n"
            "x = np.linspace(0.0, 1.0, 101)\n"
            "f = SampledFunction(points=x[:, None], values=np.abs(x - 0.5), spacing=0.01)\n"
            "scene = MediumScene(Domain([BallComponent([0.0, 0.0], 1.0)]), 15.0, 3.0, PlaneWave([1.0, 0.0]))\n"
            "sol = solve_ls(scene, tol=1e-8, spacing=2.2 / 64)\n"
            "got = {'holder': holder_norm(f, 1.0), 'residual': sol.residuals[-1], 'after_solve': loaded()}\n"
            "got['c0'] = estimate_c0(0.5, 1.0, 2, resolution=8)\n"
            "print(json.dumps({**got, 'after_c0': loaded()}))\n"
        )
        assert abs(got["holder"] - 1.5) < 1e-12
        assert got["residual"] <= 1e-8 and got["c0"] > 0.0
        assert got["after_solve"] == ["scipy.spatial"]
        assert got["after_c0"] == ["scipy.spatial", "scipy.sparse.linalg"]


class TestBlasPin:
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_every_openblas_runs_one_thread_after_estimate_c0(self, monkeypatch):
        # The pin overrides the environment, and no later import (here
        # scipy.sparse.linalg, which estimate_c0 loads) or solve starts BLAS
        # threads again.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        getters = [name.replace("_set_", "_get_") for name in ex._BLAS_SET_THREADS]
        got = run_fresh(
            "import ctypes, json, os, sys\n"
            "import invisiscat\n"
            "from invisiscat.geometry import BallComponent, Domain\n"
            "from invisiscat.medium import MediumScene, PlaneWave, estimate_c0, solve_ls\n"
            "scene = MediumScene(Domain([BallComponent([0.0, 0.0], 1.0)]), 15.0, 3.0, PlaneWave([1.0, 0.0]))\n"
            "sol = solve_ls(scene, tol=1e-8, spacing=2.2 / 64)\n"
            "c0 = estimate_c0(0.5, 1.0, 2, resolution=8)\n"
            "with open('/proc/self/maps') as maps:\n"
            "    paths = sorted({l.split(maxsplit=5)[5].strip() for l in maps if 'openblas' in l})\n"
            "threads = {}\n"
            "for path in paths:\n"
            "    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)\n"
            f"    get = next(getattr(lib, n) for n in {getters!r} if hasattr(lib, n))\n"
            "    threads[path] = get()\n"
            "print(json.dumps({'loaded': 'scipy.sparse.linalg' in sys.modules, 'threads': threads}))\n"
        )
        if not got["threads"]:
            pytest.skip("no OpenBLAS is mapped into the process")
        assert got["loaded"]
        assert set(got["threads"].values()) == {1}, got["threads"]

    def test_pin_is_quiet_without_proc_maps(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError("/proc/self/maps")

        monkeypatch.setattr(ex, "open", unreadable, raising=False)
        assert ex._pin_blas_threads() is None
