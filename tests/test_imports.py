"""What ``import invisiscat`` loads, and the deferred imports on first use.

Each check runs in a fresh interpreter, so that modules the test run
already imported cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import invisiscat

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
            "from invisiscat.holder import SampledFunction, boundary_sup, holder_norm\n"
            "from invisiscat.medium import MediumScene, PlaneWave, solve_ls\n"
            "x = np.linspace(0.0, 1.0, 101)\n"
            "f = SampledFunction(points=x[:, None], values=np.abs(x - 0.5), spacing=0.01)\n"
            "dom = Domain([BallComponent([0.0, 0.0], 0.4)])\n"
            "pts = np.random.default_rng(0).uniform(-0.4, 0.4, size=(400, 2))\n"
            "g = SampledFunction(points=pts, values=np.ones(400), spacing=0.04)\n"
            "scene = MediumScene(Domain([BallComponent([0.0, 0.0], 1.0)]), 15.0, 3.0, PlaneWave([1.0, 0.0]))\n"
            "sol = solve_ls(scene, tol=1e-8, spacing=2.2 / 64)\n"
            "print(json.dumps({'holder': holder_norm(f, 1.0), 'sup': boundary_sup(g, dom),\n"
            "    'method': sol.method, 'residual': sol.residuals[-1],\n"
            "    'loaded': [m for m in ('scipy.spatial', 'scipy.sparse.linalg') if m in sys.modules]}))\n"
        )
        assert abs(got["holder"] - 1.5) < 1e-12
        assert got["sup"] == 1.0
        assert got["method"] == "gmres" and got["residual"] <= 1e-7
        assert got["loaded"] == ["scipy.spatial", "scipy.sparse.linalg"]
