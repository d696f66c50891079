"""The six experiment suites against their committed reference outputs.

``tests/reference/suites`` holds the CSV and JSON that
``invisiscat experiment NAME --out DIR`` writes for each suite at its
defaults, and ``tests/reference/manifest.json`` the numpy, scipy and BLAS
versions they were made with.  The suites rerun in process and are
compared with the corpus in one of two modes:

* bytes, where this interpreter's versions equal the manifest's: the
  outputs are deterministic, so one ulp anywhere is a regression;
* tolerance, elsewhere: every character outside a number, the verdict
  columns (``counterexample``, ``expect_separation``, ...) and the JSON
  ``passed`` flag included, must match exactly, and each number must
  agree to a relative ``RTOL``, or absolutely to ``ATOL`` (the silent far
  fields sit at roundoff level, where another libm or BLAS changes every
  digit).

Running this file prints the versions as the manifest records them.  To
renew the corpus, rerun the six suites into ``tests/reference/suites``
and write that print to the manifest.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from invisiscat.experiments import SUITES, write_outputs

REFERENCE = Path(__file__).with_name("reference")
CORPUS = REFERENCE / "suites"
FILES = [f"{name}.{ext}" for name in SUITES for ext in ("csv", "json")]
RTOL = 1e-6
ATOL = 1e-12

_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?|\bnan\b|-?\binf\b)")


def _blas(module) -> str:
    """Name and version of the BLAS the module was built against."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):  # older releases keep no such record
        return "unknown"


def library_versions() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
    }


def _same_text(want: str, got: str) -> bool:
    """Equal text around the numbers (the split's odd items); numbers to RTOL or ATOL."""
    w, g = _NUMBER.split(want), _NUMBER.split(got)
    return len(w) == len(g) and all(
        a == b
        or i % 2 == 1 and math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
        for i, (a, b) in enumerate(zip(w, g))
    )


def differences(want_dir: Path, got_dir: Path, exact: bool) -> list:
    """Names of the suite files in which ``got_dir`` differs from ``want_dir``."""
    bad = []
    for name in FILES:
        want, got = want_dir / name, got_dir / name
        if exact:
            same = want.read_bytes() == got.read_bytes()
        else:
            same = _same_text(want.read_text(), got.read_text())
        if not same:
            bad.append(name)
    return bad


@pytest.fixture(scope="module")
def suite_outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("suites")
    for suite in SUITES.values():
        write_outputs(suite(), out)
    return out


def test_suites_match_the_reference_corpus(suite_outputs):
    manifest = json.loads((REFERENCE / "manifest.json").read_text())
    exact = library_versions() == manifest
    mode = "bytes" if exact else f"tolerance (rel {RTOL:g}, abs {ATOL:g})"
    print(f"reference corpus compared by {mode}; versions {library_versions()}")
    assert differences(CORPUS, suite_outputs, exact) == [], mode


def _mutated(tmp_path: Path, name: str, old: str, new: str) -> Path:
    """A copy of the corpus with the first ``old`` in ``name`` replaced by ``new``."""
    copy = tmp_path / "corpus"
    shutil.copytree(CORPUS, copy)
    text = (copy / name).read_text()
    assert old in text
    (copy / name).write_text(text.replace(old, new, 1))
    return copy


def test_one_ulp_fails_the_byte_mode(tmp_path):
    old = "2.386520303731267"  # curvature_source's envelope at K = e
    new = repr(float(np.nextafter(float(old), math.inf)))
    copy = _mutated(tmp_path, "curvature_source.csv", old, new)
    assert differences(CORPUS, copy, exact=True) == ["curvature_source.csv"]
    assert differences(CORPUS, copy, exact=False) == []


def test_a_change_past_the_tolerance_fails_the_tolerance_mode(tmp_path):
    old = "2.386520303731267"
    new = repr(float(old) * (1.0 + 10.0 * RTOL))
    copy = _mutated(tmp_path, "curvature_source.csv", old, new)
    assert differences(CORPUS, copy, exact=False) == ["curvature_source.csv"]


# The counterexample column of a CSV row and the summary flag of a JSON file, flipped.
_FLIPS = {
    "counterexample": ("curvature_uniqueness.csv", "True,True,False\n", "True,True,True\n"),
    "passed": ("schiffer_counting.json", '"passed": true', '"passed": false'),
}


@pytest.mark.parametrize("flip", _FLIPS.values(), ids=_FLIPS.keys())
@pytest.mark.parametrize("exact", [True, False], ids=["bytes", "tolerance"])
def test_a_flipped_verdict_fails_both_modes(tmp_path, exact, flip):
    name = flip[0]
    assert differences(CORPUS, _mutated(tmp_path, *flip), exact) == [name]


if __name__ == "__main__":
    print(json.dumps(library_versions(), indent=1, sort_keys=True))
