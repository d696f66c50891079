"""The six experiment suites and five CLI runs against their committed reference outputs.

``tests/reference/suites`` holds the CSV and JSON that
``invisiscat experiment NAME --out DIR`` writes for each suite at its
defaults; ``tests/reference/cli`` holds the scenes and configs of the
``COMMANDS`` below and the CSV files they write (``teig`` spectra in 2-D
and 3-D, ``source`` far fields and fields on a disk and a ball, and the
``medium`` far field and field of a disk whose Neumann series expands); and
``tests/reference/manifest.json`` the numpy, scipy and BLAS versions they
were made with.  The suites and the commands rerun in process and are
compared with the corpus in one of two modes:

* bytes, where this interpreter's versions equal the manifest's: the
  outputs are deterministic, so one ulp anywhere is a regression;
* tolerance, elsewhere: every character outside a number, the verdict
  columns (``counterexample``, ``expect_separation``, ...) and the JSON
  ``passed`` flag included, must match exactly, and each number must
  agree to a relative ``RTOL``, or absolutely to ``ATOL`` (the silent far
  fields sit at roundoff level, where another libm or BLAS changes every
  digit).

Running this file prints the versions as the manifest records them;
``python tests/test_reference_corpus.py --regenerate`` (with ``src`` on
``PYTHONPATH``) renews the corpus: it reruns the six suites into
``tests/reference/suites`` and the commands into ``tests/reference/cli``,
and writes those versions to the manifest.  A change that moves a value
regenerates the corpus in the same commit, so the corpus diff lists the
moved values.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from invisiscat.cli import main
from invisiscat.experiments import SUITES, write_outputs

from checks import REFERENCE, library_versions, versions_match_manifest

CORPUS = REFERENCE / "suites"
FILES = [f"{name}.{ext}" for name in SUITES for ext in ("csv", "json")]
CLI_CORPUS = REFERENCE / "cli"
# The corpus' command lines (the source scenes are CI's disk2 and ball3, the
# medium scene CI's expanding disk: radius 1, contrast 15, k = 1):
# the second word is a file in CLI_CORPUS, and each .csv names an output,
# written by the rerun to a scratch directory and compared with the file
# of that name in CLI_CORPUS.
COMMANDS = [
    ["teig", "itp_2d.json", "--kmax", "4", "--modes", "0,1,2", "--out", "teig_2d.csv"],
    ["teig", "itp_3d.json", "--kmax", "4", "--modes", "0,1,2", "--out", "teig_3d.csv"],
    ["source", "disk2.json", "--dirs", "63", "--farfield", "ff_disk2.csv",
     "--grid", "32", "--fields", "u_disk2.csv"],
    ["source", "ball3.json", "--dirs", "50", "--farfield", "ff_ball3.csv",
     "--grid", "8", "--fields", "u_ball3.csv"],
    ["medium", "expanding2.json", "--spacing", "0.03125", "--farfield", "ff_expanding2.csv",
     "--fields", "u_expanding2.csv"],
]
CLI_FILES = [word for cmd in COMMANDS for word in cmd if word.endswith(".csv")]
RTOL = 1e-6
ATOL = 1e-12

_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?|\bnan\b|-?\binf\b)")


def _same_text(want: str, got: str) -> bool:
    """Equal text around the numbers (the split's odd items); numbers to RTOL or ATOL."""
    w, g = _NUMBER.split(want), _NUMBER.split(got)
    return len(w) == len(g) and all(
        a == b
        or i % 2 == 1 and math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
        for i, (a, b) in enumerate(zip(w, g))
    )


def differences(want_dir: Path, got_dir: Path, exact: bool, files=FILES) -> list:
    """Names of the ``files`` (the suites' by default) in which ``got_dir`` differs from ``want_dir``."""
    bad = []
    for name in files:
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


def _mode() -> tuple:
    """(bytes?, the mode's name), printed with this interpreter's versions."""
    exact = versions_match_manifest()
    mode = "bytes" if exact else f"tolerance (rel {RTOL:g}, abs {ATOL:g})"
    print(f"reference corpus compared by {mode}; versions {library_versions()}")
    return exact, mode


def test_suites_match_the_reference_corpus(suite_outputs):
    exact, mode = _mode()
    assert differences(CORPUS, suite_outputs, exact) == [], mode


def run_commands(scenes: Path, out: Path, commands=COMMANDS) -> None:
    """Run ``commands`` on the scene files in ``scenes``, writing their CSV files to ``out``."""
    for cmd in commands:
        argv = [cmd[0], str(scenes / cmd[1])]
        argv += [str(out / w) if w.endswith(".csv") else w for w in cmd[2:]]
        assert main(argv) == 0, argv


def regenerate(root: Path = REFERENCE, commands=COMMANDS) -> None:
    """Rewrite the corpus under ``root``: the suites, the ``commands``' outputs and the manifest."""
    for suite in SUITES.values():
        write_outputs(suite(), root / "suites")
    run_commands(root / "cli", root / "cli", commands)
    versions = json.dumps(library_versions(), indent=1, sort_keys=True)
    (root / "manifest.json").write_text(versions + "\n")


def test_commands_match_the_reference_corpus(tmp_path):
    run_commands(CLI_CORPUS, tmp_path)
    exact, mode = _mode()
    assert differences(CLI_CORPUS, tmp_path, exact, CLI_FILES) == [], mode


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


def test_regenerate_rewrites_the_corpus(tmp_path):
    # On a copy whose manifest, one suite file and one command output are
    # spoiled; one command (the 2-D teig, the cheapest) keeps the test short.
    root = tmp_path / "reference"
    shutil.copytree(REFERENCE, root)
    (root / "manifest.json").write_text("{}\n")
    (root / "suites" / FILES[0]).write_text("spoiled\n")
    (root / "cli" / "teig_2d.csv").unlink()
    regenerate(root, COMMANDS[:1])
    assert json.loads((root / "manifest.json").read_text()) == library_versions()
    exact, mode = _mode()
    assert differences(CORPUS, root / "suites", exact) == [], mode
    assert differences(CLI_CORPUS, root / "cli", exact, ["teig_2d.csv"]) == [], mode


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Print the library versions in the reference manifest's form, or renew the corpus."
    )
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rewrite tests/reference: the suites, the COMMANDS outputs and the manifest",
    )
    if parser.parse_args().regenerate:
        regenerate()
    else:
        print(json.dumps(library_versions(), indent=1, sort_keys=True))
