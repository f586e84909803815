"""Golden search bundles: for a fixed seed, ``braidmu search`` writes the same
bytes as when ``golden_search.json`` was recorded.

Search runs every OpenBLAS at one thread, so a bundle depends only on the
seed, numpy and the BLAS builds.  The data file records numpy's version and
the basenames of the OpenBLAS builds mapped when the digests were taken; on
another numpy or BLAS the test skips and names the difference, as the bits
may then move without any change to braidmu.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from braidmu import _blas
from braidmu.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_search.json").read_text())
CASES = {"flip d=2": ["--category", "flip", "--dim", "2"],
         "super d=2": ["--category", "super", "--dim", "2"]}


def _environment_difference() -> str | None:
    import scipy.optimize  # noqa: F401  (maps scipy's OpenBLAS, as search does)
    blas = sorted(os.path.basename(p) for p in _blas._mapped_openblas())
    if np.__version__ != GOLDEN["numpy"]:
        return f"numpy {np.__version__}, digests taken with {GOLDEN['numpy']}"
    if blas != GOLDEN["openblas"]:
        return f"OpenBLAS builds {blas}, digests taken with {GOLDEN['openblas']}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_bundles_match_their_golden_digests(tmp_path, capsys, name):
    difference = _environment_difference()
    if difference:
        pytest.skip(difference)
    out = tmp_path / "bundle.json"
    assert main(["search", *CASES[name], "--seed", "7", "--restarts", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["bundles"][name]
