"""Golden bundles: ``braidmu generate`` and, for a fixed seed, ``braidmu search``
write the same bytes as when their digests were recorded.

The generated matrices are exact (0, 1 and -1 entries, built without
arithmetic), so their digests hold on any numpy or BLAS.

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


GENERATED = {
    "kac-takesaki --group S3":
        "f52a7394d7ffe7033364f586fd2a214fdbbf0dcf2c8b61309b1075471ea20afe",
    "kac-takesaki --group Zn --n 5":
        "a234f18cd76f1df2951a27ed54a98605503ed0e22db7f54f4f372e0816059da3",
    "identity --dim 3": "6dffe41baabf15f30fb4c1349d282e309694e2a20fbc6a37d52b9b5f994c35f5",
    "group-yd": "01a5a41d735b87599cc21230134a770dec65217635ce5584867d17a358f5e5a5",
    "super --dim 4": "f0c85f6be2c0867857d2eff3b7b7b361867075a5cab204587af75a39795bbd10",
}


@pytest.mark.parametrize("args", sorted(GENERATED))
def test_generated_bundles_match_their_golden_digests(tmp_path, capsys, args):
    out = tmp_path / "bundle.json"
    assert main(["generate", *args.split(), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED[args]
