"""Golden bundles: ``braidmu generate`` and, for a fixed seed, ``braidmu search``
write the same bytes as when their digests were recorded.

The generated matrices are exact (0, 1 and -1 entries, built without
arithmetic), so their digests hold on any numpy or BLAS.

Search runs every OpenBLAS at one thread, so a bundle depends only on the
seed, numpy and the BLAS builds.  The data file records numpy's version and
the basenames of the OpenBLAS builds mapped when the digests were taken; on
another numpy or BLAS the test skips and names the difference, as the bits
may then move without any change to braidmu.

``full_certificate`` records, their wall times left out, keep the bytes they
had when their digests were recorded, on objects whose span decisions run
on one whole block (the seed-5 gauge conjugates: a dense F) and on objects
whose decisions split by support (KT Z4, the graded object).  A certificate
runs at OpenBLAS's own thread count, so that count is recorded with numpy
and the builds, and a difference in any of them skips the test.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import braidmu as bm
from braidmu import _blas
from braidmu.cli import main
from conftest import gauge_conjugate, graded_kac_takesaki

GOLDEN = json.loads((Path(__file__).parent / "golden_search.json").read_text())
CASES = {"flip d=2": ["--category", "flip", "--dim", "2"],
         "super d=2": ["--category", "super", "--dim", "2"]}


def _environment_difference(recorded: dict = GOLDEN) -> str | None:
    import scipy.optimize  # noqa: F401  (maps scipy's OpenBLAS, as search does)
    blas = sorted(os.path.basename(p) for p in _blas._mapped_openblas())
    if np.__version__ != recorded["numpy"]:
        return f"numpy {np.__version__}, digests taken with {recorded['numpy']}"
    if blas != recorded["openblas"]:
        return f"OpenBLAS builds {blas}, digests taken with {recorded['openblas']}"
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


CERTIFICATE_ENVIRONMENT = {
    "numpy": "2.4.6",
    "openblas": ["libscipy_openblas-6cdc3b4a.so", "libscipy_openblas64_-32a4b2a6.so"],
    "threads": [2, 2],      # each build's count, in the order of the builds' paths
}
CERTIFICATE_OBJECTS = {
    "KT S3, gauge seed 5": lambda: gauge_conjugate(bm.kac_takesaki(bm.symmetric(3)), 5),
    "KT Z4": lambda: bm.kac_takesaki(bm.cyclic(4)),
    "KT Z4, gauge seed 5": lambda: gauge_conjugate(bm.kac_takesaki(bm.cyclic(4)), 5),
    "graded KT Z2": graded_kac_takesaki,
}
CERTIFICATES = {
    "KT S3, gauge seed 5":
        "003687e6ec4397be3b6696e8a48448a8987ed2874a80dbaed63e6b3ac1702f1a",
    "KT Z4":
        "3b82562a13a9de053839aa3da519e7091072f394f3a6df5884c626a547f3822d",
    "KT Z4, gauge seed 5":
        "9454d983af75fecac044585307f17bb2e31f098907c57a2e747dc9585f31fbf5",
    "graded KT Z2":
        "dd418de967a1b50012c7aa4cb2ad9f497f9c91e4a8a31957b8a6f752dc4485d4",
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificates_match_their_golden_digests(name):
    difference = _environment_difference(CERTIFICATE_ENVIRONMENT)
    threads = [get() for get, _ in _blas._thread_controls()]
    if difference is None and threads != CERTIFICATE_ENVIRONMENT["threads"]:
        difference = (f"OpenBLAS threads {threads}, digests taken with "
                      f"{CERTIFICATE_ENVIRONMENT['threads']}")
    if difference:
        pytest.skip(difference)
    checks = bm.full_certificate(CERTIFICATE_OBJECTS[name]()).checks()
    for record in checks:
        del record["wall_time_s"]
    text = json.dumps(checks, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES[name]
