"""Byte identity of the acceptance-grid reports.

The five ``lofo verify`` reports of the acceptance grid, and the wide and long
``lofo report`` CSVs of each, are pinned by sha256.  Each report's
headline float (``ratio_sup``, or ``c_low_observed`` for the lower bound) is
pinned at repr precision and its row count exactly, so a mismatch names the
number that moved before the digest does.

The grid is s in 4..256 (powers of 2), p in 0.05..0.5 (steps of 0.05), 40
windows and L = 2, for every report including ``--perturbed``.  The
benchmark's ``--perturbed`` op uses p in 0.15..0.5 instead, whose report has
another digest (prefix b68f28745f48).

These bytes depend on numpy's BLAS and libm, like the LCD goldens.  A change
that moves report bytes on purpose edits the constants here in the same
commit and records old -> new.
"""

import hashlib
import json

import pytest

from lofo.cli import main

GRID = ["--s-list", "4,8,16,32,64,128,256",
        "--p-list", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5",
        "--n-eps", "40"]

# name -> (verify argv, headline field, headline, rows, sha256 of the report JSON,
#          sha256 of the wide and long CSVs)
REPORTS = {
    "crossover": (
        ["--family", "sparse", "--bound", "crossover", "--L", "2"],
        "ratio_sup", 0.943888263237174, 2240,
        "d3545cab325bcfa3de741538f563bd62e5aa4dea7e816e08205ce3ab76bfe98f",
        ("92fe2b93531560756c1d5e9131402ae8efbf70062b9843ca2a23e7f77fcd6290",
         "5cb777a36c019f17484a99940744b84682cbfea7dfca13aa3c5030d4f30e636b"),
    ),
    "binomial_lower": (
        ["--bound", "binomial_lower"],
        "c_low_observed", 0.1981273529549226, 2800,
        "8676c04972f39cf333c50044fd039613ee0e222a5c07655a374017b579035c01",
        ("21afcf642a27b9de6e1f0293f3ca9a84d3f59fa100b0a9c1f50157d5929673b9",
         "31966a86ab2afa1e9974a127d9fbf5bd5c6cdde61aa05cc11a495307c638209b"),
    ),
    "esseen": (
        ["--family", "equal_weight", "--bound", "esseen"],
        "ratio_sup", 1.085634873274564, 2800,
        "8f8c73d14884590dd1fa9e2f90ac9844e6b353333aee332b807b2b7180e718d4",
        ("f71469a6f56c5b711569f195eddb537e74e520f3c4afde6107acf2551ff56261",
         "0287dc5e7bfbfcf93aef040fc7c88115f4af3b92e2ee1a03e65a98c6b01fe856"),
    ),
    "kolmogorov_rogozin": (
        ["--family", "equal_weight", "--bound", "kolmogorov_rogozin"],
        "ratio_sup", 0.5636388874963655, 1400,
        "cf3d07a0716f90c72b84d1030336668fcc6b89fdd685d8153d672ad4723f4132",
        ("95aa33826efc3a8df1f4e61883de02cb8c63305af550553b1f2c421ea4864daf",
         "f3329b7c6df6b77a4567b807ef4ed189607ae5b2a0a1ab848ed3d2eace247e85"),
    ),
    "crossover_perturbed": (
        ["--family", "sparse", "--bound", "crossover", "--perturbed", "--L", "2"],
        "ratio_sup", 1.018747476353277, 1920,
        "3c8b9bd02afbbec7f2dc93715216b45eeb1bf335e6cd1faea3480bd19e876a33",
        ("d57c15352a1670598fe1f3d4f9b5d7f7584ea0430d9d60dfd5dd2b7d003323c6",
         "959b867e1e8bc50c8b9ca0f2f96bc1d1b9cdbfff1406136a137bc7d90e9c753d"),
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Every report and CSV, written once for the module: name -> its paths."""
    d = tmp_path_factory.mktemp("reports")
    paths = {}
    for name, (argv, *_) in REPORTS.items():
        out = d / f"{name}.json"
        assert main(["verify", *argv, *GRID, "--out", str(out)]) == 0, name
        wide, long = d / f"{name}.csv", d / f"{name}_long.csv"
        assert main(["report", "--in", str(out), "--out-csv", str(wide),
                     "--out-long", str(long)]) == 0, name
        paths[name] = (out, wide, long)
    return paths


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_bytes_are_pinned(written, name):
    _, field, headline, n_rows, digest, csv_digests = REPORTS[name]
    out, wide, long = written[name]
    report = json.loads(out.read_text())
    assert repr(report[field]) == repr(headline)
    assert len(report["rows"]) == n_rows
    assert _sha256(out) == digest
    assert (_sha256(wide), _sha256(long)) == csv_digests
