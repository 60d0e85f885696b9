"""Golden SHA-256 digests of the merged system's table and weights for the
merge methods that ``test_golden.py`` does not pin (it runs ``our-method``).

Same corpus as ``test_golden.py`` (seed 5, sizes (60, 8, 6)).  The add-1 and
add-2 tables differ with ``merge.primary``, and their weights carry one
``merge_feat_i`` per extra score of the table, so these pin the dispatch from
a method to its merge and the table's own count of extra scores.
"""

import hashlib

import pytest

from morphsmt import cli, synth
from morphsmt.config import load_config

GOLDEN_MERGES = {
    ("add-1", "wm"): {
        "pt": "9b49411949550e6da34d485dd9e8e37fdeed89b3dc952f80736b2f5c671634ed",
        "weights": "397b8fb9bde78364301c29bd7d3d924203e2954b1054ef65391028980f12bc2a",
    },
    ("add-1", "m"): {
        "pt": "e62faefe039c6f01be520e1b30f96e2591200702737c0cdc7ca87f45c853d9fb",
        "weights": "397b8fb9bde78364301c29bd7d3d924203e2954b1054ef65391028980f12bc2a",
    },
    ("add-2", "wm"): {
        "pt": "252d8661ad0cfb333ff1fb2d5edc2369c06873cbc1c6d407a2957dcdc70e24fe",
        "weights": "4f2d44a1927a24db8e994c1f5e3b238ea8b4aad70edad6f7f2caa91edcb89bd1",
    },
    ("add-2", "m"): {
        "pt": "ed9a3b1b4708c6e876a3706067cd6ee7dd83762aabe070f14515ddedc226f7b0",
        "weights": "4f2d44a1927a24db8e994c1f5e3b238ea8b4aad70edad6f7f2caa91edcb89bd1",
    },
    # merge.primary picks the primary of add-1 and add-2 only
    ("interpolation", "wm"): {
        "pt": "8492e9298bef5491efbfb818242dcc845d8e03f8543718e8622147a50a2005a5",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
}


@pytest.fixture(scope="module")
def golden_config(tmp_path_factory):
    return synth.write_workspace(tmp_path_factory.mktemp("golden") / "ws",
                                 seed=5, sizes=(60, 8, 6))


@pytest.mark.parametrize("method, primary", sorted(GOLDEN_MERGES))
def test_merged_table_and_weights_match_golden_digests(golden_config, tmp_path,
                                                       method, primary):
    cfg = load_config(golden_config, {"merge.method": method, "merge.primary": primary})
    artifacts = cli.run_pipeline("merged", cfg, tmp_path / "run")
    got = {name: hashlib.sha256(artifacts[name].read_bytes()).hexdigest()
           for name in ("pt", "weights")}
    assert got == GOLDEN_MERGES[method, primary]
