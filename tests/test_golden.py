"""Golden SHA-256 digests of every pipeline artifact.

Speedups must leave every artifact byte-identical, so this pins the digest of
each artifact of all eight systems on one small synthetic corpus (seed 5,
sizes (60, 8, 6): large enough that MERT drives LM weights below zero).
``manifest.txt`` is left out because it holds the data paths and versions.

Every float sum that reaches an artifact is a correctly rounded
``math.fsum``, so the digests do not depend on how ``builtins.sum`` rounds:
``test_digests_do_not_depend_on_how_sum_rounds`` checks them with the
compensated ``sum`` of Python 3.12.  They were recorded with Python 3.11.7;
only a platform whose ``libm`` (``log``, ``exp``) or ``float`` printing
differs may need them re-recorded, in a change that says why.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphsmt import cli, decoder, synth
from morphsmt.config import load_config

GOLDEN = {
    "m+lm": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "c0b32a7552b6b0f8a1df7bceb2fc4de668f8f6e9288658528d66f6a53c7665dd",
        "output": "35a243607f91e7a151fc52ba588282407cb17874963f01bcc6373df03c54241c",
        "pt": "cd3e8d036df5533e68e5b5204a985717f85c89c7241c90b1f21e9d801912b3ca",
        "report": "a98f06bbcb2adf5da73ff0ed5323338574582c43607ad0f207891c4ba30ba6a9",
        "trace": "b8d7f808468ae64e425e961388be58db1a820d5a2c9a94a379e437813b3eb327",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "m+phr": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "nbest": "58a330c37b9fe462b95b11aeb91143c15ab53381e648666ffb96271b6d06f579",
        "output": "ebcd30b6b8fa0491ada09be5cc7031a710a934879dc76ffe2d4bb54104226dc0",
        "pt": "2f45cd0dcc038deb452e22daeef90644be9ec57e29e51dfa2f363e175dfa7d6c",
        "report": "8003a3e5659419939446be347e70d332daee594be6db7579506ccd4364e4834b",
        "trace": "69d98a33396f46cdc67dc7ff1c4778f1399c4c4da28161d2f77ec5a6444c9f85",
        "weights": "3995dc2d8b84288b0d5270abf3be0bc6eaf5459f989f3802f9afb225c9adfae2",
    },
    "m+phr+lm": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "8cf99df0bc3665217c2a509fc2f900ca02bc20ff5528531e998273bfd2428f0f",
        "output": "732b1d70bd99f29fcd8f23b680533f2ad6d3f6c3da0002d8f1a3dbe8c129324d",
        "pt": "2f45cd0dcc038deb452e22daeef90644be9ec57e29e51dfa2f363e175dfa7d6c",
        "report": "e1258587e9f575e11e52fa3cbdc6341a520ec909e503b6e0381f830b05a02696",
        "trace": "92e3795726b02940f8cf54898294a6c5fb0e109884b7c8255862c104c757f17c",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "m+phr+lm+tune": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "mert_log": "9900670ce27f2ff5f29a664656bb719d2cb1a900e9fc69171d95744085fe70fc",
        "nbest": "3da8371b233f38708d18a28644c2d1db5b8d1d96037aabfd367ee90767c3c4f2",
        "output": "33a7000aff70ee8992b7bd4ea995f59f70b10a19a98ccb3c843465bb21bb7fcf",
        "pt": "2f45cd0dcc038deb452e22daeef90644be9ec57e29e51dfa2f363e175dfa7d6c",
        "report": "e65ac64b94ef6a0f2cff679baf50991062de41e9a7c89605f0b3ef6050b587a2",
        "trace": "4821a2e9c4de640558c8537b65f82b035cb0fdfccc684b7b183b3518577c8720",
        "weights": "b62a7374a4a42eb58e5047020fd2f0b42e9f6f999f20e84f524a6221e8361809",
    },
    "m+tune": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "mert_log": "99e0ec8876c14155605b7e31a65363cf3bdbc303506ef9eea188bba5af378ab6",
        "nbest": "38eb38910719fa5cccc1413ce590bff09913abf8a39860b8370c2f912760b33d",
        "output": "913017c0e42b24f331aaa4338f9b524e8dd1303f6b42d08830bc3b316171f4d4",
        "pt": "cd3e8d036df5533e68e5b5204a985717f85c89c7241c90b1f21e9d801912b3ca",
        "report": "01b1aa201cd4d4acee75d0077f6a6c1f76bba5e438a0674153d3c6a2c96fe503",
        "trace": "ce4e6be26b1e36cb7280f10db3be99f5f9edea374471ed517540b3ff7cb7c086",
        "weights": "4045bf99235fbf91f054a09f184115530a59d741a76cd4311b3518508aa0900f",
    },
    "m-system": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "nbest": "1938323554498f69a60e99d8b2d3655368de8d27a698565e9d793ec480029044",
        "output": "6e45602195eb25f207e6e40b8fc069565885a384453701b4ff819c04b15970e5",
        "pt": "cd3e8d036df5533e68e5b5204a985717f85c89c7241c90b1f21e9d801912b3ca",
        "report": "e2e426ebfbb91c80c963d57e2d9ecb877ee6037aad5766eb860757e5e11fe552",
        "trace": "eb0ed5287ddef9438338e69cbe7a307da140206207b76a7cc1ea8d56dc8f6d68",
        "weights": "3995dc2d8b84288b0d5270abf3be0bc6eaf5459f989f3802f9afb225c9adfae2",
    },
    "merged": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "e674812d22d69d47df018be5c82278c7cc0fef70fbe6002b5db22a1199c330f6",
        "output": "83adb713adad21bb465a2a606abec40abea535493fe3b0e2542035aeeed6084c",
        "pt": "d9a77af47c58ac6abf809fe733dff30b610f787ecb5aa885fb83a373cd79ac5f",
        "report": "23567d048f3b0c149bc70de0abb4a213a984ecef47e522b284bb3d047c4ad09e",
        "trace": "15634d6bb2197f459439aabec009f8f5fc7c652f97f46a94a768cd094ebaa1b3",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "w-system": {
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "eb6acc6c1dc9ebd54d47abf1182eb3deae4aa72cec6a03e2b73f4db9cc8d07b3",
        "output": "b3704082f60cb6f901dd548475fcf2510fb100bc50eba8456498f18f25aaeec3",
        "pt": "9150d97c7457650e95afaff903bc5cf3008bd95f2d45f176137d2128de79dfbf",
        "report": "e035ee39cc60fe1c79aecb93d443cd9fdcd0ae3b34f8f619bd41ef170d3125ac",
        "trace": "d54e6e13b96a1ede097ee38d80185187b0b7ad7f82d66b7fa9f5eedd1d0cb09a",
        "weights": "974129f43ac2509db17d203f1f865109500a63e63bfd09351f9711ec328d96c4",
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, load_config(synth.write_workspace(root / "ws", seed=5, sizes=(60, 8, 6)))


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_artifacts_match_golden_digests(workspace, system):
    root, cfg = workspace
    artifacts = cli.run_pipeline(system, cfg, root / system)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in artifacts.items() if name != "manifest"}
    assert got == GOLDEN[system]


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_output_is_the_first_nbest_entry(workspace, system):
    root, cfg = workspace
    artifacts = cli.run_pipeline(system, cfg, root / "first" / system)
    outputs = [tuple(line.split()) for line in artifacts["output"].read_text("utf-8").splitlines()]
    assert [entries[0].tokens for entries in decoder.read_nbest(artifacts["nbest"])] == outputs


def test_golden_covers_every_system():
    assert sorted(GOLDEN) == sorted(cli.SYSTEMS)


def neumaier_sum(iterable, /, start=0):
    """``builtins.sum`` as Python 3.12 computes it: exact while the total is
    an int, then floats added with Neumaier's compensation (ints in C long
    range added plainly), until the first other item."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            total = total + x
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for x in items:
            if type(x) is float:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif isinstance(x, int) and -2 ** 63 <= x < 2 ** 63:
                total += float(x)
            else:
                if c and math.isfinite(c):
                    total += c
                total = total + x
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for x in items:
        total = total + x
    return total


# runs the tuned systems with ``neumaier_sum`` as ``builtins.sum``
SUM_312_RUN = """
import builtins, hashlib, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import neumaier_sum
builtins.sum = neumaier_sum
from morphsmt import cli
from morphsmt.config import load_config
cfg = load_config(sys.argv[2])
digests = {}
for system in sys.argv[4:]:
    artifacts = cli.run_pipeline(system, cfg, Path(sys.argv[3]) / system)
    digests[system] = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for name, path in artifacts.items() if name != "manifest"}
print(json.dumps(digests))
"""


def test_neumaier_sum_compensates_like_python_312():
    assert neumaier_sum([0.1] * 10) == 1.0  # 0.9999999999999999 when added plainly
    assert neumaier_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert neumaier_sum([1, 2, 3]) == 6 and neumaier_sum([], 0.5) == 0.5
    assert neumaier_sum([[1], [2]], []) == [1, 2]


def test_digests_do_not_depend_on_how_sum_rounds(workspace, tmp_path):
    root, _ = workspace
    systems = ["m+tune", "m+phr+lm+tune"]
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src_dir), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SUM_312_RUN, str(Path(__file__).parent),
         str(root / "ws" / "synth.cfg"), str(tmp_path), *systems],
        env=env, check=True, capture_output=True, text=True)
    assert json.loads(done.stdout) == {system: GOLDEN[system] for system in systems}
