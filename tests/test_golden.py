"""Golden SHA-256 digests of every pipeline artifact.

Speedups must leave every artifact byte-identical, so this pins the digest of
each artifact of all eight systems on one small synthetic corpus (seed 5,
sizes (60, 8, 6): large enough that MERT drives LM weights below zero).
``manifest.txt`` is left out because it holds the data paths.  The digests
were recorded with Python 3.11.7; a Python whose ``float`` printing or ``sum``
differs may need them re-recorded, in a change that says why.
"""

import hashlib

import pytest

from morphsmt import cli, synth
from morphsmt.config import load_config

GOLDEN = {
    "m+lm": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "0506ce67c20682fede7171150d0a2f9afe08dd7624d6332fce47f9e68edcd41b",
        "output": "35a243607f91e7a151fc52ba588282407cb17874963f01bcc6373df03c54241c",
        "pt": "b496687bba28b0bf5337f9b0737936077ea12438a72bbfef6f92a3387f356f73",
        "report": "a98f06bbcb2adf5da73ff0ed5323338574582c43607ad0f207891c4ba30ba6a9",
        "trace": "b8d7f808468ae64e425e961388be58db1a820d5a2c9a94a379e437813b3eb327",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "m+phr": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "nbest": "322f2d3608522ec74d92e8fdbc8e8cf8e2a47e119df9280c11ba63b4ffda57f3",
        "output": "ebcd30b6b8fa0491ada09be5cc7031a710a934879dc76ffe2d4bb54104226dc0",
        "pt": "5873ff1db15b5a3a8ce5f04990784332825d3ea1c10b99e83da9302b7f542507",
        "report": "8003a3e5659419939446be347e70d332daee594be6db7579506ccd4364e4834b",
        "trace": "69d98a33396f46cdc67dc7ff1c4778f1399c4c4da28161d2f77ec5a6444c9f85",
        "weights": "3995dc2d8b84288b0d5270abf3be0bc6eaf5459f989f3802f9afb225c9adfae2",
    },
    "m+phr+lm": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "a65125c2b6a69021e2e8439c70f7231b5ec11d70d2e2c214c1dc84e85b4a901e",
        "output": "732b1d70bd99f29fcd8f23b680533f2ad6d3f6c3da0002d8f1a3dbe8c129324d",
        "pt": "5873ff1db15b5a3a8ce5f04990784332825d3ea1c10b99e83da9302b7f542507",
        "report": "e1258587e9f575e11e52fa3cbdc6341a520ec909e503b6e0381f830b05a02696",
        "trace": "92e3795726b02940f8cf54898294a6c5fb0e109884b7c8255862c104c757f17c",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "m+phr+lm+tune": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "mert_log": "9900670ce27f2ff5f29a664656bb719d2cb1a900e9fc69171d95744085fe70fc",
        "nbest": "45e09a25c011bc77955190718ad849216c4bf8604c72191f7a5b8df96709b129",
        "output": "8dcbd7449518b6db3aaf2f51d5dbb26923a6b0df16adf452b0843171de1347fb",
        "pt": "5873ff1db15b5a3a8ce5f04990784332825d3ea1c10b99e83da9302b7f542507",
        "report": "0c3a11953093b7761a85fa267e20639972eb144d71c3069258a0885477de0e81",
        "trace": "88907b76d11883f66b65c09e67bfb6cdf09016bd02516ad6737a0ee3d9d3fdb8",
        "weights": "3a0253bc909fc732c919f787d84326746cddf68258d511502e32fe4a67498d6e",
    },
    "m+tune": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "mert_log": "99e0ec8876c14155605b7e31a65363cf3bdbc303506ef9eea188bba5af378ab6",
        "nbest": "ed16fe8edf4afbe01ad362233e3d96b2a426cb74c3ebff2bd9a5fa6a598ef8f8",
        "output": "913017c0e42b24f331aaa4338f9b524e8dd1303f6b42d08830bc3b316171f4d4",
        "pt": "b496687bba28b0bf5337f9b0737936077ea12438a72bbfef6f92a3387f356f73",
        "report": "01b1aa201cd4d4acee75d0077f6a6c1f76bba5e438a0674153d3c6a2c96fe503",
        "trace": "ce4e6be26b1e36cb7280f10db3be99f5f9edea374471ed517540b3ff7cb7c086",
        "weights": "f9b0d10a26653311929fd402159bed612984965aa2c798d72b51a77461e33929",
    },
    "m-system": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "nbest": "392435c77ba94a4fc3365cb8858f0f0de11cc98066d315a9a19be030658411c1",
        "output": "6e45602195eb25f207e6e40b8fc069565885a384453701b4ff819c04b15970e5",
        "pt": "b496687bba28b0bf5337f9b0737936077ea12438a72bbfef6f92a3387f356f73",
        "report": "e2e426ebfbb91c80c963d57e2d9ecb877ee6037aad5766eb860757e5e11fe552",
        "trace": "eb0ed5287ddef9438338e69cbe7a307da140206207b76a7cc1ea8d56dc8f6d68",
        "weights": "3995dc2d8b84288b0d5270abf3be0bc6eaf5459f989f3802f9afb225c9adfae2",
    },
    "merged": {
        "lm_m": "00b455d4560c2b3eb7601df6e1d6735d9526066302513ef38bb4382c6601a6b8",
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "1539849473ebc9e088448c85fc54b4c655ae73a43e3d18dec8e37b2f7cc16c35",
        "output": "83adb713adad21bb465a2a606abec40abea535493fe3b0e2542035aeeed6084c",
        "pt": "825b7aa65c71ac03d1da4c406d02184e1652b236fd105bd071ea01057753d3a7",
        "report": "23567d048f3b0c149bc70de0abb4a213a984ecef47e522b284bb3d047c4ad09e",
        "trace": "15634d6bb2197f459439aabec009f8f5fc7c652f97f46a94a768cd094ebaa1b3",
        "weights": "c70d7bb922619e3918d9c1f073be545b507730f99188c3b606e4e08a05f9c745",
    },
    "w-system": {
        "lm_w": "127a483176e06eb7d71d0d5a1fb7968b2cd93a0665e3a65621aca7cec2754fd4",
        "nbest": "6dacc6ae5d34dac141a32d735338adf8ee711e519173d291c221c4edb19e44a5",
        "output": "b3704082f60cb6f901dd548475fcf2510fb100bc50eba8456498f18f25aaeec3",
        "pt": "5c7ce7ad74481e8fc2d324b1414cff14d1a13e490734a6277d8d3468358814c0",
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


def test_golden_covers_every_system():
    assert sorted(GOLDEN) == sorted(cli.SYSTEMS)
