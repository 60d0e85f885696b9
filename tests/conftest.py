import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from morphsmt.align import AlignmentMatrix


def random_morph_sentence(rng: random.Random, max_words=5, vocab=("ka", "lo", "mi", "ne", "tu")):
    """Random valid tagged sentence, as token strings: each word is PRE* STM SUF*."""
    tokens = []
    for _ in range(rng.randint(1, max_words)):
        n_pre = rng.randint(0, 1)
        n_suf = rng.randint(0, 2)
        tags = ["PRE"] * n_pre + ["STM"] + ["SUF"] * n_suf
        for k, tag in enumerate(tags):
            plus = "+" if k + 1 < len(tags) else ""
            tokens.append(f"{rng.choice(vocab)}/{tag}{plus}")
    return tuple(tokens)


def random_alignment(rng: random.Random, src_len: int, tgt_len: int, density=0.4):
    links = frozenset(
        (i, j)
        for i in range(src_len)
        for j in range(tgt_len)
        if rng.random() < density / max(src_len, tgt_len) * 2
    )
    return AlignmentMatrix(links, src_len, tgt_len)


# filled by the @criterion decorator in test_acceptance.py
acceptance_results: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, description in sorted(acceptance_results):
        terminalreporter.write_line(
            f"ACCEPTANCE {number:02d} {status} -- {description}"
        )


@pytest.fixture(scope="session")
def synth_dir():
    from morphsmt import synth

    return synth.bundled_dir()


@pytest.fixture(scope="session")
def synth_config(synth_dir):
    from morphsmt.config import load_config

    return load_config(synth_dir / "synth.cfg")
