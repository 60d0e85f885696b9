"""Deterministic synthetic bitext for desk-scale runs and tests.

A toy language pair: source words are stem(+suffix), target words mirror them
through fixed stem/suffix maps and pick up an extra case suffix after the
function word "zu", so the target side is the morphologically richer one.
Occasional local reordering keeps the distortion features alive.  Everything
flows from one seeded RNG; the same seed always yields byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

from .morpho import read_lines, write_lines

STEM_MAP = {
    "bal": "laba", "dor": "roda", "fem": "mefa", "gat": "taga",
    "hil": "liha", "jun": "nuja", "kap": "paka", "lem": "mela",
    "mon": "noma", "nir": "rina", "pol": "lopa", "qof": "foqa",
    "ras": "sara", "sil": "lisa", "tam": "mata", "vur": "ruva",
}
FUNC_MAP = {"zu": "su", "ri": "ja", "bo": "ke"}
SUF_MAP = {"s": "t", "ed": "nut"}
CASE_SUF = "ssa"  # target case marker triggered by a preceding "zu"

DEFAULT_SEED = 7
DEFAULT_SIZES = (500, 50, 50)  # train, dev, test

_STEMS = sorted(STEM_MAP)
_FUNCS = sorted(FUNC_MAP)


def _content_word(rng: random.Random, case: bool):
    stem = rng.choice(_STEMS)
    suf = rng.choice(("", "", "s", "ed"))
    src_morphs = [f"{stem}/STM+", f"{suf}/SUF"] if suf else [f"{stem}/STM"]
    tgt_sufs = ([SUF_MAP[suf]] if suf else []) + ([CASE_SUF] if case else [])
    tgt_morphs = [f"{STEM_MAP[stem]}/STM{'+' if tgt_sufs else ''}"]
    for i, ts in enumerate(tgt_sufs):
        cont = "+" if i + 1 < len(tgt_sufs) else ""
        tgt_morphs.append(f"{ts}/SUF{cont}")
    return stem + suf, src_morphs, STEM_MAP[stem] + "".join(tgt_sufs), tgt_morphs


def make_pair(rng: random.Random):
    """One sentence pair: (src words, src morphs, tgt words, tgt morphs)."""
    n = rng.randint(3, 8)
    src_words, tgt_units = [], []  # tgt_units: (word, morphs) so swaps stay aligned
    src_morphs: list[str] = []
    case_next = False
    for _ in range(n):
        if rng.random() < 0.25:
            f = rng.choice(_FUNCS)
            src_words.append(f)
            src_morphs.append(f"{f}/STM")
            tgt_units.append((FUNC_MAP[f], [f"{FUNC_MAP[f]}/STM"]))
            case_next = f == "zu"
        else:
            w, sm, tw, tm = _content_word(rng, case_next)
            src_words.append(w)
            src_morphs.extend(sm)
            tgt_units.append((tw, tm))
            case_next = False
    if len(tgt_units) >= 2 and rng.random() < 0.15:
        k = rng.randrange(len(tgt_units) - 1)
        tgt_units[k], tgt_units[k + 1] = tgt_units[k + 1], tgt_units[k]
    tgt_words = [w for w, _ in tgt_units]
    tgt_morphs = [m for _, ms in tgt_units for m in ms]
    return src_words, src_morphs, tgt_words, tgt_morphs


def bundled_dir() -> Path:
    """Location of the corpus shipped inside the package."""
    return Path(__file__).resolve().parent / "data" / "synth"


# the bundled corpus's config lines, read once: its data paths are relative,
# so it serves every workspace unchanged
SYNTH_CONFIG = [line.rstrip("\n") for _, line in read_lines(bundled_dir() / "synth.cfg")]


def generate(seed: int = DEFAULT_SEED, sizes: tuple[int, int, int] = DEFAULT_SIZES):
    """{'train'|'dev'|'test': list of (src words, src morphs, tgt words, tgt morphs)}."""
    rng = random.Random(seed)
    splits = {}
    for name, size in zip(("train", "dev", "test"), sizes):
        splits[name] = [make_pair(rng) for _ in range(size)]
    return splits


def write_corpus(
    outdir, seed: int = DEFAULT_SEED, sizes: tuple[int, int, int] = DEFAULT_SIZES
) -> None:
    """Write the 12 corpus files: the pipeline reads the six ``.morphs`` files,
    and the ``.words`` files serve the subcommands and the benchmark."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for split, pairs in generate(seed, sizes).items():
        for column, name in enumerate(("src.words", "src.morphs", "tgt.words", "tgt.morphs")):
            write_lines(outdir / f"{split}.{name}", [" ".join(pair[column]) for pair in pairs])


def write_workspace(outdir, seed: int = DEFAULT_SEED,
                    sizes: tuple[int, int, int] = DEFAULT_SIZES) -> Path:
    """Corpus files plus a ready-to-run config; returns the config path."""
    cfg = Path(outdir) / "synth.cfg"
    write_corpus(outdir, seed, sizes)
    write_lines(cfg, SYNTH_CONFIG)
    return cfg
