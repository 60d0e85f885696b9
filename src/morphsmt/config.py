"""Flat ``section.key = value`` pipeline configuration.

Paths are resolved against the config file's own directory, so a config can
sit next to its corpus.  Every numeric setting is validated and every data
path must name a file at load time.  The corpus is the six segmented files;
the pipeline derives each sentence's word view from its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NoReturn, Optional, get_args

from .align import Heuristic
from .lm import Smoothing
from .merge import MergeMethod
from .morpho import read_lines

DATA_KEYS = tuple(
    f"{split}_{side}_morphs" for split in ("train", "dev", "test") for side in ("src", "tgt")
)

_SETTING_KEYS = {
    "granularity.max_words": ("max_words", int),
    "granularity.max_morphemes": ("max_morphemes", int),
    "lm.word_order": ("lm_word_order", int),
    "lm.morph_order": ("lm_morph_order", int),
    "lm.smoothing": ("lm_smoothing", str),
    "align.iterations": ("align_iterations", int),
    "align.heuristic": ("align_heuristic", str),
    "decoder.beam": ("beam", int),
    "decoder.distortion_limit": ("distortion_limit", int),
    "decoder.nbest": ("nbest", int),
    "mert.max_iters": ("mert_max_iters", int),
    "mert.epsilon": ("mert_epsilon", float),
    "merge.method": ("merge_method", str),
    "merge.alpha": ("merge_alpha", float),
    "merge.primary": ("merge_primary", str),
    "seed": ("seed", int),
}

# each bounded setting: a test of its value, and what a value must be to pass
BOUNDS = {
    **dict.fromkeys(("max_words", "max_morphemes", "lm_word_order", "lm_morph_order",
                     "align_iterations", "beam", "nbest", "mert_max_iters", "mert_epsilon",
                     "seed"), (lambda v: v > 0, "must be positive")),
    "distortion_limit": (lambda v: v >= 0, "must be >= 0"),
    "merge_alpha": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
}


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    paths: dict[str, Path] = field(default_factory=dict)
    max_words: int = 7
    max_morphemes: int = 10
    lm_word_order: int = 4
    lm_morph_order: int = 5
    lm_smoothing: str = "witten-bell"
    align_iterations: int = 5
    align_heuristic: str = "grow-diag-final-and"
    beam: int = 100
    distortion_limit: int = 6
    nbest: int = 100
    mert_max_iters: int = 10
    mert_epsilon: float = 0.0001
    merge_method: str = "our-method"
    merge_alpha: float = 0.6
    merge_primary: str = "wm"
    seed: int = 42

    def validate(self, origins: Mapping[str, str], source: str) -> None:
        """Check every setting.  ``origins`` maps a setting's attribute name,
        or ``data.<key>``, to where it was set; a message names that first.
        A data path set nowhere is reported against ``source``, the config
        file's name."""
        def fail(name: str, problem: str) -> NoReturn:
            where = origins.get(name)
            raise ConfigError(f"{where}: {problem}" if where else problem)

        for name, (ok, must) in BOUNDS.items():
            if not ok(getattr(self, name)):
                fail(name, f"{name} {must}")
        if self.merge_method not in get_args(MergeMethod):
            fail("merge_method", f"unknown merge method: {self.merge_method}")
        if self.merge_primary not in ("wm", "m"):
            fail("merge_primary", f"merge.primary must be wm or m: {self.merge_primary}")
        if self.lm_smoothing not in get_args(Smoothing):
            fail("lm_smoothing", f"unknown smoothing: {self.lm_smoothing}")
        if self.align_heuristic not in get_args(Heuristic):
            fail("align_heuristic", f"unknown heuristic: {self.align_heuristic}")
        missing = [k for k in DATA_KEYS if k not in self.paths]
        if missing:
            raise ConfigError(f"{source}: missing data paths: {', '.join(missing)}")
        for key, path in self.paths.items():
            if not path.is_file():
                fail(f"data.{key}", f"data.{key}: no such file: {path}")

    def settings_items(self) -> list[tuple[str, str]]:
        """Canonical (key, value) list, for manifests."""
        items = [(k, str(self.paths[a])) for k, a in
                 ((f"data.{key}", key) for key in DATA_KEYS)]
        for key, (attr, _) in _SETTING_KEYS.items():
            items.append((key, str(getattr(self, attr))))
        return items


def load_config(
    path, overrides: Optional[Mapping[str, str]] = None
) -> PipelineConfig:
    """The config file at ``path``, then ``overrides`` (which may reset its
    keys).  A malformed line, a repeated or unknown key, a bad or out-of-range
    value and a data path that names no file are reported as
    ``<file>:<line>:``, or as the ``--set KEY=VALUE`` override they came from."""
    path = Path(path)
    filename, base_dir = str(path), path.resolve().parent
    raw: dict[str, tuple[str, str]] = {}  # key: (value, where it was set)
    first_line: dict[str, int] = {}  # key: the file line that set it
    for lineno, line in read_lines(path):
        line, stripped = line.rstrip("\n"), line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{filename}:{lineno}: expected key = value: {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{filename}:{lineno}: duplicate key {key}, "
                              f"first on line {first_line[key]}")
        first_line[key] = lineno
        raw[key] = (value, f"{filename}:{lineno}")
    for key, value in (overrides or {}).items():
        raw[key] = (value, f"--set {key}={value}")

    cfg = PipelineConfig()
    origins = {}  # attribute name or data key: where it was set
    for key, (value, where) in raw.items():
        if key.startswith("data."):
            name = key[len("data."):]
            if name not in DATA_KEYS:
                raise ConfigError(f"{where}: unknown data key: {key}")
            cfg.paths[name] = (base_dir / value).resolve()
            origins[key] = where
        elif key in _SETTING_KEYS:
            attr, conv = _SETTING_KEYS[key]
            try:
                setattr(cfg, attr, conv(value))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc
            origins[attr] = where
        else:
            raise ConfigError(f"{where}: unknown config key: {key}")
    cfg.validate(origins, filename)
    return cfg
