"""Flat ``section.key = value`` pipeline configuration.

Each setting is declared once, on its ``PipelineConfig`` field through
``_setting``: its config key, its default (whose type converts a value read
from the file) and its check.  ``SETTINGS`` and ``CHECKS`` are derived from
the fields; the subcommands' flag bounds read ``CHECKS`` too.  Paths are
resolved against the config file's own directory, so a config can sit next to
its corpus, and every data path must name a file at load time.  The corpus is
the six segmented files; the pipeline derives each sentence's word view from
its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, Optional, get_args

from .align import Heuristic
from .lm import Smoothing
from .merge import MergeMethod
from .morpho import read_lines

DATA_KEYS = tuple(
    f"{split}_{side}_morphs" for split in ("train", "dev", "test") for side in ("src", "tgt")
)

# a setting's check: a test of its value, and a message with {name} and {value} slots
Check = tuple[Callable[[Any], bool], str]
POSITIVE: Check = (lambda v: v > 0, "{name} must be positive")
NON_NEGATIVE: Check = (lambda v: v >= 0, "{name} must be >= 0")
UNIT: Check = (lambda v: 0.0 <= v <= 1.0, "{name} must be in [0, 1]")


def _one_of(choices, message: str) -> Check:
    return choices.__contains__, message


def _setting(key: str, default, check: Check) -> Any:
    """A field that config ``key`` sets; ``default``'s type converts the value read."""
    return field(default=default, metadata={"key": key, "check": check})


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    paths: dict[str, Path] = field(default_factory=dict)
    max_words: int = _setting("granularity.max_words", 7, POSITIVE)
    max_morphemes: int = _setting("granularity.max_morphemes", 10, POSITIVE)
    lm_word_order: int = _setting("lm.word_order", 4, POSITIVE)
    lm_morph_order: int = _setting("lm.morph_order", 5, POSITIVE)
    lm_smoothing: str = _setting("lm.smoothing", "witten-bell",
                                 _one_of(get_args(Smoothing), "unknown smoothing: {value}"))
    align_iterations: int = _setting("align.iterations", 5, POSITIVE)
    align_heuristic: str = _setting("align.heuristic", "grow-diag-final-and",
                                    _one_of(get_args(Heuristic), "unknown heuristic: {value}"))
    beam: int = _setting("decoder.beam", 100, POSITIVE)
    distortion_limit: int = _setting("decoder.distortion_limit", 6, NON_NEGATIVE)
    nbest: int = _setting("decoder.nbest", 100, POSITIVE)
    mert_max_iters: int = _setting("mert.max_iters", 10, POSITIVE)
    mert_epsilon: float = _setting("mert.epsilon", 0.0001, POSITIVE)
    merge_method: str = _setting("merge.method", "our-method",
                                 _one_of(get_args(MergeMethod), "unknown merge method: {value}"))
    merge_alpha: float = _setting("merge.alpha", 0.6, UNIT)
    merge_primary: str = _setting("merge.primary", "wm",
                                  _one_of(("wm", "m"), "merge.primary must be wm or m: {value}"))
    seed: int = _setting("seed", 42, POSITIVE)

    def validate(self, origins: Mapping[str, str], source: str) -> None:
        """Check every setting, in field order.  ``origins`` maps a setting's
        attribute name, or ``data.<key>``, to where it was set; a message names
        that first.  A data path set nowhere is reported against ``source``,
        the config file's name."""
        def fail(name: str, problem: str) -> NoReturn:
            where = origins.get(name)
            raise ConfigError(f"{where}: {problem}" if where else problem)

        for name, (ok, message) in CHECKS.items():
            value = getattr(self, name)
            if not ok(value):
                fail(name, message.format(name=name, value=value))
        missing = [k for k in DATA_KEYS if k not in self.paths]
        if missing:
            raise ConfigError(f"{source}: missing data paths: {', '.join(missing)}")
        for key, path in self.paths.items():
            if not path.is_file():
                fail(f"data.{key}", f"data.{key}: no such file: {path}")

    def settings_items(self) -> list[tuple[str, str]]:
        """Canonical (key, value) list, for manifests: the data paths, then
        the settings in field order."""
        return [*((f"data.{key}", str(self.paths[key])) for key in DATA_KEYS),
                *((key, str(getattr(self, f.name))) for key, f in SETTINGS.items())]


SETTINGS = {f.metadata["key"]: f for f in fields(PipelineConfig) if f.metadata}  # key: field
CHECKS = {f.name: f.metadata["check"] for f in SETTINGS.values()}  # attribute name: check


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
        elif key in SETTINGS:
            name, default = SETTINGS[key].name, SETTINGS[key].default
            try:
                setattr(cfg, name, type(default)(value))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc
            origins[name] = where
        else:
            raise ConfigError(f"{where}: unknown config key: {key}")
    cfg.validate(origins, filename)
    return cfg
