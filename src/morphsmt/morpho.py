"""Tagged morpheme tokens: parsing, word boundaries, round-tripping; and
the package's one text-file reader and writer (``read_lines``, ``write_lines``).

A segmented sentence is a stream of ``surface/TAG`` tokens where TAG is one
of PRE, STM, SUF and a trailing ``+`` marks word-internal morphemes.  Word
boundaries fall after every token without ``+`` (``ends_word``); every other
module gets its notion of "word" from here, and wraps a plain word as a token
only through ``words_as_tokens``.  A sentence is the tuple of its token strings,
from the parser to the writers: ``care/STM+`` and ``care/STM`` are different
tokens everywhere downstream.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")


# greedy surface group claims any "/" inside the surface itself
_TOKEN_RE = re.compile(r"^(?P<surface>\S+)/(?P<tag>PRE|STM|SUF)(?P<plus>\+?)$")


def parse_segmented_line(line: str) -> tuple[str, ...]:
    """The validated token strings of one whitespace-separated segmented line.

    Raises ValueError, naming the token, on a malformed token, and when the
    final token carries "+" (a dangling continuation is an upstream segmenter
    bug, not something to repair silently).
    """
    tokens = tuple(line.split())
    for i, tok in enumerate(tokens):
        if _TOKEN_RE.match(tok) is None:
            raise ValueError(f"token {i}: not of form surface/TAG[+]: {tok!r}")
    if tokens and tokens[-1].endswith("+"):
        raise ValueError(f"token {len(tokens) - 1}: dangling continuation at end of "
                         f"sentence: {tokens[-1]!r}")
    return tokens


DEFAULT_STUB_SUFFIXES = ("ing", "ed", "s")


def stub_segment(
    word: str, suffixes: Sequence[str] = DEFAULT_STUB_SUFFIXES
) -> list[str]:
    """Deterministic test segmenter: strip at most one known suffix.

    Longest suffix wins; a word never loses its stem, so a pure-suffix word
    comes back as a bare STM.  No linguistic fidelity intended.
    """
    if not word or any(c.isspace() for c in word):
        raise ValueError(f"bad word: {word!r}")
    for suf in sorted(suffixes, key=lambda s: (-len(s), s)):
        if suf and word.endswith(suf) and len(word) > len(suf):
            return [f"{word[: -len(suf)]}/STM+", f"{suf}/SUF"]
    return [f"{word}/STM"]


def segment_words(
    words: Iterable[str], suffixes: Sequence[str] = DEFAULT_STUB_SUFFIXES
) -> tuple[str, ...]:
    return tuple(tok for w in words for tok in stub_segment(w, suffixes))


# ---------------------------------------------------------------------------
# String-level helpers: the one word API.  Downstream modules (alignment,
# tables, LMs, decoder) treat tokens as opaque strings; these recover word
# structure leniently so that plain word tokens and OOV pass-through text
# survive unharmed.
# ---------------------------------------------------------------------------


@functools.cache
def split_token_string(token: str) -> tuple[str, bool]:
    """(surface, is word-final) for a serialized token; plain words pass through.

    Memoized for the life of the process: the answer depends on the string
    alone, and the distinct tokens seen are bounded by the vocabularies.
    """
    m = _TOKEN_RE.match(token)
    if m is None:
        return token, True
    return m.group("surface"), m.group("plus") != "+"


def ends_word(token: str) -> bool:
    """Whether a token ends its word; only one ending in ``+`` can be word-internal."""
    return not token.endswith("+") or split_token_string(token)[1]


def words_as_tokens(words: Iterable[str]) -> tuple[str, ...]:
    """Plain words wrapped as monomorphemic tokens, so that a word shaped
    like a token (``x/STM+``) is still read as one whole word."""
    return tuple(f"{w}/STM" for w in words)


def words_from_tokens(tokens: Iterable[str]) -> list[str]:
    """Word view of a token-string sequence; a trailing open word is flushed."""
    words = []
    parts: list[str] = []
    for tok in tokens:
        surface, final = split_token_string(tok)
        parts.append(surface)
        if final:
            words.append("".join(parts))
            parts = []
    if parts:
        words.append("".join(parts))
    return words


def word_spans(tokens: Sequence[str]) -> list[tuple[int, int]]:
    """Inclusive (start, end) token-index spans of the words in a string sequence.

    A trailing open word (last token still word-internal) counts as a word.
    """
    spans = []
    start = 0
    for i, tok in enumerate(tokens):
        if ends_word(tok):
            spans.append((start, i))
            start = i + 1
    if start < len(tokens):
        spans.append((start, len(tokens) - 1))
    return spans


def word_index(tokens: Sequence[str]) -> list[int]:
    """The index of the word each token belongs to, by token position."""
    return [w for w, (start, end) in enumerate(word_spans(tokens)) for _ in range(start, end + 1)]


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based number, line with its newline) of each line of a UTF-8 file, a leading BOM
    dropped: the package's one text-mode read.  A non-UTF-8 byte is a ValueError at
    ``<path>:<line>:``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:  # text mode decodes in blocks: find the line
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                line = len((data[:first.start] + b".").splitlines())  # line breaks before it, +1
                raise ValueError(f"{path}:{line}: not UTF-8: {first.reason}") from exc
            raise ValueError(f"{path}: not UTF-8: {exc.reason}") from exc  # the file changed


def write_lines(path, lines: Iterable[str]) -> None:
    """Each string as one line of a UTF-8 file: the package's one text-mode write."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:  # faster than writelines over a generator
            fh.write(line + "\n")


def _parsed_lines(path, parse_line: Callable[[str], T]) -> Iterator[T]:
    """``parse_line`` of each line of a file, in order; a ValueError it raises
    is raised again at ``<path>:<line>:``, so malformed input says where it is."""
    for lineno, line in read_lines(path):
        try:
            parsed = parse_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        yield parsed


def parse_file(path, parse_line: Callable[[str], T]) -> list[T]:
    """Every line of a text file through ``parse_line``, as a list."""
    return list(_parsed_lines(path, parse_line))


def parse_keyed_file(path, parse_line: Callable[[str], Optional[tuple]],
                     describe: Callable[..., str]) -> dict:
    """The (key, value) pairs ``parse_line`` gives for a file's lines, as a
    dict in file order; a line it gives None for (a blank one) is skipped.
    A line that repeats an earlier line's key is rejected, naming both
    lines, so no value silently replaces another.  No list of lines is held."""
    out = {}
    first_line = {}  # key -> line number
    for lineno, pair in enumerate(_parsed_lines(path, parse_line), 1):
        if pair is not None:
            key, out[key] = pair
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate {describe(key)}, "
                                 f"first on line {first_line[key]}")
            first_line[key] = lineno
    return out


def read_segmented_file(path) -> list[tuple[str, ...]]:
    """One sentence per line; a blank line is an empty sentence."""
    return parse_file(path, parse_segmented_line)


def read_word_file(path) -> list[list[str]]:
    """One word list per line; a blank line is an empty list."""
    return parse_file(path, str.split)


def write_word_lines(path, lines: Iterable[Sequence[str]]) -> None:
    """One line per sentence, its words or token strings joined by spaces."""
    write_lines(path, map(" ".join, lines))
