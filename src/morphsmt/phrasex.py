"""Phrase-pair extraction and scoring into five-feature phrase tables.

Classic extraction enumerates alignment-consistent boxes over tokens with a
token-length limit.  Boundary-aware extraction enumerates whole-word source
spans over a morpheme alignment, snaps the projected target span outward to
word boundaries, and limits both sides in WORDS, so a phrase may run to any
number of morpheme tokens as long as it covers few enough words, and a
phrase that stops mid-word (a nonword fragment) is never proposed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .align import AlignmentMatrix, Granularity, LexicalTable
from .morpho import MorphSentence, parse_file, token_strings, word_spans

PHRASE_PENALTY = math.e  # constant fifth score, ln = 1 per applied phrase


@dataclass(frozen=True)
class PhrasePair:
    source: tuple[str, ...]
    target: tuple[str, ...]
    alignment: frozenset[tuple[int, int]]  # phrase-relative (i, j) links

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("phrase sides must be non-empty")
        for i, j in self.alignment:
            if not (0 <= i < len(self.source) and 0 <= j < len(self.target)):
                raise ValueError("internal alignment out of phrase bounds")


@dataclass(frozen=True)
class PhraseEntry:
    source: tuple[str, ...]
    target: tuple[str, ...]
    phi_fwd: float
    phi_bwd: float
    lex_fwd: float
    lex_bwd: float
    penalty: float
    count_joint: Optional[float]  # None when read from a table without counts
    alignment: frozenset[tuple[int, int]]
    extras: tuple[float, ...] = ()

    def scores(self) -> tuple[float, ...]:
        return (self.phi_fwd, self.phi_bwd, self.lex_fwd, self.lex_bwd,
                self.penalty) + self.extras


@dataclass
class PhraseTable:
    entries: dict[tuple[tuple[str, ...], tuple[str, ...]], PhraseEntry]
    granularity: Granularity = "morpheme"
    max_span: int = 0
    boundary_aware: bool = False
    n_extras: int = 0
    _by_source: Optional[dict[tuple[str, ...], list[PhraseEntry]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, source, target) -> Optional[PhraseEntry]:
        return self.entries.get((tuple(source), tuple(target)))

    def by_source(self) -> dict[tuple[str, ...], list[PhraseEntry]]:
        """Entries per source phrase, by target; built once (tables are immutable by convention)."""
        if self._by_source is None:
            out: dict[tuple[str, ...], list[PhraseEntry]] = {}
            for (src, _), entry in sorted(self.entries.items()):
                out.setdefault(src, []).append(entry)
            self._by_source = out
        return self._by_source


def extract_phrases(
    source: Sequence[str],
    target: Sequence[str],
    a: AlignmentMatrix,
    max_len: int = 7,
) -> set[PhrasePair]:
    """All alignment-consistent phrase pairs with both sides <= max_len tokens.

    A box is consistent when it contains at least one link and no link leaves
    it; target boundaries additionally grow over adjacent unaligned tokens.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    links = a.links
    aligned_tgt = {j for _, j in links}
    pairs: set[PhrasePair] = set()
    for i1 in range(len(source)):
        for i2 in range(i1, min(i1 + max_len, len(source))):
            proj = [j for i, j in links if i1 <= i <= i2]
            if not proj:
                continue
            j1, j2 = min(proj), max(proj)
            if any(j1 <= j <= j2 and not (i1 <= i <= i2) for i, j in links):
                continue
            jj1 = j1
            while True:
                jj2 = j2
                while True:
                    if jj2 - jj1 + 1 <= max_len:
                        pairs.add(_make_pair(source, target, links, i1, i2, jj1, jj2))
                    if jj2 + 1 >= len(target) or jj2 + 1 in aligned_tgt:
                        break
                    jj2 += 1
                if jj1 - 1 < 0 or jj1 - 1 in aligned_tgt:
                    break
                jj1 -= 1
    return pairs


def _make_pair(source, target, links, i1, i2, j1, j2) -> PhrasePair:
    rel = frozenset(
        (i - i1, j - j1) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
    )
    return PhrasePair(tuple(source[i1 : i2 + 1]), tuple(target[j1 : j2 + 1]), rel)


def extract_phrases_boundary_aware(
    src: MorphSentence,
    tgt: MorphSentence,
    a: AlignmentMatrix,
    max_words: int = 7,
) -> set[PhrasePair]:
    """Alignment-consistent pairs whose sides are whole-word spans (in words).

    ``a`` links morpheme tokens.  Morpheme length is unbounded; only the word
    count on each side is limited.  Unaligned extension is restricted to
    adjacent fully-unaligned whole words.
    """
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    src_tokens = token_strings(src)
    tgt_tokens = token_strings(tgt)
    if len(src_tokens) != a.source_len or len(tgt_tokens) != a.target_len:
        raise ValueError("alignment does not match sentence lengths")
    src_spans = word_spans(src)
    tgt_spans = word_spans(tgt)
    links = a.links
    aligned_tgt = {j for _, j in links}
    word_of_tgt = {}
    for w, span in enumerate(tgt_spans):
        for j in range(span.start, span.end + 1):
            word_of_tgt[j] = w

    def word_unaligned(w: int) -> bool:
        span = tgt_spans[w]
        return all(j not in aligned_tgt for j in range(span.start, span.end + 1))

    pairs: set[PhrasePair] = set()
    for w1 in range(len(src_spans)):
        for w2 in range(w1, min(w1 + max_words, len(src_spans))):
            i1, i2 = src_spans[w1].start, src_spans[w2].end
            proj = [j for i, j in links if i1 <= i <= i2]
            if not proj:
                continue
            j1, j2 = min(proj), max(proj)
            if any(j1 <= j <= j2 and not (i1 <= i <= i2) for i, j in links):
                continue
            # snap the projected span outward to word boundaries; the gap
            # tokens must be unaligned or the snapped box is inconsistent
            tw1, tw2 = word_of_tgt[j1], word_of_tgt[j2]
            snap1, snap2 = tgt_spans[tw1].start, tgt_spans[tw2].end
            gap = [*range(snap1, j1), *range(j2 + 1, snap2 + 1)]
            if any(j in aligned_tgt for j in gap):
                continue
            ew1 = tw1
            while True:
                ew2 = tw2
                while True:
                    if ew2 - ew1 + 1 <= max_words:
                        pairs.add(_make_pair(
                            src_tokens, tgt_tokens, links,
                            i1, i2, tgt_spans[ew1].start, tgt_spans[ew2].end,
                        ))
                    if ew2 + 1 >= len(tgt_spans) or not word_unaligned(ew2 + 1):
                        break
                    ew2 += 1
                if ew1 - 1 < 0 or not word_unaligned(ew1 - 1):
                    break
                ew1 -= 1
    return pairs


PairCounts = Union[Counter, Iterable[PhrasePair], Mapping[PhrasePair, int]]


def lexical_weight(
    target: Sequence[str],
    source: Sequence[str],
    alignment: Iterable[tuple[int, int]],
    table: LexicalTable,
) -> float:
    """Koehn lexical weight of the target side given the source side.

    Per target token: average t(target|source) over its linked sources, or
    t(target|NULL) when unlinked; multiply over target tokens.
    """
    linked: dict[int, list[int]] = {}
    for i, j in alignment:
        linked.setdefault(j, []).append(i)
    weight = 1.0
    for j, t_tok in enumerate(target):
        sources = linked.get(j)
        if sources:
            weight *= sum(table.prob(t_tok, source[i]) for i in sources) / len(sources)
        else:
            weight *= table.prob(t_tok, None)
    return weight


def score_phrase_table(
    pairs: PairCounts,
    lex_fwd_table: LexicalTable,
    lex_bwd_table: LexicalTable,
    granularity: Granularity = "morpheme",
    max_span: int = 0,
    boundary_aware: bool = False,
) -> PhraseTable:
    """ML-estimate the five scores from extraction counts.

    phi are relative frequencies over the joint counts; lexical weights take
    the max over the internal alignments a pair was extracted with; the stored
    representative alignment is the most frequent one (ties lexicographic).
    """
    counts: Counter = pairs if isinstance(pairs, (Counter, dict)) else Counter(pairs)
    joint: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}
    aligns: dict[tuple, Counter] = {}
    src_marginal: Counter = Counter()
    tgt_marginal: Counter = Counter()
    for pair, c in counts.items():
        key = (pair.source, pair.target)
        joint[key] = joint.get(key, 0) + c
        aligns.setdefault(key, Counter())[pair.alignment] += c
        src_marginal[pair.source] += c
        tgt_marginal[pair.target] += c

    entries = {}
    for key in sorted(joint):
        src, tgt = key
        c = joint[key]
        observed = aligns[key]
        lex_fwd = max(
            lexical_weight(tgt, src, al, lex_fwd_table) for al in observed
        )
        lex_bwd = max(
            lexical_weight(src, tgt, [(j, i) for i, j in al], lex_bwd_table)
            for al in observed
        )
        top = max(observed.values())
        representative = min(
            (al for al, n in observed.items() if n == top),
            key=lambda al: sorted(al),
        )
        entries[key] = PhraseEntry(
            source=src,
            target=tgt,
            phi_fwd=c / src_marginal[src],
            phi_bwd=c / tgt_marginal[tgt],
            lex_fwd=lex_fwd,
            lex_bwd=lex_bwd,
            penalty=PHRASE_PENALTY,
            count_joint=c,
            alignment=representative,
        )
    return PhraseTable(entries, granularity, max_span, boundary_aware)


def extract_corpus(
    sources: Sequence[Sequence[str]],
    targets: Sequence[Sequence[str]],
    alignments: Sequence[AlignmentMatrix],
    max_len: int = 7,
) -> Counter:
    """Classic extraction counts over a corpus (one set per sentence pair)."""
    counts: Counter = Counter()
    for src, tgt, a in zip(sources, targets, alignments, strict=True):
        counts.update(extract_phrases(src, tgt, a, max_len))
    return counts


def extract_corpus_boundary_aware(
    sources: Sequence[MorphSentence],
    targets: Sequence[MorphSentence],
    alignments: Sequence[AlignmentMatrix],
    max_words: int = 7,
) -> Counter:
    counts: Counter = Counter()
    for src, tgt, a in zip(sources, targets, alignments, strict=True):
        counts.update(extract_phrases_boundary_aware(src, tgt, a, max_words))
    return counts


# --- text format: src ||| tgt ||| scores ||| count ||| i-j i-j ---------------


def write_phrase_table(path, table: PhraseTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(table.entries):
            e = table.entries[key]
            scores = " ".join(repr(s) for s in e.scores())
            links = " ".join(f"{i}-{j}" for i, j in sorted(e.alignment))
            count = "" if e.count_joint is None else repr(e.count_joint)
            fh.write(
                f"{' '.join(e.source)} ||| {' '.join(e.target)} ||| {scores} "
                f"||| {count} ||| {links}\n".rstrip() + "\n"
            )


def read_phrase_table(
    path,
    granularity: Granularity = "morpheme",
    max_span: int = 0,
    boundary_aware: bool = False,
) -> PhraseTable:
    entries = {}
    n_extras = 0
    for entry in parse_file(path, _parse_phrase_line):
        if entry is not None:
            entries[(entry.source, entry.target)] = entry
            n_extras = max(n_extras, len(entry.extras))
    return PhraseTable(entries, granularity, max_span, boundary_aware, n_extras)


def _parse_phrase_line(line: str) -> Optional[PhraseEntry]:
    """One ``src ||| tgt ||| scores ||| count [||| links]`` line; None if blank."""
    if not line.strip():
        return None
    fields = [f.strip() for f in line.split("|||")]
    if len(fields) < 4:
        raise ValueError(f"bad phrase-table line: {line.rstrip()!r}")
    src = tuple(fields[0].split())
    tgt = tuple(fields[1].split())
    scores = [float(x) for x in fields[2].split()]
    if len(scores) < 5:
        raise ValueError(f"expected >= 5 scores: {line.rstrip()!r}")
    count = float(fields[3]) if fields[3] else None
    links = frozenset(
        (int(i), int(j))
        for i, j in (p.split("-") for p in fields[4].split())
    ) if len(fields) > 4 and fields[4] else frozenset()
    return PhraseEntry(
        src, tgt, scores[0], scores[1], scores[2], scores[3], scores[4],
        count, links, tuple(scores[5:]),
    )
