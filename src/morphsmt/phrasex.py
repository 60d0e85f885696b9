"""Phrase-pair extraction and scoring into five-feature phrase tables.

One loop enumerates alignment-consistent boxes over units with a limit in
units.  Classic extraction's units are tokens.  Boundary-aware extraction's
units are the words of a morpheme sentence: the projected target span snaps
outward to word boundaries and both sides are limited in WORDS, so a phrase
may run to any number of morpheme tokens as long as it covers few enough
words, and a phrase that stops mid-word (a nonword fragment) is never
proposed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, pairwise
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .align import FLOOR_PROB, AlignmentMatrix, Granularity, LexicalTable, format_links, parse_links
from .morpho import parse_keyed_file, word_index, word_spans, write_lines

PHRASE_PENALTY = math.e  # constant fifth score, ln = 1 per applied phrase


@dataclass(frozen=True, slots=True)
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
    """Entries indexed by source phrase: sources in sorted order, each
    source's entries sorted by target, so iteration runs in (source, target)
    order.  Build it with ``PhraseTable.of``; ``decoder.restrict_table`` cuts one."""

    by_source: dict[tuple[str, ...], tuple[PhraseEntry, ...]]
    granularity: Granularity
    max_span: int  # the longest source phrase in words
    n_extras: int  # the most extra scores of an entry

    @classmethod
    def of(cls, entries: Iterable[PhraseEntry],
           granularity: Granularity = "morpheme") -> PhraseTable:
        """The table of ``entries``; a repeated (source, target) pair is a
        ValueError.  A word table's tokens are its words."""
        by_source = {}
        source, target = attrgetter("source"), attrgetter("target")
        n_words = len if granularity == "word" else (lambda src: len(word_spans(src)))
        max_span = n_extras = 0
        for src, group in groupby(sorted(entries, key=source), key=source):
            by_source[src] = group = tuple(sorted(group, key=target))
            for a, b in pairwise(group):
                if a.target == b.target:
                    raise ValueError(f"repeated phrase pair {' '.join(src)!r} "
                                     f"||| {' '.join(a.target)!r}")
            if len(src) > max_span:  # no fewer tokens than words
                max_span = max(max_span, n_words(src))
            n_extras = max(n_extras, *(len(e.extras) for e in group))
        return cls(by_source, granularity, max_span, n_extras)

    def __len__(self) -> int:
        return sum(map(len, self.by_source.values()))

    def __iter__(self) -> Iterator[PhraseEntry]:
        return chain.from_iterable(self.by_source.values())

    def get(self, source, target) -> Optional[PhraseEntry]:
        entries = self.by_source.get(tuple(source), ())
        target = tuple(target)
        i = bisect_left(entries, target, key=attrgetter("target"))
        return entries[i] if i < len(entries) and entries[i].target == target else None


# Extraction grows a box one source unit at a time (as Moses does, row by
# row): each unit's links widen the projected target span [j1, j2], and the
# consistency check looks only at the columns of that span, not at every link
# of the sentence.


def _link_index(a: AlignmentMatrix):
    """Per source row, its links as (i, j); per target column, the min and
    max linked source index (``source_len`` and -1 when the column is
    unaligned)."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(a.source_len)]
    lo = [a.source_len] * a.target_len
    hi = [-1] * a.target_len
    for i, j in a.links:
        rows[i].append((i, j))
        if i < lo[j]:
            lo[j] = i
        if i > hi[j]:
            hi[j] = i
    return rows, lo, hi


def _widen(row, j1: int, j2: int) -> tuple[int, int]:
    for _, j in row:
        if j < j1:
            j1 = j
        if j > j2:
            j2 = j
    return j1, j2


def _consistent(lo, hi, i1: int, i2: int, j1: int, j2: int) -> Optional[bool]:
    """Whether no link leaves the box [i1, i2] x [j1, j2], where [j1, j2] is
    the projection of [i1, i2].  None when a projected column is linked to a
    row before i1: the projection only widens as i2 grows, so no box from i1
    that goes further can be consistent either."""
    if min(lo[j1 : j2 + 1]) < i1:
        return None
    return max(hi[j1 : j2 + 1]) <= i2


def extract_phrases(
    source: Sequence[str],
    target: Sequence[str],
    a: AlignmentMatrix,
    max_len: int = 7,
    boundary_aware: bool = False,
    shared: Optional[dict[frozenset, frozenset]] = None,
) -> set[tuple[tuple[str, ...], tuple[str, ...], frozenset[tuple[int, int]]]]:
    """All alignment-consistent phrase pairs whose sides span <= max_len
    units, as (source, target, phrase-relative (i, j) links).

    Units are tokens, or with ``boundary_aware`` the words of
    ``morpho.word_spans``, so a phrase may then run to any number of morpheme
    tokens.  A box is consistent when it contains at least one link and no
    link leaves it; its target span snaps outward to unit boundaries over
    unaligned tokens only, then grows over adjacent fully-unaligned units.
    ``shared`` maps each phrase-internal alignment seen so far to the one set
    that stands for it, and gains the new ones, so a corpus loop that passes
    one dict to every call holds one set per distinct alignment.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    source, target = tuple(source), tuple(target)
    if len(source) != a.source_len or len(target) != a.target_len:
        raise ValueError("alignment does not match sentence lengths")
    rows, lo, hi = _link_index(a)
    if boundary_aware:
        src_spans, tgt_spans = word_spans(source), word_spans(target)
        unit_rows = [[link for i in range(start, end + 1) for link in rows[i]]
                     for start, end in src_spans]
        unit_of_tgt = word_index(target)
        unaligned = [max(hi[start : end + 1]) < 0 for start, end in tgt_spans]
    else:
        src_spans = [(i, i) for i in range(len(source))]
        tgt_spans = [(j, j) for j in range(len(target))]
        unit_rows, unit_of_tgt = rows, range(len(target))
        unaligned = [h < 0 for h in hi]
    n_units = len(tgt_spans)

    pairs = set()
    for u1, (i1, _) in enumerate(src_spans):
        j1, j2, box = len(target), -1, []
        for u2 in range(u1, min(u1 + max_len, len(src_spans))):
            j1, j2 = _widen(unit_rows[u2], j1, j2)
            box += unit_rows[u2]
            if j2 < 0:
                continue
            i2 = src_spans[u2][1]
            consistent = _consistent(lo, hi, i1, i2, j1, j2)
            if consistent is None:
                break
            tu1, tu2 = unit_of_tgt[j1], unit_of_tgt[j2]
            if not consistent or tu2 - tu1 >= max_len:
                continue
            # snap the projected span outward to unit boundaries; the gap
            # tokens must be unaligned or the snapped box is inconsistent
            snap1, snap2 = tgt_spans[tu1][0], tgt_spans[tu2][1]
            if (snap1 < j1 or snap2 > j2) and any(
                    hi[j] >= 0 for j in (*range(snap1, j1), *range(j2 + 1, snap2 + 1))):
                continue
            src_phrase = source[i1 : i2 + 1]
            eu1 = tu1
            while tu2 - eu1 < max_len:
                start = tgt_spans[eu1][0]
                # no consumer reads a link set's iteration order:
                # lexical_weights averages with fsum, the writers sort
                rel = frozenset((i - i1, j - start) for i, j in box)
                if shared is not None:
                    rel = shared.setdefault(rel, rel)
                eu2 = tu2
                while True:
                    end = tgt_spans[eu2][1]
                    pairs.add((src_phrase, target[start : end + 1], rel))
                    if (eu2 - eu1 + 1 == max_len or eu2 + 1 == n_units
                            or not unaligned[eu2 + 1]):
                        break
                    eu2 += 1
                if eu1 == 0 or not unaligned[eu1 - 1]:
                    break
                eu1 -= 1
    return pairs


def lexical_weights(
    source: Sequence[str],
    target: Sequence[str],
    alignment: Iterable[tuple[int, int]],
    fwd_table: LexicalTable,
    bwd_table: LexicalTable,
) -> tuple[float, float]:
    """Koehn lexical weights (lex_fwd, lex_bwd) of a phrase pair under one
    internal alignment: lex_fwd of the target given the source under
    ``fwd_table``, lex_bwd of the source given the target under ``bwd_table``.

    Per token: average t(token|linked) over its links, or t(token|NULL) when
    unlinked; multiply over tokens.  The average is an exact ``fsum``, so the
    alignment's iteration order does not matter.
    """
    by_tgt: dict[int, list[int]] = {}
    by_src: dict[int, list[int]] = {}
    for i, j in alignment:
        by_tgt.setdefault(j, []).append(i)
        by_src.setdefault(i, []).append(j)
    return (_weight(target, source, by_tgt, fwd_table.get),
            _weight(source, target, by_src, bwd_table.get))


def _weight(target, source, linked, prob) -> float:
    """One direction's weight from the links per target index, with ``prob``
    the lexical table's ``get``.  A one-link average is the probability
    itself (0 + p and p / 1 are exact), so it is taken as is."""
    weight = 1.0
    for j, t_tok in enumerate(target):
        sources = linked.get(j)
        if sources is None:
            weight *= prob((None, t_tok), FLOOR_PROB)
        elif len(sources) == 1:
            weight *= prob((source[sources[0]], t_tok), FLOOR_PROB)
        else:
            weight *= math.fsum(
                prob((source[i], t_tok), FLOOR_PROB) for i in sources
            ) / len(sources)
    return weight


def score_phrase_table(
    counts: Counter,
    lex_fwd_table: LexicalTable,
    lex_bwd_table: LexicalTable,
    granularity: Granularity = "morpheme",
) -> PhraseTable:
    """ML-estimate the five scores from extraction counts of (source, target,
    alignment) keys.

    phi are relative frequencies over the joint counts, a pair's joint count
    being the sum of its alignments' counts; lexical weights take the max
    over the internal alignments a pair was extracted with; the stored
    representative alignment is the most frequent one (ties lexicographic),
    its key's own set, so ``extract_corpus``'s sharing carries over.
    """
    aligns: dict[tuple, dict[frozenset, int]] = {}
    src_marginal: Counter = Counter()
    tgt_marginal: Counter = Counter()
    for (src, tgt, alignment), c in counts.items():
        aligns.setdefault((src, tgt), {})[alignment] = c  # each key occurs once
        src_marginal[src] += c
        tgt_marginal[tgt] += c

    entries = []
    while aligns:  # popped as entries are built, lowering the build's peak
        (src, tgt), observed = aligns.popitem()
        c = sum(observed.values())
        if len(observed) == 1:
            (representative,) = observed
            lex_fwd, lex_bwd = lexical_weights(
                src, tgt, representative, lex_fwd_table, lex_bwd_table)
        else:
            weights = [lexical_weights(src, tgt, al, lex_fwd_table, lex_bwd_table)
                       for al in observed]
            lex_fwd = max(w for w, _ in weights)
            lex_bwd = max(w for _, w in weights)
            top = max(observed.values())
            representative = min(
                (al for al, n in observed.items() if n == top),
                key=lambda al: sorted(al),
            )
        entries.append(PhraseEntry(
            src, tgt, c / src_marginal[src], c / tgt_marginal[tgt], lex_fwd, lex_bwd,
            PHRASE_PENALTY, c, representative))
    return PhraseTable.of(entries, granularity)


def extract_corpus(
    sources: Sequence[Sequence[str]],
    targets: Sequence[Sequence[str]],
    alignments: Sequence[AlignmentMatrix],
    max_len: int = 7,
    boundary_aware: bool = False,
) -> Counter:
    """Extraction counts over a corpus (one set per sentence pair); with
    ``boundary_aware``, ``max_len`` limits both sides in words."""
    counts: Counter = Counter()
    shared: dict[frozenset, frozenset] = {}
    for src, tgt, a in zip(sources, targets, alignments, strict=True):
        counts.update(extract_phrases(src, tgt, a, max_len, boundary_aware, shared))
    return counts


# a name of its own so that a tracer can time and count boundary-aware
# extraction apart; the partial holds this module's unwrapped function
extract_corpus_boundary_aware = partial(extract_corpus, boundary_aware=True)


# --- text format: src ||| tgt ||| scores ||| count ||| i-j i-j ---------------


def write_phrase_table(path, table: PhraseTable) -> None:
    write_lines(path, (f"{' '.join(e.source)} ||| {' '.join(e.target)} ||| "
                       f"{' '.join(map(repr, e.scores()))} ||| "
                       f"{'' if e.count_joint is None else repr(e.count_joint)} ||| "
                       f"{format_links(e.alignment)}".rstrip() for e in table))


def read_phrase_table(path, granularity: Granularity = "morpheme") -> PhraseTable:
    """A table file; a line that repeats an earlier line's source and target
    is rejected, so no line's scores silently replace another's.  Equal link
    sets are read as one shared set."""
    shared: dict[frozenset, frozenset] = {}
    entries = parse_keyed_file(
        path, lambda line: _parse_phrase_line(line, shared),
        lambda key: f"phrase pair {' '.join(key[0])!r} ||| {' '.join(key[1])!r}")
    return PhraseTable.of(entries.values(), granularity)


def _parse_phrase_line(line: str, shared: dict) -> Optional[tuple[tuple, PhraseEntry]]:
    """((source, target), entry) of one ``src ||| tgt ||| scores ||| count
    [||| links]`` line; None if blank."""
    if not line.strip():
        return None
    fields = [f.strip() for f in line.split("|||")]
    if not 4 <= len(fields) <= 5:
        raise ValueError(f"expected 4 or 5 '|||'-separated fields, got {len(fields)}: "
                         f"{line.rstrip()!r}")
    src = tuple(fields[0].split())
    tgt = tuple(fields[1].split())
    if not (src and tgt):
        raise ValueError(f"empty phrase side: {line.rstrip()!r}")
    scores = [float(x) for x in fields[2].split()]
    if len(scores) < 5:
        raise ValueError(f"expected >= 5 scores: {line.rstrip()!r}")
    count = float(fields[3]) if fields[3] else None
    if not all(map(math.isfinite, scores + [count or 0.0])):
        raise ValueError(f"scores and count must be finite: {line.rstrip()!r}")
    if count is not None and count <= 0:
        raise ValueError(f"count must be positive: {line.rstrip()!r}")
    if fields[3].isdecimal():  # a count written from an int reads back as one
        count = int(fields[3])
    links = parse_links(fields[4]) if len(fields) > 4 else frozenset()
    for i, j in links:
        if i >= len(src) or j >= len(tgt):
            raise ValueError(f"link {i}-{j} outside the {len(src)}x{len(tgt)} phrase pair")
    return (src, tgt), PhraseEntry(
        src, tgt, scores[0], scores[1], scores[2], scores[3], scores[4],
        count, shared.setdefault(links, links), tuple(scores[5:]),
    )
