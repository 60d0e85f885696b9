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

from .align import FLOOR_PROB, AlignmentMatrix, Granularity, LexicalTable
from .morpho import parse_file, word_spans

PHRASE_PENALTY = math.e  # constant fifth score, ln = 1 per applied phrase


@dataclass(frozen=True)
class PhrasePair:
    source: tuple[str, ...]
    target: tuple[str, ...]
    alignment: frozenset[tuple[int, int]]  # phrase-relative (i, j) links

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("phrase sides must be non-empty")
        n_src, n_tgt = len(self.source), len(self.target)
        for i, j in self.alignment:
            if not (0 <= i < n_src and 0 <= j < n_tgt):
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


# Extraction grows a box one source row at a time (as Moses does): each row
# widens the projected target span [j1, j2], and the consistency check looks
# only at the columns of that span, not at every link of the sentence.


def _link_index(a: AlignmentMatrix):
    """Per source row, its links as (position, i, j) in the order ``a.links``
    iterates; per target column, the min and max linked source index
    (``source_len`` and -1 when the column is unaligned)."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(a.source_len)]
    lo = [a.source_len] * a.target_len
    hi = [-1] * a.target_len
    for pos, (i, j) in enumerate(a.links):
        rows[i].append((pos, i, j))
        if i < lo[j]:
            lo[j] = i
        if i > hi[j]:
            hi[j] = i
    return rows, lo, hi


def _widen(row, j1: int, j2: int) -> tuple[int, int]:
    for _, _, j in row:
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


def _relative(inside, i1: int, j1: int) -> frozenset[tuple[int, int]]:
    """The links of a consistent box from (i1, j1), made phrase-relative.
    ``inside`` holds them in ``a.links`` order, so the set is built in the
    order it always was; it does not depend on where the box ends."""
    return frozenset((i - i1, j - j1) for _, i, j in inside)


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
    if len(source) != a.source_len or len(target) != a.target_len:
        raise ValueError("alignment does not match sentence lengths")
    rows, lo, hi = _link_index(a)
    n_tgt = len(target)
    pairs: set[PhrasePair] = set()
    for i1 in range(len(source)):
        j1, j2, box = n_tgt, -1, []
        for i2 in range(i1, min(i1 + max_len, len(source))):
            j1, j2 = _widen(rows[i2], j1, j2)
            box += rows[i2]
            if j2 < 0:
                continue
            consistent = _consistent(lo, hi, i1, i2, j1, j2)
            if consistent is None:
                break
            if not consistent or j2 - j1 + 1 > max_len:
                continue
            src_phrase = tuple(source[i1 : i2 + 1])
            inside = sorted(box)
            jj1 = j1
            while j2 - jj1 + 1 <= max_len:
                rel = _relative(inside, i1, jj1)
                jj2 = j2
                while True:
                    pairs.add(PhrasePair(src_phrase, tuple(target[jj1 : jj2 + 1]), rel))
                    if (jj2 - jj1 + 1 == max_len or jj2 + 1 == n_tgt
                            or hi[jj2 + 1] >= 0):
                        break
                    jj2 += 1
                if jj1 == 0 or hi[jj1 - 1] >= 0:
                    break
                jj1 -= 1
    return pairs


def extract_phrases_boundary_aware(
    src: Sequence[str],
    tgt: Sequence[str],
    a: AlignmentMatrix,
    max_words: int = 7,
) -> set[PhrasePair]:
    """Alignment-consistent pairs whose sides are whole-word spans (in words).

    ``src`` and ``tgt`` are token strings and ``a`` links them; words are
    ``morpho.word_spans``.  Morpheme length is unbounded; only the word count
    on each side is limited.  Unaligned extension is restricted to adjacent
    fully-unaligned whole words.
    """
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    src_tokens, tgt_tokens = tuple(src), tuple(tgt)
    if len(src_tokens) != a.source_len or len(tgt_tokens) != a.target_len:
        raise ValueError("alignment does not match sentence lengths")
    src_spans = word_spans(src_tokens)
    tgt_spans = word_spans(tgt_tokens)
    rows, lo, hi = _link_index(a)
    word_of_tgt = [w for w, (start, end) in enumerate(tgt_spans)
                   for _ in range(start, end + 1)]
    unaligned = [all(hi[j] < 0 for j in range(start, end + 1))
                 for start, end in tgt_spans]
    n_words = len(tgt_spans)

    pairs: set[PhrasePair] = set()
    for w1 in range(len(src_spans)):
        i1 = src_spans[w1][0]
        j1, j2, box = len(tgt_tokens), -1, []
        for w2 in range(w1, min(w1 + max_words, len(src_spans))):
            w2_start, i2 = src_spans[w2]
            for i in range(w2_start, i2 + 1):
                j1, j2 = _widen(rows[i], j1, j2)
                box += rows[i]
            if j2 < 0:
                continue
            consistent = _consistent(lo, hi, i1, i2, j1, j2)
            if consistent is None:
                break
            if not consistent:
                continue
            # snap the projected span outward to word boundaries; the gap
            # tokens must be unaligned or the snapped box is inconsistent
            tw1, tw2 = word_of_tgt[j1], word_of_tgt[j2]
            snap1, snap2 = tgt_spans[tw1][0], tgt_spans[tw2][1]
            if any(hi[j] >= 0 for j in (*range(snap1, j1), *range(j2 + 1, snap2 + 1))):
                continue
            src_phrase = src_tokens[i1 : i2 + 1]
            inside = sorted(box)
            ew1 = tw1
            while tw2 - ew1 + 1 <= max_words:
                start = tgt_spans[ew1][0]
                rel = _relative(inside, i1, start)
                ew2 = tw2
                while True:
                    end = tgt_spans[ew2][1]
                    pairs.add(PhrasePair(src_phrase, tgt_tokens[start : end + 1], rel))
                    if (ew2 - ew1 + 1 == max_words or ew2 + 1 == n_words
                            or not unaligned[ew2 + 1]):
                        break
                    ew2 += 1
                if ew1 == 0 or not unaligned[ew1 - 1]:
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
    return _weight(target, source, linked, table.probs.get)


def _weight(target, source, linked, prob) -> float:
    """``lexical_weight`` from the links per target index, with ``prob`` the
    lexical table's ``probs.get``.  A one-link average is the probability
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


def _weights(src, tgt, alignment, fwd, bwd) -> tuple[float, float]:
    """(lex_fwd, lex_bwd) of one phrase pair under one internal alignment;
    the links are grouped per target and per source in one pass, in the
    alignment's iteration order, as ``lexical_weight`` groups them."""
    by_tgt: dict[int, list[int]] = {}
    by_src: dict[int, list[int]] = {}
    for i, j in alignment:
        by_tgt.setdefault(j, []).append(i)
        by_src.setdefault(i, []).append(j)
    return _weight(tgt, src, by_tgt, fwd), _weight(src, tgt, by_src, bwd)


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
    aligns: dict[tuple, dict[frozenset, int]] = {}
    src_marginal: Counter = Counter()
    tgt_marginal: Counter = Counter()
    for pair, c in counts.items():
        key = (pair.source, pair.target)
        joint[key] = joint.get(key, 0) + c
        observed = aligns.get(key)
        if observed is None:
            aligns[key] = {pair.alignment: c}
        else:
            observed[pair.alignment] = observed.get(pair.alignment, 0) + c
        src_marginal[pair.source] += c
        tgt_marginal[pair.target] += c

    fwd, bwd = lex_fwd_table.probs.get, lex_bwd_table.probs.get
    entries = {}
    for key in sorted(joint):
        src, tgt = key
        c = joint[key]
        observed = aligns[key]
        if len(observed) == 1:
            (representative,) = observed
            lex_fwd, lex_bwd = _weights(src, tgt, representative, fwd, bwd)
        else:
            weights = [_weights(src, tgt, al, fwd, bwd) for al in observed]
            lex_fwd = max(w for w, _ in weights)
            lex_bwd = max(w for _, w in weights)
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
    sources: Sequence[Sequence[str]],
    targets: Sequence[Sequence[str]],
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
