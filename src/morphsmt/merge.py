"""Combining a morpheme-native phrase table with a retokenized word table.

Four strategies: add-1/add-2 (primary table wins, origin features appended),
plain linear interpolation, and the raw-count merge that recomputes the
phrase translation probabilities from summed extraction counts so they stay
normalized.  The raw-count merge interpolates lexicalized scores between the
morpheme table and the ORIGINAL word table; a side missing its entry gets an
estimate from the stored alignment instead of a zero.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterator, Literal, Optional, Sequence

from .align import LexicalTable
from .morpho import word_index, word_spans, words_as_tokens, words_from_tokens
from .phrasex import PHRASE_PENALTY, PhraseEntry, PhraseTable, lexical_weights

MergeMethod = Literal["add-1", "add-2", "interpolation", "our-method"]

# origin feature values for the add-feature merges
FEAT_BOTH = math.e
FEAT_ONE = math.exp(2.0 / 3.0)   # add-1, primary only
FEAT_OTHER = math.exp(1.0 / 3.0)  # add-1, secondary only
FEAT_ON = math.e                  # add-2 slot active
FEAT_OFF = 1.0                    # add-2 slot inactive


@dataclass
class SegmentationLexicon:
    """word -> serialized morpheme token sequence, from the corpus segmentation."""

    mapping: dict[str, tuple[str, ...]]

    def segment(self, word: str) -> tuple[str, ...]:
        """Known words map through the lexicon; unknown words become one STM."""
        return self.mapping.get(word, words_as_tokens((word,)))


def build_lexicon(morph_sentences: Sequence[tuple[str, ...]]) -> SegmentationLexicon:
    """Each word's segmentation in the segmented sentences, where a word is
    its tokens' surfaces joined; most frequent wins, ties lexicographic."""
    seen: dict[str, Counter] = {}
    for tokens in morph_sentences:
        for word, (start, end) in zip(words_from_tokens(tokens), word_spans(tokens)):
            seen.setdefault(word, Counter())[tokens[start : end + 1]] += 1
    mapping = {}
    for word in sorted(seen):
        top = max(seen[word].values())
        mapping[word] = min(seg for seg, n in seen[word].items() if n == top)
    return SegmentationLexicon(mapping)


def retokenize_pt(pt_w: PhraseTable, lex: SegmentationLexicon) -> PhraseTable:
    """Map a word-granularity table to morpheme granularity.

    Scores and counts are carried unchanged; each word-level link expands to
    the full product of the two words' morpheme positions.  Each word is
    segmented once, and equal expanded link sets are one shared set.  Two
    entries that map to one (source, target) pair are a ValueError.
    """
    if pt_w.granularity != "word":
        raise ValueError("retokenize_pt expects a word-granularity table")
    words = {w for e in pt_w for side in (e.source, e.target) for w in side}
    segments = {w: lex.segment(w) for w in words}
    shared: dict[frozenset, frozenset] = {}
    entries = []
    for e in pt_w:
        src_segs = [segments[w] for w in e.source]
        tgt_segs = [segments[w] for w in e.target]
        src_tokens = tuple(t for seg in src_segs for t in seg)
        tgt_tokens = tuple(t for seg in tgt_segs for t in seg)
        src_offsets = list(accumulate(map(len, src_segs), initial=0))
        tgt_offsets = list(accumulate(map(len, tgt_segs), initial=0))
        links = frozenset(
            (mi, mj)
            for wi, wj in e.alignment
            for mi in range(src_offsets[wi], src_offsets[wi] + len(src_segs[wi]))
            for mj in range(tgt_offsets[wj], tgt_offsets[wj] + len(tgt_segs[wj]))
        )
        entries.append(PhraseEntry(
            src_tokens, tgt_tokens, e.phi_fwd, e.phi_bwd, e.lex_fwd, e.lex_bwd,
            e.penalty, e.count_joint, shared.setdefault(links, links), e.extras,
        ))
    return PhraseTable.of(entries, "morpheme")


def merge_tables(method: MergeMethod, a: PhraseTable, b: PhraseTable, alpha: float,
                 pt_w: Optional[PhraseTable] = None,
                 lexical: Sequence[LexicalTable] = ()) -> PhraseTable:
    """``a`` and ``b`` combined by ``method``.  ``a`` is the primary table of
    add-1/add-2, the ``alpha`` side of interpolation and our-method's
    ``pt_m``; our-method also takes the word table ``pt_w`` and the four
    ``lexical`` tables (morpheme forward, backward, word forward, backward)."""
    if method == "our-method":
        return merge_our_method(a, b, pt_w, alpha, *lexical)
    if method == "interpolation":
        return merge_interpolate(a, b, alpha)
    return merge_add_features(a, b, {"add-1": 1, "add-2": 2}[method])


def merge_add_features(
    primary: PhraseTable, secondary: PhraseTable, n_features: int
) -> PhraseTable:
    """Union keyed by (src, tgt); duplicates keep the primary table's scores.

    add-1 appends e^1 / e^(2/3) / e^(1/3) for both / primary-only /
    secondary-only; add-2 appends (e,e) / (e,1) / (1,e).
    """
    if n_features not in (1, 2):
        raise ValueError("n_features must be 1 or 2")
    entries = []
    for _, _, p, s in _union(primary, secondary):
        base = p or s
        if n_features == 1:
            feats = (FEAT_BOTH,) if p and s else (FEAT_ONE,) if p else (FEAT_OTHER,)
        else:
            feats = (
                (FEAT_ON, FEAT_ON) if p and s
                else (FEAT_ON, FEAT_OFF) if p
                else (FEAT_OFF, FEAT_ON)
            )
        entries.append(replace(base, extras=base.extras + feats))
    return PhraseTable.of(entries, primary.granularity)


def merge_interpolate(
    pt_a: PhraseTable, pt_b: PhraseTable, alpha: float
) -> PhraseTable:
    """Linear interpolation of the four probability scores; missing side is 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    entries = []
    for src, tgt, a, b in _union(pt_a, pt_b):

        def mix(attr: str) -> float:
            va = getattr(a, attr) if a is not None else 0.0
            vb = getattr(b, attr) if b is not None else 0.0
            return alpha * va + (1.0 - alpha) * vb

        counts = [e.count_joint for e in (a, b) if e is not None and e.count_joint is not None]
        entries.append(PhraseEntry(
            src, tgt, mix("phi_fwd"), mix("phi_bwd"), mix("lex_fwd"), mix("lex_bwd"),
            PHRASE_PENALTY, sum(counts) if counts else None, (a or b).alignment,
        ))
    return PhraseTable.of(entries, pt_a.granularity)


def induce_word_alignment(
    src_tokens: Sequence[str],
    tgt_tokens: Sequence[str],
    morph_links: Sequence[tuple[int, int]],
) -> frozenset[tuple[int, int]]:
    """Word pair linked iff any of their constituent morpheme pairs is linked."""
    src_word_of, tgt_word_of = word_index(src_tokens), word_index(tgt_tokens)
    return frozenset((src_word_of[i], tgt_word_of[j]) for i, j in morph_links)


def merge_our_method(
    pt_m: PhraseTable,
    pt_wm: PhraseTable,
    pt_w: PhraseTable,
    alpha: float,
    lex_m_fwd: LexicalTable,
    lex_m_bwd: LexicalTable,
    lex_w_fwd: LexicalTable,
    lex_w_bwd: LexicalTable,
) -> PhraseTable:
    """Raw-count phi merge plus lexicalized interpolation with estimation.

    phi(t|s) = (c_m + c_wm) / (sum_t' c_m + sum_t' c_wm) over the union of
    entries, and symmetrically for the backward direction, which keeps both
    distributions normalized.  lex = alpha*lex_m + (1-alpha)*lex_w, where
    lex_m comes from pt_m and lex_w from the original word table via word
    concatenation; a missing side is estimated with the standard lexical
    weight formula over the stored (induced) alignment, never zeroed.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")

    # (source, target, pt_m entry or None, pt_wm entry or None, summed count)
    found = [(src, tgt, em, ewm, _count("pt_m", em) + _count("pt_wm", ewm))
             for src, tgt, em, ewm in _union(pt_m, pt_wm)]
    src_marginal: Counter = Counter()
    tgt_marginal: Counter = Counter()
    for src, tgt, *_, c in found:
        src_marginal[src] += c
        tgt_marginal[tgt] += c
    sides = {side for src, tgt, *_ in found for side in (src, tgt)}
    words = {side: tuple(words_from_tokens(side)) for side in sides}  # word views

    entries = []
    for src, tgt, em, ewm, c in found:
        carrier = em if em is not None else ewm

        if em is not None:
            lmf, lmb = em.lex_fwd, em.lex_bwd
        else:
            # morpheme-side estimate over the retokenized entry's alignment
            lmf, lmb = lexical_weights(src, tgt, carrier.alignment, lex_m_fwd, lex_m_bwd)

        src_words, tgt_words = words[src], words[tgt]
        ew = pt_w.get(src_words, tgt_words)
        if ew is not None:
            lwf, lwb = ew.lex_fwd, ew.lex_bwd
        else:
            word_links = induce_word_alignment(src, tgt, carrier.alignment)
            lwf, lwb = lexical_weights(src_words, tgt_words, word_links, lex_w_fwd, lex_w_bwd)

        entries.append(PhraseEntry(
            src, tgt, c / src_marginal[src], c / tgt_marginal[tgt],
            alpha * lmf + (1.0 - alpha) * lwf, alpha * lmb + (1.0 - alpha) * lwb,
            PHRASE_PENALTY, c, carrier.alignment))
    return PhraseTable.of(entries, "morpheme")


def _count(name: str, e: Optional[PhraseEntry]) -> float:
    """The joint count of ``e``, table ``name``'s entry or None (0); an
    entry read without counts is a ValueError naming its pair."""
    if e is not None and e.count_joint is None:
        raise ValueError(f"{name} entry {' '.join(e.source)!r} ||| "
                         f"{' '.join(e.target)!r} lacks counts")
    return e.count_joint if e is not None else 0


def _union(a: PhraseTable, b: PhraseTable) -> Iterator[tuple]:
    """(source, target, entry of ``a``, entry of ``b``) over the pairs of
    either table, in (source, target) order; a table without the pair gives
    None.  Tables of two granularities are a ValueError."""
    if a.granularity != b.granularity:
        raise ValueError(f"cannot merge a {a.granularity} table with a {b.granularity} table")
    tagged = heapq.merge(((e.source, e.target, 0, e) for e in a),
                         ((e.source, e.target, 1, e) for e in b))
    for (src, tgt), group in groupby(tagged, key=itemgetter(0, 1)):
        found: list = [None, None]
        for *_, side, e in group:
            found[side] = e
        yield src, tgt, *found
