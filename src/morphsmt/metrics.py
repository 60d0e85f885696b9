"""Translation evaluation: corpus BLEU, m-BLEU, LCSR proximity, sign test.

BLEU is the standard single-reference corpus score with clipped n-gram counts
and the brevity penalty, no smoothing.  An n-gram order with no hypothesis
n-grams at all (corpus of very short sentences) counts as a vacuous 1.0
precision; an order with hypothesis n-grams but zero matches zeroes the score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .align import AlignmentMatrix

BLEU_MAX_N = 4


@dataclass(frozen=True)
class BleuReport:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_stats(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, ...]:
    """Sufficient statistics (match_1..n, total_1..n, hyp_len, ref_len)."""
    stats = []
    for n in range(1, BLEU_MAX_N + 1):
        hyp_counts = ngram_counts(hyp, n)
        ref_counts = ngram_counts(ref, n)
        match = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        stats.append(match)
    for n in range(1, BLEU_MAX_N + 1):
        stats.append(max(len(hyp) - n + 1, 0))
    stats.extend([len(hyp), len(ref)])
    return tuple(stats)


def add_stats(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def zero_stats() -> tuple[int, ...]:
    return (0,) * (2 * BLEU_MAX_N + 2)


def bleu_from_stats(stats: Sequence[int]) -> BleuReport:
    n = BLEU_MAX_N
    matches = tuple(stats[:n])
    totals = tuple(stats[n : 2 * n])
    hyp_len, ref_len = stats[2 * n], stats[2 * n + 1]
    precisions = []
    for m, t in zip(matches, totals):
        precisions.append(m / t if t > 0 else 1.0)
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(math.fsum(math.log(p) for p in precisions) / n)
    return BleuReport(score, tuple(precisions), bp, hyp_len, ref_len)


def bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> BleuReport:
    """Corpus BLEU over word sequences, one reference per sentence."""
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise ValueError("empty corpus")
    total = zero_stats()
    for hyp, ref in zip(hyps, refs):
        total = add_stats(total, bleu_stats(hyp, ref))
    return bleu_from_stats(total)


def m_bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> BleuReport:
    """BLEU over morpheme tokens (tags and continuation markers included)."""
    return bleu(hyps, refs)


def lcs_length(a: str, b: str) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if ca == cb else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def lcsr(a: str, b: str) -> float:
    """Longest common subsequence ratio: char-level LCS / longer length."""
    if not a or not b:
        raise ValueError("lcsr requires non-empty strings")
    return lcs_length(a, b) / max(len(a), len(b))


@dataclass
class ProximityReport:
    total: int
    exact_matches: int
    skipped: int


# a trace item is (src_word_start, src_word_end_exclusive, src_words, out_words)
TraceItem = tuple[int, int, Sequence[str], Sequence[str]]


def proximity_triples(
    traces: Sequence[Sequence[TraceItem]],
    ref_sentences: Sequence[Sequence[str]],
    alignments: Sequence[Optional[AlignmentMatrix]],
    threshold: float = 0.7,
) -> ProximityReport:
    """Project each used source span through a src-ref word alignment.

    A match counts when the character LCSR between the produced phrase and
    the projected reference phrase reaches the threshold; sentences without an
    alignment are skipped and counted.
    """
    total = exact = skipped = 0
    for trace, ref, alignment in zip(traces, ref_sentences, alignments, strict=True):
        if alignment is None:
            skipped += 1
            continue
        links = alignment.links
        for start, end, _, out_words in trace:
            proj = sorted(j for i, j in links if start <= i < end)
            if not proj:
                continue
            ref_phrase = " ".join(ref[proj[0] : proj[-1] + 1])
            out_phrase = " ".join(out_words)
            if not ref_phrase or not out_phrase:
                continue
            if lcsr(out_phrase, ref_phrase) >= threshold:
                total += 1
                exact += out_phrase == ref_phrase
    return ProximityReport(total, exact, skipped)


def sign_test(wins_a: int, wins_b: int) -> float:
    """Exact one-sided binomial sign test on paired wins, ties excluded.

    p = P(X <= min(a, b)) for X ~ Binomial(a + b, 0.5), summed directly.
    """
    if wins_a < 0 or wins_b < 0:
        raise ValueError("win counts must be non-negative")
    n = wins_a + wins_b
    if n < 1:
        raise ValueError("need at least one non-tied comparison")
    m = min(wins_a, wins_b)
    return sum(math.comb(n, k) for k in range(m + 1)) / 2 ** n
