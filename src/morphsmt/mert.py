"""Minimum error rate training: iterated n-best decoding + exact line search.

The decoder produces morpheme-token candidates; every candidate is converted
to words before its BLEU sufficient statistics are computed, so the metric
being optimized is word-token BLEU (brevity penalty in words, not morphemes).
Line search sweeps the exact piecewise-constant corpus-BLEU envelope along a
direction and lands in the middle of the best interval, preferring the step
closest to zero on ties.  ``mert_run`` calls ``line_search`` once per
direction per pass.  A candidate holds its values in the run's feature order
(the weights' names by ``feature_rank``; a feature they do not name has weight 0
and is dropped).  Along an axis a slope is the value itself; every other slope
and every offset is one ``fsum`` of a vector times the values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import pairwise
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from .decoder import NBestEntry, feature_rank
from .metrics import add_stats, bleu_from_stats, bleu_stats, zero_stats
from .morpho import words_from_tokens, write_lines

INF = math.inf
N_RANDOM_DIRECTIONS = 1  # per iteration, besides one along each feature axis
MAX_PASSES = 8  # line-search passes per iteration


@dataclass(frozen=True)
class Candidate:
    values: tuple[float, ...]  # feature values in the run's feature order
    stats: tuple[int, ...]  # word-level BLEU sufficient statistics vs the ref


@dataclass
class MertState:
    weights: dict[str, float]
    pool: list[dict]  # per dev sentence: dedup key -> Candidate
    history: list[float] = field(default_factory=list)  # pooled dev BLEU per iteration
    best_bleu: float = -1.0
    best_weights: dict[str, float] = field(default_factory=dict)

    def pool_lists(self) -> list[list[Candidate]]:
        return [[p[k] for k in sorted(p)] for p in self.pool]


Pool = Sequence[Sequence[Candidate]]  # per dev sentence, its candidates in pool order
PerCandidate = Sequence[Sequence[float]]  # a number per candidate of a Pool


def _dots(vector: Sequence[float], cand_lists: Pool) -> list[list[float]]:
    """The dot product of ``vector`` with every candidate's values, per sentence."""
    return [[math.fsum(map(mul, vector, c.values)) for c in cands] for cands in cand_lists]


def line_search(cand_lists: Pool, slopes: PerCandidate, offsets: PerCandidate) -> tuple:
    """(step, corpus BLEU at that step) of the best step by exact envelope
    sweep, each candidate's score at ``step`` being offset + step * slope."""
    events: list[tuple[float, Candidate, Candidate]] = []  # (x, left winner, right winner)
    stats = zero_stats()
    for cands, cand_slopes, cand_offsets in zip(cand_lists, slopes, offsets):
        if cands:
            hull = _upper_envelope(list(zip(cand_slopes, cand_offsets, cands)))
            stats = add_stats(stats, hull[0][1].stats)
            events.extend((x, prev_c, c) for (_, prev_c), (x, c) in pairwise(hull))
    events.sort(key=lambda e: e[0])

    best: Optional[tuple[float, float]] = None  # (bleu, step)
    left = -INF
    idx = 0
    while True:
        right = events[idx][0] if idx < len(events) else INF
        score = bleu_from_stats(stats).score
        step = _representative(left, right)
        if best is None or score > best[0] + 1e-12 or (
            abs(score - best[0]) <= 1e-12 and abs(step) < abs(best[1])
        ):
            best = (score, step)
        if idx >= len(events):
            break
        x = events[idx][0]
        while idx < len(events) and events[idx][0] == x:
            _, prev_c, new_c = events[idx]
            stats = tuple(
                v - p + n for v, p, n in zip(stats, prev_c.stats, new_c.stats)
            )
            idx += 1
        left = x
    return best[1], best[0]


def _representative(left: float, right: float) -> float:
    if left < 0.0 < right:
        return 0.0
    if left == -INF:
        return right - 1.0
    if right == INF:
        return left + 1.0
    return (left + right) / 2.0


def _upper_envelope(
    lines: list[tuple[float, float, Candidate]]
) -> list[tuple[float, Candidate]]:
    """[(x_from, winning candidate)] for max of a + b*x, left to right."""
    lines.sort(key=lambda l: (l[0], l[1]))
    dedup: list[tuple[float, float, Candidate]] = []
    for b, a, c in lines:
        if dedup and dedup[-1][0] == b:
            if a > dedup[-1][1]:
                dedup[-1] = (b, a, c)
        else:
            dedup.append((b, a, c))
    hull: list[tuple[float, float, float, Candidate]] = []  # (x_from, b, a, cand)
    for b, a, c in dedup:
        while hull:
            x_from, b0, a0, _ = hull[-1]
            x = (a0 - a) / (b - b0)
            if x <= x_from:
                hull.pop()
            else:
                break
        hull.append((x if hull else -INF, b, a, c))
    return [(x_from, c) for x_from, _, _, c in hull]


def select_bleu(pool_lists: Pool, scores: PerCandidate) -> float:
    """Corpus BLEU of each sentence's first best candidate by its ``scores``."""
    total = zero_stats()
    for cands, cand_scores in zip(pool_lists, scores):
        if cands:
            best = max(range(len(cands)), key=cand_scores.__getitem__)
            total = add_stats(total, cands[best].stats)
    return bleu_from_stats(total).score


DecoderHandle = Callable[[Mapping[str, float]], Sequence[Sequence[NBestEntry]]]


def mert_run(
    dev_refs: Sequence[Sequence[str]],
    initial_weights: Mapping[str, float],
    decoder_handle: DecoderHandle,
    max_iters: int = 10,
    epsilon: float = 1e-4,
    seed: int = 0,
) -> MertState:
    """Full MERT loop; the returned state carries the argmax-BLEU weights."""
    if not dev_refs:
        raise ValueError("empty dev set")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    state = MertState(
        weights=dict(initial_weights),
        pool=[dict() for _ in dev_refs],
        best_weights=dict(initial_weights),
    )
    rng = random.Random(seed)
    names = sorted(initial_weights, key=feature_rank)

    for iteration in range(max_iters):
        for s, entries in enumerate(decoder_handle(state.weights)):
            for entry in entries:  # a candidate is built only under a new key
                words = tuple(words_from_tokens(entry.tokens))
                key = (words, tuple(sorted(entry.features.items())))
                if key not in state.pool[s]:
                    state.pool[s][key] = Candidate(tuple(entry.features.get(n, 0.0) for n in names),
                                                   bleu_stats(words, dev_refs[s]))
        pool_lists = state.pool_lists()

        # a direction's (index, component) pairs and slopes; along an axis, a column
        directions = [(((i, 1.0),), [[c.values[i] for c in cands] for cands in pool_lists])
                      for i in range(len(names))]
        for _ in range(N_RANDOM_DIRECTIONS):
            d = [rng.gauss(0.0, 1.0) for _ in names]
            directions.append((tuple(enumerate(d)), _dots(d, pool_lists)))
        offsets = _dots([state.weights[n] for n in names], pool_lists)  # until a move

        current = select_bleu(pool_lists, offsets)
        for _ in range(MAX_PASSES):
            best_move = None
            for components, d_slopes in directions:
                step, score = line_search(pool_lists, d_slopes, offsets)
                if score > current + 1e-12 and (best_move is None or score > best_move[0]):
                    best_move = (score, step, components)
            if best_move is None:
                break
            score, step, components = best_move
            for i, v in components:  # only these: a -0.0 weight elsewhere stays -0.0
                state.weights[names[i]] += step * v
            offsets = _dots([state.weights[n] for n in names], pool_lists)
            current = score

        state.history.append(current)
        if current > state.best_bleu:
            state.best_bleu = current
            state.best_weights = dict(state.weights)
        if iteration > 0 and state.history[-1] - state.history[-2] < epsilon:
            break
    return state


def write_mert_log(path, state: MertState) -> None:
    write_lines(path, [*(f"iteration {i}\tdev_bleu {b:.6f}" for i, b in enumerate(state.history)),
                       f"best\tdev_bleu {state.best_bleu:.6f}"])
