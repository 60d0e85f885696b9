"""Stack/beam phrase-based decoder over morpheme tokens with twin-LM scoring.

Stacks are indexed by the number of covered source WORDS: boundary-aware
phrase options always cover whole words, which keeps a morpheme system's
search directly comparable to a word system's.  Scoring is log-linear; the
word LM contributes only for words completed so far, so pruning uses a rest
cost built from phrase scores plus a context-free morpheme-LM estimate.

nbest() runs a sentence's one search and returns, with its n-best list, the
complete hypotheses it ranked; decode() picks the 1-best from those.  Both
rank by score, then the larger target, so the 1-best heads the n-best list.

Each search fixes one order of feature slots: the options' TM feature
names, ``lm_morph`` and ``lm_word`` for the LMs present, ``word_penalty`` and
``distortion``.  A hypothesis holds its values in that order (0.0 where
untouched); ``features`` and the n-best file list the features its path
added to, read off the path.  Scores are ``math.fsum`` of weights times
values: correctly rounded, hence free of the slot order and of the untouched
slots' zeros, and the same on every Python version.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import groupby, islice
from math import fsum
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .lm import (
    LOG_ZERO, NGramModel, TwinScorerState, compile_target, initial_twin_state, step,
    twin_extend, twin_finalize,
)
from .morpho import (
    ends_word, parse_file, parse_keyed_file, split_token_string, word_spans, words_from_tokens,
    write_lines,
)
from .phrasex import PhraseTable

# untuned starting point; the positive word_penalty counteracts the LMs'
# preference for fewer (or merged) words, MERT moves these freely
DEFAULT_WEIGHTS = {
    "lm_morph": 0.5,
    "lm_word": 0.15,
    "phi_fwd": 0.4,
    "phi_bwd": 0.4,
    "lex_fwd": 0.2,
    "lex_bwd": 0.2,
    "phrase_penalty": -0.2,
    "word_penalty": 0.9,
    "distortion": -0.3,
    "oov": 0.0,
}
MERGE_FEAT_WEIGHT = 0.3  # the start of every merge_feat_i


def merge_feature_names(n_extras: int) -> tuple[str, ...]:
    return tuple(f"merge_feat_{i + 1}" for i in range(n_extras))


FEATURE_ORDER = (*DEFAULT_WEIGHTS, *merge_feature_names(2))
# the features of PhraseEntry.scores(), in its order; merge_feat_i follow
TM_SCORES = ("phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd", "phrase_penalty")

# The cheap key of an offer (see ``search``) adds its terms left to right:
# the parent's score, the jump term w*jump, the rest cost, the option's TM
# score, and each LM's w*delta.  The exact key is fsum(w_i * v_i) + rest,
# where v_i is the parent's value plus the option's at slot i.  With u = 2**-53
# and M the sum of the terms' magnitudes (the parent's sum of |w_i * p_i|,
# the option's of |w_i * t_i|, |w*jump|, |rest| and |w*delta| per LM), both
# keys are within a few u*M of the real-number key:
#   - exact: each slot sum, each product, the fsum and the final "+ rest"
#     round once, each by at most u times a part of M: <= 4u*M;
#   - cheap: the parent's score and the TM score are fsums of rounded
#     products (<= 2u times their parts of M), the jump and LM products round
#     once, and its at most five additions each round by <= u*M: <= 7u*M.
# So the keys differ by at most about 11u*M < 1.3e-15*M.  SLACK is ~10**6
# times that, which also covers second-order terms and the rounding of M and
# of the test itself.  Underflow adds at most 2**-1075 per rounding, a few
# dozen of them; each option's magnitude carries _MAG_FLOOR so that
# SLACK*M > 2**-930 covers it as well.
SLACK = 1e-9
_MAG_FLOOR = 2.0 ** -900


def default_weights(
    n_extras: int = 0, with_morph_lm: bool = True, with_word_lm: bool = True
) -> dict[str, float]:
    absent = {"lm_morph": not with_morph_lm, "lm_word": not with_word_lm}
    weights = {n: w for n, w in DEFAULT_WEIGHTS.items() if not absent.get(n)}
    weights.update(dict.fromkeys(merge_feature_names(n_extras), MERGE_FEAT_WEIGHT))
    return weights


def feature_rank(name: str) -> int:
    """A feature's place in a weights file and in MERT's direction order:
    its index in FEATURE_ORDER, and after all of those when not listed."""
    return FEATURE_ORDER.index(name) if name in FEATURE_ORDER else len(FEATURE_ORDER)


def safe_ln(x: float) -> float:
    return math.log(x) if x > 0.0 else LOG_ZERO


@dataclass(frozen=True)
class TranslationOption:
    start: int  # source word span [start, end)
    end: int
    target: tuple[str, ...]
    tm_features: tuple[tuple[str, float], ...]  # log-domain, no LM, no distortion
    n_words: int  # word-final tokens in the target
    mask: int


@dataclass(slots=True)
class Hypothesis:
    coverage: int  # bitmask over source word indices
    last_end: int  # word index one past the last applied span
    state: TwinScorerState
    names: tuple[str, ...]  # the search's feature slots, in slot order
    values: list[float]  # feature values in slot order, 0.0 where untouched
    score: float
    parent: Optional["Hypothesis"]
    option: Optional[TranslationOption]

    @property
    def features(self) -> dict[str, float]:
        """The features the path added to, by name, in slot order: its
        options' TM features, the LMs present (every hypothesis ``search``
        returns is finalized; the root, which nothing reads, lists them at
        0.0), ``word_penalty`` once the path is non-empty, and ``distortion``
        once it jumped (jumps are whole numbers, added exactly)."""
        added = {name for opt in _applied(self) for name, _ in opt.tm_features}
        added.update(("lm_morph", "lm_word"))
        if self.option is not None:
            added.add("word_penalty")
        return {name: value for name, value in zip(self.names, self.values)
                if name in added or name == "distortion" and value}


def _span_mask(start: int, end: int) -> int:
    return ((1 << (end - start)) - 1) << start


def lookup_keys(source: tuple[str, ...], table: PhraseTable) -> Iterator[tuple[int, int, tuple]]:
    """(w1, w2, key) for each whole-word span [w1, w2) of ``source`` of at
    most ``table.max_span`` words, and each one-word span, by w1 then w2.
    The key is the span in the table's view of the source: its token
    strings, or their bare surfaces for a word table."""
    spans = word_spans(source)
    tokens = source
    if table.granularity == "word":
        tokens = tuple(split_token_string(t)[0] for t in source)
    for w1 in range(len(spans)):
        for w2 in range(w1 + 1, min(w1 + max(table.max_span, 1), len(spans)) + 1):
            yield w1, w2, tokens[spans[w1][0] : spans[w2 - 1][1] + 1]


def restrict_table(table: PhraseTable, sources: Iterable[tuple[str, ...]]) -> PhraseTable:
    """``table`` cut to the sources ``build_options`` can look up in
    ``sources``.  It keeps the whole table's ``max_span`` and ``n_extras``:
    the search's span limit and the default weights come from them."""
    keys = {key for source in sources for _, _, key in lookup_keys(source, table)}
    by_source = table.by_source
    return PhraseTable({key: by_source[key] for key in sorted(keys) if key in by_source},
                       table.granularity, table.max_span, table.n_extras)


def build_options(source: tuple[str, ...], table: PhraseTable) -> list[TranslationOption]:
    """Phrase options over the spans of ``lookup_keys``, plus OOV pass-through.

    A source word no option covers is copied through as its own word with a
    unit oov feature and neutral translation scores.
    """
    options: list[TranslationOption] = []
    covered = set()
    words = []  # each word's one-word key, its pass-through target
    # no entry has more extras than the table's n_extras, so zip names them all
    names = (*TM_SCORES, *merge_feature_names(table.n_extras))
    for w1, w2, src in lookup_keys(source, table):
        if w2 == w1 + 1:
            words.append(src)
        for entry in table.by_source.get(src, ()):
            options.append(TranslationOption(
                start=w1, end=w2, target=entry.target,
                tm_features=tuple(zip(names, map(safe_ln, entry.scores()))),
                n_words=sum(map(ends_word, entry.target)),
                mask=_span_mask(w1, w2),
            ))
            covered.update(range(w1, w2))
    for w, tgt in enumerate(words):
        if w in covered:
            continue
        options.append(TranslationOption(
            start=w, end=w + 1, target=tgt,
            tm_features=(("phrase_penalty", 1.0), ("oov", 1.0)),
            n_words=sum(map(ends_word, tgt)),
            mask=_span_mask(w, w + 1),
        ))
    return options


def _future_costs(
    options: Sequence[TranslationOption],
    n_words: int,
    weights: Mapping[str, float],
    lm_m: Optional[NGramModel],
) -> list[list[float]]:
    """Best achievable score per word span: phrase features, word penalty and a
    context-free morpheme-LM estimate; the word LM and distortion stay out."""
    w_lm = weights.get("lm_morph", 0.0)
    w_wp = weights.get("word_penalty", 0.0)
    best = [[-math.inf] * (n_words + 1) for _ in range(n_words + 1)]
    empty = lm_m.context_id(()) if lm_m is not None else 0
    for opt in options:
        score = fsum(weights.get(k, 0.0) * v for k, v in opt.tm_features)
        score += w_wp * opt.n_words
        if lm_m is not None and w_lm != 0.0:
            ctx = empty
            est = 0.0
            for tok in opt.target:
                lp, ctx = step(lm_m, ctx, tok)
                est += lp
            score += w_lm * est
        if score > best[opt.start][opt.end]:
            best[opt.start][opt.end] = score
    for width in range(2, n_words + 1):
        for i in range(0, n_words - width + 1):
            j = i + width
            for k in range(i + 1, j):
                combined = best[i][k] + best[k][j]
                if combined > best[i][j]:
                    best[i][j] = combined
    return best


def _rest(coverage: int, n_words: int, future: list[list[float]], memo: dict) -> float:
    cached = memo.get(coverage)
    if cached is not None:
        return cached
    total = 0.0
    i = 0
    while i < n_words:
        if coverage >> i & 1:
            i += 1
            continue
        j = i
        while j < n_words and not (coverage >> j & 1):
            j += 1
        total += future[i][j]
        i = j
    memo[coverage] = total
    return total


def search(
    source: tuple[str, ...],
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int] = 100,
    distortion_limit: int = 6,
) -> list[Hypothesis]:
    """All finalized complete hypotheses that survived the beam.

    Each option gets one template in this search's slot order (its TM values
    and word count, 0.0 elsewhere).  A child's values are its parent's plus
    the template, with the jump and the LM deltas added at their slots.

    A stack offered more than ``beam_size`` hypotheses keeps its best
    ``beam_size`` by score + rest cost (a stable sort, so ties keep arrival
    order).  Offers that cannot make that cut are rejected: each stack keeps
    a min-heap of the best ``beam_size`` keys it was given, and an offer is
    tested against a full heap's minimum.  A full heap holds the keys of
    ``beam_size`` children already offered to the stack, all >= its
    minimum, so the stable sort would cut a child whose key is strictly
    below it; ties are kept.  The surviving stacks, their order and every
    score are exactly those of the unrejected search.

    Before a child's values are built, the offer is tested on a cheap key:
    the parent's score, the jump term, the rest cost and the option's
    weighted TM score (computed once per search).  Its roundings and the
    exact ``fsum`` key's differ by at most about 11 units in the last place
    of M, the sum of the terms' magnitudes (derived at ``SLACK``), and
    ``SLACK * M`` is about 10**6 times that, so an offer whose cheap key is
    more than ``SLACK * M`` below the minimum is one the exact test rejects.
      - Before its LM queries, by the cheap key alone.  LM log-probs are
        <= 0, so with every present LM weight >= 0 it bounds the key with
        the LM deltas; with a negative LM weight this test is off.
      - After them, for any weight signs, by the cheap key plus each LM's
        weighted delta.
    Only a child that passes both gets its values and exact score, and it
    is built by ``_extend`` only if that exact key is not below the minimum.
    A non-finite term makes the cheap tests NaN or never true, so the exact
    test decides.  An offer within ``SLACK * M`` of the minimum may take its
    LM lookup before its exact key rejects it.

    Each distinct target is numbered and compiled (``lm.compile_target``)
    once per call, so ``twin_extend`` never splits its tokens again.  Each
    twin_extend question is asked once per call (memoized per (state,
    target id)), and each LM question once per model (``lm.step`` keeps its
    answer in the model's transition table for the model's lifetime).
    """
    options = build_options(source, table)
    n_words = max((opt.end for opt in options), default=0)  # OOV pass-through covers every word
    names = (*dict.fromkeys(name for opt in options for name, _ in opt.tm_features),
             *(name for name, model in (("lm_morph", lm_m), ("lm_word", lm_w))
               if model is not None),
             "word_penalty", "distortion")
    slot = {name: i for i, name in enumerate(names)}
    wvec = [weights.get(name, 0.0) for name in names]
    morph_slot = slot.get("lm_morph")
    word_slot = slot.get("lm_word")
    jump_slot = slot["distortion"]
    w_morph = 0.0 if morph_slot is None else wvec[morph_slot]
    w_word = 0.0 if word_slot is None else wvec[word_slot]
    # per start, one group per span in option order: (mask, width, members);
    # per member: (option, target id, compiled target, template, weighted TM
    # score, its magnitude)
    by_start: dict[int, list[tuple[int, int, list[tuple]]]] = {}
    targets: dict[tuple[str, ...], int] = {}
    compiled = []  # by target id
    for (start, end), span_options in groupby(options, key=lambda o: (o.start, o.end)):
        members = []
        for opt in span_options:
            template = [0.0] * len(names)
            for name, value in opt.tm_features:
                template[slot[name]] = value
            template[slot["word_penalty"]] = float(opt.n_words)
            target_id = targets.setdefault(opt.target, len(targets))
            if target_id == len(compiled):
                compiled.append(compile_target(opt.target))
            members.append((opt, target_id, compiled[target_id], template,
                            *_tm_score(wvec, template)))
        by_start.setdefault(start, []).append((_span_mask(start, end), end - start, members))
    future = _future_costs(options, n_words, weights, lm_m)
    rest_memo: dict[int, float] = {}
    reject = beam_size is not None and beam_size > 0
    reject_pre_lm = reject and all(
        weights.get(name, 0.0) >= 0.0
        for name, model in (("lm_morph", lm_m), ("lm_word", lm_w)) if model is not None
    )

    stacks: list[list[Hypothesis]] = [[] for _ in range(n_words + 1)]
    stacks[0].append(Hypothesis(0, 0, initial_twin_state(lm_m, lm_w), names,
                                [0.0] * len(names), 0.0, None, None))
    offered = [0] * (n_words + 1)  # hypotheses offered per stack, rejected ones included
    offered[0] = 1
    best_keys: list[list[float]] = [[] for _ in range(n_words + 1)]  # min-heaps
    # this search's memo: twin_extend results (with the weighted LM term and
    # its magnitude) per state and target id
    lm_scores: dict[TwinScorerState, dict[int, tuple]] = {}

    for level in range(n_words):
        stack = stacks[level]
        if beam_size is not None and offered[level] > beam_size:
            stack.sort(
                key=lambda h: h.score + _rest(h.coverage, n_words, future, rest_memo),
                reverse=True,
            )
            del stack[beam_size:]
        for hyp in stack:
            coverage = hyp.coverage
            parent_values = hyp.values
            parent_score = hyp.score
            parent_mag = _magnitude(wvec, parent_values)
            by_target = lm_scores.setdefault(hyp.state, {})
            first_free = ((coverage + 1) & ~coverage).bit_length() - 1  # lowest clear bit
            for start in range(first_free, min(first_free + distortion_limit, n_words - 1) + 1):
                if coverage >> start & 1:
                    continue
                jump = abs(start - hyp.last_end)
                jump_term = wvec[jump_slot] * jump
                for mask, width, members in by_start.get(start, ()):
                    if mask & coverage:
                        continue
                    target = level + width
                    offered[target] += len(members)
                    if reject:
                        rest = _rest(coverage | mask, n_words, future, rest_memo)
                        heap = best_keys[target]
                        base = parent_score + jump_term + rest
                        base_mag = parent_mag + abs(jump_term) + abs(rest)
                    for opt, target_id, phrase, template, tm, mag in members:
                        full = reject and len(heap) == beam_size
                        if full:
                            lowest = heap[0]
                            key = base + tm
                            key_mag = base_mag + mag
                            if reject_pre_lm and key + SLACK * key_mag < lowest:
                                continue
                        scored = by_target.get(target_id)
                        if scored is None:
                            state, morph_delta, word_delta = twin_extend(
                                hyp.state, phrase, lm_m, lm_w)
                            morph_term = w_morph * morph_delta
                            word_term = w_word * word_delta
                            scored = by_target[target_id] = (
                                state, morph_delta, word_delta, morph_term + word_term,
                                abs(morph_term) + abs(word_term))
                        state, morph_delta, word_delta, lm_term, lm_mag = scored
                        if full and key + lm_term + SLACK * (key_mag + lm_mag) < lowest:
                            continue
                        values = list(map(add, parent_values, template))
                        if jump:
                            values[jump_slot] += jump
                        if morph_slot is not None:
                            values[morph_slot] += morph_delta
                        if word_slot is not None:
                            values[word_slot] += word_delta
                        score = fsum(map(mul, wvec, values))
                        if full:
                            if score + rest < lowest:
                                continue
                            heapq.heappushpop(heap, score + rest)
                        elif reject:
                            heapq.heappush(heap, score + rest)
                        stacks[target].append(_extend(hyp, opt, state, values, score))

    complete = stacks[n_words]
    if beam_size is not None and offered[n_words] > beam_size:
        complete.sort(key=lambda h: h.score, reverse=True)
        del complete[beam_size:]
    return [_finalize(h, lm_m, lm_w, wvec) for h in complete]


def _tm_score(wvec: Sequence[float], template: Sequence[float]) -> tuple[float, float]:
    """An option's weighted TM score, an exact ``fsum``, and its magnitude
    for the cheap key (see ``SLACK``)."""
    return fsum(map(mul, wvec, template)), _magnitude(wvec, template) + _MAG_FLOOR


def _magnitude(wvec: Sequence[float], values: Sequence[float]) -> float:
    """The sum of the |w_i * v_i|.  A plain sum: its rounding is far below
    ``SLACK``, and where the terms are huge it overflows to inf, which only
    makes the cheap test keep more offers, rather than raise as ``fsum``
    would."""
    return sum(map(abs, map(mul, wvec, values)))


def _extend(
    hyp: Hypothesis,
    opt: TranslationOption,
    state: TwinScorerState,
    values: list[float],
    score: float,
) -> Hypothesis:
    """``hyp`` extended by ``opt``; ``search`` works out the child's twin
    state, values (LM deltas included) and score."""
    return Hypothesis(hyp.coverage | opt.mask, opt.end, state, hyp.names, values, score, hyp, opt)


def _finalize(
    hyp: Hypothesis,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    wvec: Sequence[float],
) -> Hypothesis:
    """``hyp`` with the end-of-sentence LM deltas added, scored by ``wvec``,
    the weights in slot order."""
    names = hyp.names
    values = hyp.values.copy()
    deltas = dict(zip(("lm_morph", "lm_word"), twin_finalize(hyp.state, lm_m, lm_w)))
    if hyp.state.pending:  # the flushed tail counts as a completed word
        deltas["word_penalty"] = 1
    for i, name in enumerate(names):
        if name in deltas:
            values[i] += deltas[name]
    return Hypothesis(
        hyp.coverage, hyp.last_end, hyp.state, names, values,
        fsum(map(mul, wvec, values)), hyp.parent, hyp.option,
    )


def _applied(hyp: Hypothesis) -> Iterator[TranslationOption]:
    """The options applied on ``hyp``'s path, root first."""
    options = []
    while hyp.option is not None:
        options.append(hyp.option)
        hyp = hyp.parent
    return reversed(options)


def target_tokens(hyp: Hypothesis) -> tuple[str, ...]:
    return tuple(tok for opt in _applied(hyp) for tok in opt.target)


def trace(hyp: Hypothesis, source: tuple[str, ...]) -> list[tuple[int, int, tuple[str, ...], tuple[str, ...]]]:
    """(src word start, end exclusive, src words, out words) per applied phrase."""
    src_words = words_from_tokens(source)
    return [(o.start, o.end, tuple(src_words[o.start : o.end]),
             tuple(words_from_tokens(o.target))) for o in _applied(hyp)]


def _rank(hyp: Hypothesis) -> tuple[float, tuple[str, ...]]:
    """The one ranking of complete hypotheses: by score, ties by the larger target."""
    return hyp.score, target_tokens(hyp)


def decode(complete: Sequence[Hypothesis]) -> Hypothesis:
    """The complete hypothesis that ``_rank`` puts first: the head of ``nbest``'s
    list.  Only the top-score hypotheses' targets are built and compared."""
    top = max(hyp.score for hyp in complete)
    return max((hyp for hyp in complete if hyp.score == top), key=target_tokens)


@dataclass(frozen=True)
class NBestEntry:
    tokens: tuple[str, ...]
    features: dict[str, float]
    score: float


def nbest(
    source: tuple[str, ...],
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int] = 100,
    distortion_limit: int = 6,
    n: int = 100,
) -> tuple[list[NBestEntry], list[Hypothesis]]:
    """The sentence's one search: its top-n distinct target token strings by
    ``_rank``, and the complete hypotheses they were ranked from, for ``decode``."""
    complete = search(source, table, lm_m, lm_w, weights, beam_size, distortion_limit)
    ranked = sorted(zip(map(_rank, complete), complete), key=itemgetter(0), reverse=True)
    best: dict[tuple[str, ...], Hypothesis] = {}
    for (_, tokens), hyp in ranked:  # a stable sort: the first of equal keys stays first
        best.setdefault(tokens, hyp)
    return [NBestEntry(tokens, dict(sorted(hyp.features.items())), hyp.score)
            for tokens, hyp in islice(best.items(), n)], complete


# --- n-best file format: sent_id ||| tokens ||| name=value ... ||| score -----


def write_nbest(path, lists: Sequence[Sequence[NBestEntry]]) -> None:
    write_lines(path, (
        f"{sent_id} ||| {' '.join(e.tokens)} ||| "
        f"{' '.join(f'{k}={v!r}' for k, v in sorted(e.features.items()))} ||| {e.score!r}"
        for sent_id, entries in enumerate(lists) for e in entries))


def read_nbest(path) -> list[list[NBestEntry]]:
    """Inverse of ``write_nbest``.  No code in the package calls it; it is
    kept as the tested reader of the n-best artifact."""
    lists: list[list[NBestEntry]] = []
    for parsed in parse_file(path, _parse_nbest_line):
        if parsed is not None:
            sent_id, entry = parsed
            while len(lists) <= sent_id:
                lists.append([])
            lists[sent_id].append(entry)
    return lists


def _parse_nbest_line(line: str) -> Optional[tuple[int, NBestEntry]]:
    if not line.strip():
        return None
    fields = [p.strip() for p in line.split("|||")]
    if len(fields) != 4:
        raise ValueError(f"expected 4 '|||'-separated fields, got {len(fields)}: "
                         f"{line.rstrip()!r}")
    sent_id_s, tokens_s, feats_s, score_s = fields
    if not sent_id_s.isdecimal():
        raise ValueError(f"bad sentence id: {sent_id_s!r}")
    feats = {}
    for piece in feats_s.split():
        name, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"expected name=value, got {piece!r}")
        feats[name] = float(value)
    return int(sent_id_s), NBestEntry(tuple(tokens_s.split()), feats, float(score_s))


# --- weights file: name<TAB>value ---------------------------------------------


def write_weights(path, weights: Mapping[str, float]) -> None:
    write_lines(path, (f"{name}\t{weights[name]!r}"
                       for name in sorted(weights, key=feature_rank)))


def read_weights(path) -> dict[str, float]:
    """A weights file; a line that repeats an earlier line's name is rejected."""
    return parse_keyed_file(path, _parse_weight_line, lambda name: f"weight {name!r}")


def _parse_weight_line(line: str) -> Optional[tuple[str, float]]:
    if not line.strip():
        return None
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected name<TAB>value, got {line.rstrip()!r}")
    value = float(fields[1])
    if not math.isfinite(value):
        raise ValueError(f"weight {fields[0]!r} must be finite, got {fields[1]!r}")
    return fields[0], value
