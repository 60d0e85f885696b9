"""Stack/beam phrase-based decoder over morpheme tokens with twin-LM scoring.

Stacks are indexed by the number of covered source WORDS: boundary-aware
phrase options always cover whole words, which keeps a morpheme system's
search directly comparable to a word system's.  Scoring is log-linear; the
word LM contributes only for words completed so far, so pruning uses a rest
cost built from phrase scores plus a context-free morpheme-LM estimate.

nbest() and decode() share one search per sentence through a one-entry memo
of the last search, so the usual n-best-then-1-best pair costs one search.

A hypothesis carries its features as a flat vector: a layout (feature names
in the order a dict of them would have been filled) and the values in that
order, so every score is the same sum of the same products as ``dot`` over
that dict.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .lm import (
    LOG_ZERO, LMMemo, NGramModel, TwinScorerState, floored_logprob,
    initial_twin_state, twin_extend, twin_finalize,
)
from .morpho import (
    MorphSentence, parse_file, split_token_string, word_spans, words_from_tokens,
)
from .phrasex import PhraseTable

FEATURE_ORDER = (
    "lm_morph", "lm_word", "phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd",
    "phrase_penalty", "word_penalty", "distortion", "oov",
    "merge_feat_1", "merge_feat_2",
)

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
    "merge_feat_1": 0.3,
    "merge_feat_2": 0.3,
}


def default_weights(
    n_extras: int = 0, with_morph_lm: bool = True, with_word_lm: bool = True
) -> dict[str, float]:
    names = ["phi_fwd", "phi_bwd", "lex_fwd", "lex_bwd", "phrase_penalty",
             "word_penalty", "distortion", "oov"]
    if with_morph_lm:
        names.insert(0, "lm_morph")
    if with_word_lm:
        names.insert(1 if with_morph_lm else 0, "lm_word")
    names.extend(f"merge_feat_{i + 1}" for i in range(n_extras))
    return {n: DEFAULT_WEIGHTS[n] for n in names}


def dot(weights: Mapping[str, float], features: Mapping[str, float]) -> float:
    return sum(weights.get(k, 0.0) * v for k, v in features.items())


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
    n_covered: int
    last_end: int  # word index one past the last applied span
    state: TwinScorerState
    layout: tuple[str, ...]  # feature names, in the order they were first added
    values: list[float]  # feature values, in layout order
    score: float
    parent: Optional["Hypothesis"]
    option: Optional[TranslationOption]

    @property
    def features(self) -> dict[str, float]:
        """The feature values by name, in layout order."""
        return dict(zip(self.layout, self.values))


def render_tokens(sentence: MorphSentence, granularity: str) -> tuple[str, ...]:
    """Table/LM view of the source: serialized morphs, or bare surfaces for word systems."""
    if granularity == "word":
        return tuple(t.surface for t in sentence.tokens)
    return tuple(t.serialize() for t in sentence.tokens)


def _span_mask(start: int, end: int) -> int:
    return ((1 << (end - start)) - 1) << start


def build_options(
    source: MorphSentence, table: PhraseTable, max_span: Optional[int] = None
) -> list[TranslationOption]:
    """Phrase options over whole-word source spans, plus OOV pass-through.

    A source word no option covers is copied through as its own word with a
    unit oov feature and neutral translation scores.
    """
    tokens = render_tokens(source, table.granularity)
    spans = word_spans(source)
    n_words = len(spans)
    limit = max_span or (table.max_span if table.max_span > 0 else n_words)
    options: list[TranslationOption] = []
    covered = set()
    for w1 in range(n_words):
        for w2 in range(w1 + 1, min(w1 + limit, n_words) + 1):
            src = tokens[spans[w1].start : spans[w2 - 1].end + 1]
            for entry in table.by_source().get(src, ()):
                feats = [
                    ("phi_fwd", safe_ln(entry.phi_fwd)),
                    ("phi_bwd", safe_ln(entry.phi_bwd)),
                    ("lex_fwd", safe_ln(entry.lex_fwd)),
                    ("lex_bwd", safe_ln(entry.lex_bwd)),
                    ("phrase_penalty", safe_ln(entry.penalty)),
                ]
                feats.extend(
                    (f"merge_feat_{i + 1}", safe_ln(x))
                    for i, x in enumerate(entry.extras)
                )
                options.append(TranslationOption(
                    start=w1, end=w2, target=entry.target,
                    tm_features=tuple(feats),
                    n_words=_count_finals(entry.target),
                    mask=_span_mask(w1, w2),
                ))
                covered.update(range(w1, w2))
    for w in range(n_words):
        if w in covered:
            continue
        span = spans[w]
        tgt = tokens[span.start : span.end + 1]
        options.append(TranslationOption(
            start=w, end=w + 1, target=tgt,
            tm_features=(("phrase_penalty", 1.0), ("oov", 1.0)),
            n_words=_count_finals(tgt),
            mask=_span_mask(w, w + 1),
        ))
    return options


def _count_finals(tokens: Iterable[str]) -> int:
    return sum(1 for t in tokens if split_token_string(t)[1])


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
    for opt in options:
        score = sum(weights.get(k, 0.0) * v for k, v in opt.tm_features)
        score += w_wp * opt.n_words
        if lm_m is not None and w_lm != 0.0:
            ctx: tuple[str, ...] = ()
            est = 0.0
            for tok in opt.target:
                est += floored_logprob(lm_m, tok, ctx)
                ctx = (ctx + (tok,))[-(lm_m.order - 1):] if lm_m.order > 1 else ()
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
    source: MorphSentence,
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int] = 100,
    distortion_limit: int = 6,
    max_span: Optional[int] = None,
) -> list[Hypothesis]:
    """All finalized complete hypotheses that survived the beam.

    A stack offered more than ``beam_size`` hypotheses keeps its best
    ``beam_size`` by score + rest cost (a stable sort, so ties keep arrival
    order).  Offers that cannot make that cut are rejected: each stack keeps
    a min-heap of the best ``beam_size`` keys it was given, and an offer is
    tested against a full heap's minimum twice.
      - Before its LM queries, by its key with zero LM deltas.  LM log-probs
        are <= 0, so this bounds the real key only when every present LM
        weight is >= 0; with a negative LM weight this test is off.
      - After them, for any weight signs, by its real key: the memoized
        twin_extend deltas are added and the child is scored as ``_extend``
        scores it, but only a child that passes is built.
    A full heap holds the keys of ``beam_size`` children already offered to
    the stack, all >= its minimum, so the stable sort would cut a child
    whose key is strictly below it; ties are kept.  The surviving stacks,
    their order and every score are therefore exactly those of the
    unrejected search.

    Each distinct LM question is asked once per call: twin_extend results
    are memoized per (state, target), and LM log-probs per (context, token).
    How options extend a feature layout (``_Move``) is worked out once per
    (layout, TM feature names, jump or not), and each option's template
    once per (layout, option, jump or not).  All memos are exact and are
    dropped when the search returns.
    """
    n_words = len(word_spans(source))
    options = build_options(source, table, max_span)
    # per start: (option, its first cell in a layout's row of steps, mask,
    # width, target id); a row holds two (move, template) steps per option,
    # without and with a jump
    by_start: dict[int, list[tuple[TranslationOption, int, int, int, int]]] = {}
    targets: dict[tuple[str, ...], int] = {}
    for i, opt in enumerate(options):
        by_start.setdefault(opt.start, []).append((
            opt, 2 * i, opt.mask, opt.end - opt.start,
            targets.setdefault(opt.target, len(targets))))
    future = _future_costs(options, n_words, weights, lm_m)
    rest_memo: dict[int, float] = {}
    reject = beam_size is not None and beam_size > 0
    reject_pre_lm = reject and all(
        weights.get(name, 0.0) >= 0.0
        for name, model in (("lm_morph", lm_m), ("lm_word", lm_w)) if model is not None
    )

    initial = Hypothesis(
        coverage=0, n_covered=0, last_end=0,
        state=initial_twin_state(lm_m, lm_w),
        layout=(), values=[], score=0.0, parent=None, option=None,
    )
    stacks: list[list[Hypothesis]] = [[] for _ in range(n_words + 1)]
    stacks[0].append(initial)
    offered = [0] * (n_words + 1)  # hypotheses offered per stack, rejected ones included
    offered[0] = 1
    best_keys: list[list[float]] = [[] for _ in range(n_words + 1)]  # min-heaps
    # this search's memos: twin_extend results per state and target id, and
    # floored log-probs (with the next context) per LM and (context, token)
    lm_scores: dict[TwinScorerState, dict[int, tuple]] = {}
    memo_m: LMMemo = {}
    memo_w: LMMemo = {}
    # each layout's row of steps, filled as options use it, and the moves
    moves: dict[tuple, _Move] = {}
    steps: dict[tuple[str, ...], list[Optional[tuple[_Move, list[float]]]]] = {}
    extend = _extend  # looked up per search, so a wrapper set on the module is used

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
            by_target = lm_scores.setdefault(hyp.state, {})
            row = steps.get(hyp.layout)
            if row is None:
                row = steps[hyp.layout] = [None] * (2 * len(options))
            first_free = _first_uncovered(coverage, n_words)
            for start in range(first_free, min(first_free + distortion_limit, n_words - 1) + 1):
                if coverage >> start & 1:
                    continue
                jump = abs(start - hyp.last_end)
                jumped = 1 if jump else 0
                for opt, cell, mask, width, target_id in by_start.get(start, ()):
                    if mask & coverage:
                        continue
                    target = level + width
                    offered[target] += 1
                    step = row[cell + jumped]
                    if step is None:
                        names = tuple(name for name, _ in opt.tm_features)
                        key = (hyp.layout, names, jumped)
                        move = moves.get(key)
                        if move is None:
                            move = moves[key] = _move(hyp.layout, names, jump,
                                                      weights, lm_m, lm_w)
                        step = row[cell + jumped] = (move, _template(move, opt))
                    move, template = step
                    # the child's values and score, as _extend works them out
                    pad = move.pad
                    wvec = move.weights
                    values = list(map(add, parent_values + pad if pad else parent_values,
                                      template))
                    if jump:
                        values[move.jump_slot] += jump
                    if reject:
                        rest = _rest(coverage | mask, n_words, future, rest_memo)
                        heap = best_keys[target]
                        full = len(heap) == beam_size
                        if (full and reject_pre_lm
                                and sum(map(mul, wvec, values)) + rest < heap[0]):
                            continue
                    scored = by_target.get(target_id)
                    if scored is None:
                        scored = by_target[target_id] = twin_extend(
                            hyp.state, opt.target, lm_m, lm_w, memo_m, memo_w)
                    state, morph_delta, word_delta = scored
                    slot = move.morph_slot
                    if slot is not None:
                        values[slot] += morph_delta
                    slot = move.word_slot
                    if slot is not None:
                        values[slot] += word_delta
                    score = sum(map(mul, wvec, values))
                    if reject:
                        if full:
                            if score + rest < heap[0]:
                                continue
                            heapq.heappushpop(heap, score + rest)
                        else:
                            heapq.heappush(heap, score + rest)
                    stacks[target].append(
                        extend(hyp, opt, lm_m, lm_w, weights, state, move, values, score))

    complete = stacks[n_words]
    if beam_size is not None and offered[n_words] > beam_size:
        complete.sort(key=lambda h: h.score, reverse=True)
        del complete[beam_size:]
    return [_finalize(h, lm_m, lm_w, weights) for h in complete]


def _first_uncovered(coverage: int, n_words: int) -> int:
    for i in range(n_words):
        if not (coverage >> i & 1):
            return i
    return n_words


class _Move(NamedTuple):
    """How options with one list of TM feature names extend hypotheses of one
    layout, with or without a jump.

    The child's values are the parent's, padded with 0.0 for the names the
    child adds, plus the option's template (``_template``): its TM values
    and word count at their slots, 0.0 elsewhere.  The jump and the LM
    deltas are then added at their slots.  Each slot gets exactly the one
    addition the feature dict got, and ``x + 0.0 == x`` for every value that
    occurs (they start as ``0.0 + v``, so none is -0.0), so the values are
    equal bit for bit to the dict's.
    """

    layout: tuple[str, ...]  # the child's
    pad: list[float]  # zeros for the names the child adds to the parent's layout
    weights: list[float]  # the weight of each name in the child's layout
    tm_slots: tuple[int, ...]  # of the option's TM features, in their order
    word_penalty_slot: int
    morph_slot: Optional[int]  # lm_morph, if there is a morpheme LM
    word_slot: Optional[int]  # lm_word, if there is a word LM
    jump_slot: Optional[int]  # distortion, if the option jumps


def _move(
    layout: tuple[str, ...],
    names: tuple[str, ...],
    jump: int,
    weights: Mapping[str, float],
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
) -> _Move:
    """The ``_Move`` for options with TM feature ``names`` after a hypothesis
    of ``layout``.  The names the layout lacks are appended in the order a
    feature dict would insert them."""
    added = list(names)
    if lm_m is not None:
        added.append("lm_morph")
    if lm_w is not None:
        added.append("lm_word")
    added.append("word_penalty")
    if jump:
        added.append("distortion")
    child = (*layout, *(name for name in added if name not in layout))
    index = {name: i for i, name in enumerate(child)}
    return _Move(
        child, [0.0] * (len(child) - len(layout)), [weights.get(n, 0.0) for n in child],
        tuple(index[n] for n in names), index["word_penalty"],
        index["lm_morph"] if lm_m is not None else None,
        index["lm_word"] if lm_w is not None else None,
        index["distortion"] if jump else None,
    )


def _template(move: _Move, opt: TranslationOption) -> list[float]:
    """``opt``'s TM values and word count at their slots of ``move``'s
    layout, 0.0 elsewhere."""
    template = [0.0] * len(move.layout)
    for i, (_, value) in zip(move.tm_slots, opt.tm_features):
        template[i] = value
    template[move.word_penalty_slot] = float(opt.n_words)
    return template


def _extend(
    hyp: Hypothesis,
    opt: TranslationOption,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    state: Optional[TwinScorerState] = None,
    move: Optional[_Move] = None,
    values: Optional[list[float]] = None,
    score: Optional[float] = None,
) -> Hypothesis:
    """``hyp`` extended by ``opt``.  ``search`` passes the child's twin
    state, the option's ``_Move`` for ``hyp``'s layout, the child's values
    (LM deltas included) and its score; called with none of them, this
    works them out the same way."""
    if move is None:
        state, morph_delta, word_delta = twin_extend(hyp.state, opt.target, lm_m, lm_w)
        jump = abs(opt.start - hyp.last_end)
        move = _move(hyp.layout, tuple(name for name, _ in opt.tm_features), jump,
                     weights, lm_m, lm_w)
        values = list(map(add, hyp.values + move.pad, _template(move, opt)))
        if jump:
            values[move.jump_slot] += jump
        if move.morph_slot is not None:
            values[move.morph_slot] += morph_delta
        if move.word_slot is not None:
            values[move.word_slot] += word_delta
        score = sum(map(mul, move.weights, values))
    return Hypothesis(
        hyp.coverage | opt.mask, hyp.n_covered + (opt.end - opt.start), opt.end,
        state, move.layout, values, score, hyp, opt,
    )


def _finalize(
    hyp: Hypothesis,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
) -> Hypothesis:
    morph_delta, word_delta = twin_finalize(hyp.state, lm_m, lm_w)
    feats = hyp.features
    if lm_m is not None:
        feats["lm_morph"] = feats.get("lm_morph", 0.0) + morph_delta
    if lm_w is not None:
        feats["lm_word"] = feats.get("lm_word", 0.0) + word_delta
    if hyp.state.pending:  # flushed tail counts as a completed word
        feats["word_penalty"] = feats.get("word_penalty", 0.0) + 1
    return Hypothesis(
        coverage=hyp.coverage, n_covered=hyp.n_covered, last_end=hyp.last_end,
        state=hyp.state, layout=tuple(feats), values=list(feats.values()),
        score=dot(weights, feats), parent=hyp.parent, option=hyp.option,
    )


def target_tokens(hyp: Hypothesis) -> tuple[str, ...]:
    parts: list[tuple[str, ...]] = []
    node: Optional[Hypothesis] = hyp
    while node is not None:
        if node.option is not None:
            parts.append(node.option.target)
        node = node.parent
    out: list[str] = []
    for part in reversed(parts):
        out.extend(part)
    return tuple(out)


def trace(hyp: Hypothesis, source: MorphSentence) -> list[tuple[int, int, tuple[str, ...], tuple[str, ...]]]:
    """(src word start, end exclusive, src words, out words) per applied phrase."""
    from .morpho import to_words

    src_words = to_words(source)
    items = []
    node: Optional[Hypothesis] = hyp
    while node is not None:
        if node.option is not None:
            o = node.option
            items.append((
                o.start, o.end,
                tuple(src_words[o.start : o.end]),
                tuple(words_from_tokens(o.target)),
            ))
        node = node.parent
    items.reverse()
    return items


# The last search: (source, table, lm_m, lm_w), compared by identity and held
# so their ids cannot be reused; (weights, beam, distortion limit, max span),
# compared by value; and its complete hypotheses.
_last_search: Optional[tuple[tuple, tuple, list[Hypothesis]]] = None


def _search_once(
    source: MorphSentence,
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int],
    distortion_limit: int,
    max_span: Optional[int],
) -> list[Hypothesis]:
    """search(), or its result from the previous call with the same arguments."""
    global _last_search
    objects = (source, table, lm_m, lm_w)
    values = (dict(weights), beam_size, distortion_limit, max_span)
    last = _last_search
    if (last is not None and all(a is b for a, b in zip(last[0], objects))
            and last[1] == values):
        return last[2]
    complete = search(source, table, lm_m, lm_w, weights, beam_size,
                      distortion_limit, max_span)
    _last_search = (objects, values, complete)
    return complete


def decode(
    source: MorphSentence,
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int] = 100,
    distortion_limit: int = 6,
    max_span: Optional[int] = None,
) -> Hypothesis:
    """Highest-scoring complete hypothesis (ties broken by target string)."""
    complete = _search_once(source, table, lm_m, lm_w, weights, beam_size,
                            distortion_limit, max_span)
    return max(complete, key=lambda h: (h.score, target_tokens(h)))


@dataclass(frozen=True)
class NBestEntry:
    tokens: tuple[str, ...]
    features: dict[str, float]
    score: float


def nbest(
    source: MorphSentence,
    table: PhraseTable,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
    weights: Mapping[str, float],
    beam_size: Optional[int] = 100,
    distortion_limit: int = 6,
    n: int = 100,
    max_span: Optional[int] = None,
) -> list[NBestEntry]:
    """Top-n distinct target token strings by score, descending."""
    complete = _search_once(source, table, lm_m, lm_w, weights, beam_size,
                            distortion_limit, max_span)
    best: dict[tuple[str, ...], Hypothesis] = {}
    for hyp in complete:
        key = target_tokens(hyp)
        old = best.get(key)
        if old is None or hyp.score > old.score:
            best[key] = hyp
    ranked = sorted(best.items(), key=lambda kv: (-kv[1].score, kv[0]))
    return [
        NBestEntry(tokens, dict(sorted(hyp.features.items())), hyp.score)
        for tokens, hyp in ranked[:n]
    ]


# --- n-best file format: sent_id ||| tokens ||| name=value ... ||| score -----


def write_nbest(path, lists: Sequence[Sequence[NBestEntry]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent_id, entries in enumerate(lists):
            for e in entries:
                feats = " ".join(f"{k}={v!r}" for k, v in sorted(e.features.items()))
                fh.write(f"{sent_id} ||| {' '.join(e.tokens)} ||| {feats} ||| {e.score!r}\n")


def read_nbest(path) -> list[list[NBestEntry]]:
    lists: list[list[NBestEntry]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            sent_id_s, tokens_s, feats_s, score_s = [p.strip() for p in line.split("|||")]
            sent_id = int(sent_id_s)
            while len(lists) <= sent_id:
                lists.append([])
            feats = {}
            for piece in feats_s.split():
                name, value = piece.split("=")
                feats[name] = float(value)
            lists[sent_id].append(
                NBestEntry(tuple(tokens_s.split()), feats, float(score_s))
            )
    return lists


# --- weights file: name<TAB>value ---------------------------------------------


def write_weights(path, weights: Mapping[str, float]) -> None:
    order = {name: i for i, name in enumerate(FEATURE_ORDER)}
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(weights, key=lambda n: order.get(n, len(order))):
            fh.write(f"{name}\t{weights[name]!r}\n")


def read_weights(path) -> dict[str, float]:
    return dict(pair for pair in parse_file(path, _parse_weight_line) if pair is not None)


def _parse_weight_line(line: str) -> Optional[tuple[str, float]]:
    if not line.strip():
        return None
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 2:
        raise ValueError(f"expected name<TAB>value, got {line.rstrip()!r}")
    return fields[0], float(fields[1])
