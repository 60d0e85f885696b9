"""Independent reference implementations used to check the package.

Everything here is deliberately written along a different path than the
package code: brute-force enumeration instead of the extraction algorithm,
Fraction arithmetic and naive loops instead of Counter-based BLEU, recursion
instead of iterative DP for the LCS.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import exp, fsum, log


def consistent_boxes(src_len, tgt_len, links, max_src, max_tgt):
    """All alignment-consistent boxes (i1, i2, j1, j2), inclusive bounds."""
    boxes = []
    for i1 in range(src_len):
        for i2 in range(i1, min(i1 + max_src, src_len)):
            for j1 in range(tgt_len):
                for j2 in range(j1, min(j1 + max_tgt, tgt_len)):
                    inside = [
                        (i, j) for (i, j) in links if i1 <= i <= i2 and j1 <= j <= j2
                    ]
                    if not inside:
                        continue
                    violated = any(
                        (i1 <= i <= i2) != (j1 <= j <= j2)
                        for (i, j) in links
                        if i1 <= i <= i2 or j1 <= j <= j2
                    )
                    if not violated:
                        boxes.append((i1, i2, j1, j2))
    return boxes


def brute_force_phrases(src, tgt, links, max_len):
    """Set of (source, target, links) from consistent boxes with both sides <= max_len."""
    out = set()
    for i1, i2, j1, j2 in consistent_boxes(len(src), len(tgt), links, max_len, max_len):
        rel = frozenset(
            (i - i1, j - j1) for (i, j) in links if i1 <= i <= i2 and j1 <= j <= j2
        )
        out.add((tuple(src[i1:i2 + 1]), tuple(tgt[j1:j2 + 1]), rel))
    return out


def word_spans_of(tokens):
    """Inclusive (start, end) word spans of a tagged token-string sentence,
    read off each token's last character (``+`` is word-internal) rather
    than through ``morpho``'s parser."""
    spans, start = [], 0
    for i, tok in enumerate(tokens):
        if not tok.endswith("+"):
            spans.append((start, i))
            start = i + 1
    return spans


def words_of(tokens):
    """A tagged sentence's words: the surfaces (each token up to its last
    ``/``) of each ``word_spans_of`` span, joined."""
    return ["".join(tok.rsplit("/", 1)[0] for tok in tokens[start : end + 1])
            for start, end in word_spans_of(tokens)]


def brute_force_boundary_phrases(src_tokens, tgt_tokens, src_spans, tgt_spans,
                                 links, max_words):
    """Consistent boxes filtered to whole-word spans of <= max_words words."""
    src_starts = {s for s, _ in src_spans}
    src_ends = {e for _, e in src_spans}
    tgt_starts = {s for s, _ in tgt_spans}
    tgt_ends = {e for _, e in tgt_spans}

    def word_count(spans, lo, hi):
        return sum(1 for s, e in spans if s >= lo and e <= hi)

    out = set()
    for i1, i2, j1, j2 in consistent_boxes(
        len(src_tokens), len(tgt_tokens), links, len(src_tokens), len(tgt_tokens)
    ):
        if i1 not in src_starts or i2 not in src_ends:
            continue
        if j1 not in tgt_starts or j2 not in tgt_ends:
            continue
        if word_count(src_spans, i1, i2) > max_words:
            continue
        if word_count(tgt_spans, j1, j2) > max_words:
            continue
        rel = frozenset(
            (i - i1, j - j1) for (i, j) in links if i1 <= i <= i2 and j1 <= j <= j2
        )
        out.add((tuple(src_tokens[i1:i2 + 1]), tuple(tgt_tokens[j1:j2 + 1]), rel))
    return out


def reference_bleu(hyps, refs, max_n=4):
    """Naive corpus BLEU: explicit n-gram dictionaries, Fraction precisions."""
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            ref_grams = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i:i + n])
                ref_grams[g] = ref_grams.get(g, 0) + 1
            seen = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i:i + n])
                seen[g] = seen.get(g, 0) + 1
                totals[n - 1] += 1
            for g, c in seen.items():
                matches[n - 1] += min(c, ref_grams.get(g, 0))
    precisions = []
    for m, t in zip(matches, totals):
        precisions.append(Fraction(m, t) if t else Fraction(1))
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else exp(1.0 - Fraction(ref_len, hyp_len))
    if any(p == 0 for p in precisions):
        return 0.0
    return bp * exp(sum(log(p) for p in precisions) / max_n)


def recursive_lcs(a, b):
    """Plain memoized recursion, character level."""
    memo = {}

    def go(i, j):
        if i == 0 or j == 0:
            return 0
        key = (i, j)
        if key in memo:
            return memo[key]
        if a[i - 1] == b[j - 1]:
            r = 1 + go(i - 1, j - 1)
        else:
            r = max(go(i - 1, j), go(i, j - 1))
        memo[key] = r
        return r

    return go(len(a), len(b))


def binomial_tail_fraction(n, m):
    """P(X <= m) for X ~ Binomial(n, 1/2), as an exact Fraction."""
    coeffs = [1]  # row of Pascal's triangle, built without math.comb
    for _ in range(n):
        coeffs = [1] + [coeffs[i] + coeffs[i + 1] for i in range(len(coeffs) - 1)] + [1]
    return Fraction(sum(coeffs[: m + 1]), 2 ** n)


def dot(weights, features):
    """The dot product of two dicts of feature values: a feature missing from
    ``weights`` has weight 0."""
    return fsum(weights.get(k, 0.0) * v for k, v in features.items())


@dataclass
class ReferenceHypothesis:
    """A plain search node: its features as a dict, scored by ``dot``."""

    coverage: int
    last_end: int
    state: object
    features: dict
    score: float
    parent: object
    option: object


def extended_features(feats, opt, last_end, morph_delta, word_delta, lm_m, lm_w):
    """A copy of ``feats`` with one extension by ``opt`` added, filled in a
    fixed key order: the option's TM features, the LMs present, the word
    penalty, and the jump from ``last_end`` if there is one."""
    feats = dict(feats)
    for k, v in opt.tm_features:
        feats[k] = feats.get(k, 0.0) + v
    if lm_m is not None:
        feats["lm_morph"] = feats.get("lm_morph", 0.0) + morph_delta
    if lm_w is not None:
        feats["lm_word"] = feats.get("lm_word", 0.0) + word_delta
    feats["word_penalty"] = feats.get("word_penalty", 0.0) + opt.n_words
    jump = abs(opt.start - last_end)
    if jump:
        feats["distortion"] = feats.get("distortion", 0.0) + jump
    return feats


def finalized_features(feats, state, lm_m, lm_w):
    """A copy of ``feats`` with the end-of-sentence step added."""
    from morphsmt.lm import twin_finalize

    morph_delta, word_delta = twin_finalize(state, lm_m, lm_w)
    feats = dict(feats)
    if lm_m is not None:
        feats["lm_morph"] = feats.get("lm_morph", 0.0) + morph_delta
    if lm_w is not None:
        feats["lm_word"] = feats.get("lm_word", 0.0) + word_delta
    if state.pending:
        feats["word_penalty"] = feats.get("word_penalty", 0.0) + 1
    return feats


def reference_search(source, table, lm_m, lm_w, weights, beam_size=100,
                     distortion_limit=6):
    """The plain stack search: build every extension, then sort and cut each
    stack; no memo and no early rejection.  Each node holds its features as
    a dict, filled by ``extended_features`` and scored by ``dot``.  It shares
    only the decoder's option and rest-cost primitives, so it checks the
    search loop and the scoring."""
    from morphsmt import decoder as dec
    from morphsmt.lm import initial_twin_state

    n_words = len(word_spans_of(source))
    options = dec.build_options(source, table)
    future = dec._future_costs(options, n_words, weights, lm_m)
    by_start = sorted(options, key=lambda o: o.start)  # stable: table order per start
    rest_memo = {}
    stacks = [[] for _ in range(n_words + 1)]
    stacks[0].append(ReferenceHypothesis(0, 0, initial_twin_state(lm_m, lm_w), {}, 0.0,
                                         None, None))
    for level in range(n_words):
        stack = stacks[level]
        if beam_size is not None and len(stack) > beam_size:
            stack.sort(key=lambda h: h.score + dec._rest(h.coverage, n_words, future,
                                                         rest_memo), reverse=True)
            del stack[beam_size:]
        for hyp in stack:
            first_free = next(i for i in range(n_words) if not hyp.coverage >> i & 1)
            for opt in by_start:
                if (opt.start < first_free or opt.start > first_free + distortion_limit
                        or opt.mask & hyp.coverage):
                    continue
                # looked up on the decoder, as the decoder does, so a wrapper
                # set there sees this search's LM questions too
                state, morph_delta, word_delta = dec.twin_extend(
                    hyp.state, opt.target, lm_m, lm_w)
                feats = extended_features(hyp.features, opt, hyp.last_end,
                                          morph_delta, word_delta, lm_m, lm_w)
                stacks[level + opt.end - opt.start].append(ReferenceHypothesis(
                    hyp.coverage | opt.mask, opt.end, state, feats,
                    dot(weights, feats), hyp, opt))
    complete = stacks[n_words]
    if beam_size is not None and len(complete) > beam_size:
        complete.sort(key=lambda h: h.score, reverse=True)
        del complete[beam_size:]
    finalized = []
    for h in complete:
        feats = finalized_features(h.features, h.state, lm_m, lm_w)
        finalized.append(ReferenceHypothesis(h.coverage, h.last_end, h.state, feats,
                                             dot(weights, feats), h.parent, h.option))
    return finalized


def replay_scores(hyp, lm_m, lm_w, weights):
    """(features, score) of every hypothesis on ``hyp``'s path, root child
    first, rebuilt along a different path than the decoder's flat vectors:
    one dict per extension (``extended_features``) scored by ``dot``.  The
    last pair includes the end-of-sentence step, so ``hyp`` must be a
    finalized search result that applied at least one phrase."""
    from morphsmt.lm import initial_twin_state, twin_extend

    options = []
    node = hyp
    while node.option is not None:
        options.append(node.option)
        node = node.parent
    state = initial_twin_state(lm_m, lm_w)
    feats = {}
    last_end = 0
    replayed = []
    for opt in reversed(options):
        state, morph_delta, word_delta = twin_extend(state, opt.target, lm_m, lm_w)
        feats = extended_features(feats, opt, last_end, morph_delta, word_delta, lm_m, lm_w)
        last_end = opt.end
        replayed.append((feats, dot(weights, feats)))
    feats = finalized_features(feats, state, lm_m, lm_w)
    replayed[-1] = (feats, dot(weights, feats))
    return replayed


@dataclass(frozen=True)
class ReferenceCandidate:
    """A pooled n-best entry as MERT's reference sees it: its features as a
    dict, and its word-level BLEU statistics against the reference."""

    features: dict
    stats: tuple


def reference_candidate(entry, ref):
    """(pool key, ReferenceCandidate) of an n-best entry: the key is the
    entry's words and sorted feature items, as ``mert`` dedups its pool."""
    from morphsmt.metrics import bleu_stats
    from morphsmt.morpho import words_from_tokens

    words = tuple(words_from_tokens(entry.tokens))
    return ((words, tuple(sorted(entry.features.items()))),
            ReferenceCandidate(dict(entry.features), bleu_stats(words, ref)))


def dots(weights, pool):
    """``dot(weights, c.features)`` for every candidate, per sentence."""
    return [[dot(weights, c.features) for c in cands] for cands in pool]


def reference_line_search(pool, weights, direction):
    """``mert.line_search`` along ``weights + step * direction``, with every
    line's slope and offset worked out afresh as dict dot products."""
    from morphsmt import mert

    return mert.line_search(pool, dots(direction, pool), dots(weights, pool))


def reference_mert_run(dev_refs, initial_weights, decoder_handle, max_iters=10,
                       epsilon=1e-4, seed=0, n_random_directions=1, max_passes=8):
    """``mert.mert_run`` as a plain loop that calls ``reference_line_search``
    for every direction in every pass, so each line's slope and offset are
    worked out afresh each time, from each candidate's feature dict and a
    dict direction updated by name.  The returned state must agree bit for
    bit."""
    import random

    from morphsmt import decoder, mert

    state = mert.MertState(weights=dict(initial_weights),
                           pool=[dict() for _ in dev_refs],
                           best_weights=dict(initial_weights))
    rng = random.Random(seed)
    names = sorted(initial_weights, key=decoder.feature_rank)
    for iteration in range(max_iters):
        for s, entries in enumerate(decoder_handle(state.weights)):
            for entry in entries:
                key, cand = reference_candidate(entry, dev_refs[s])
                state.pool[s].setdefault(key, cand)
        pool_lists = state.pool_lists()
        directions = [{n: 1.0} for n in names]
        for _ in range(n_random_directions):
            directions.append({n: rng.gauss(0.0, 1.0) for n in names})
        current = mert.select_bleu(pool_lists, dots(state.weights, pool_lists))
        for _ in range(max_passes):
            best_move = None
            for d in directions:
                step, score = reference_line_search(pool_lists, state.weights, d)
                if score > current + 1e-12 and (best_move is None or score > best_move[0]):
                    best_move = (score, step, d)
            if best_move is None:
                break
            score, step, d = best_move
            for n, v in d.items():
                state.weights[n] = state.weights.get(n, 0.0) + step * v
            current = score
        state.history.append(current)
        if current > state.best_bleu:
            state.best_bleu = current
            state.best_weights = dict(state.weights)
        if iteration > 0 and state.history[-1] - state.history[-2] < epsilon:
            break
    return state


def reference_logprob(model, token, context=()):
    """``NGramModel.logprob`` as a recursive backoff query: each level that
    misses adds its context's backoff weight to the query one token shorter."""
    from morphsmt.lm import BOS, NEG_INF, UNK

    def query(gram):
        k = len(gram)
        val = model.logprobs[k - 1].get(gram)
        if val is not None:
            return val
        if k == 1 or model.smoothing == "mle":
            return NEG_INF
        bow = model.backoffs[k - 2].get(gram[:-1], 0.0)
        return bow + query(gram[1:])

    w = token if token in model.vocab else UNK
    ctx = tuple(
        c if (c in model.vocab or c == BOS) else UNK
        for c in context[max(0, len(context) - (model.order - 1)):]
    )
    return query(ctx + (w,))


def floored_logprob(model, token, context):
    """``reference_logprob`` clamped at ``LOG_ZERO``: the answer ``lm.step``
    keeps, worked out without the model's tables."""
    from morphsmt import lm

    lp = reference_logprob(model, token, context)
    return lp if lp > lm.LOG_ZERO else lm.LOG_ZERO


def roll(ctx, event, order):
    """``ctx`` with ``event`` appended, cut to its last ``order - 1`` tokens."""
    if order <= 1:
        return ()
    return (ctx + (event,))[-(order - 1):]


def next_context(model, ctx, token):
    """The minimal context after ``token`` is appended to ``ctx``: rolled
    and minimized directly, not through the suffix ids ``lm.step`` uses."""
    from morphsmt.lm import UNK

    event = token if token in model.vocab else UNK
    return model.minimal_context(roll(ctx, event, model.order))


def reference_contexts(model):
    """``NGramModel.contexts`` as a walk over every stored n-gram and every
    context with a backoff weight, adding each of its prefixes up to
    order-1 tokens long."""
    longest = model.order - 1
    known = set()
    for level in (*model.logprobs, *model.backoffs):
        for gram in level:
            for i in range(min(len(gram), longest), 0, -1):
                prefix = gram[:i]
                if prefix in known:
                    break  # its own prefixes are in already
                known.add(prefix)
    return frozenset(known)


def sentence_logprob(model, tokens):
    """ln p(tokens </s>) with <s> padding, the offline whole-sentence score
    that a scorer's deltas must sum to: one ``reference_logprob`` per token
    over the full rolled context, with no interned contexts or tables."""
    from morphsmt.lm import BOS, EOS, UNK

    ctx = (BOS,) * (model.order - 1)
    total = 0.0
    for tok in tokens:
        total += reference_logprob(model, tok, ctx)
        ctx = roll(ctx, tok if tok in model.vocab else UNK, model.order)
    return total + reference_logprob(model, EOS, ctx)


def reference_twin_extend(state, tokens, lm_m, lm_w):
    """``lm.twin_extend`` token by token: each token is split again, and the
    pending buffer is joined at every word-final one."""
    from morphsmt.lm import TwinScorerState, step
    from morphsmt.morpho import split_token_string

    morph_ctx, pending, word_ctx = state.morph_ctx, list(state.pending), state.word_ctx
    morph_delta = word_delta = 0.0
    for tok in tokens:
        if lm_m is not None:
            lp, morph_ctx = step(lm_m, morph_ctx, tok)
            morph_delta += lp
        surface, final = split_token_string(tok)
        pending.append(surface)
        if final:
            if lm_w is not None:
                lp, word_ctx = step(lm_w, word_ctx, "".join(pending))
                word_delta += lp
            pending = []
    return TwinScorerState(morph_ctx, tuple(pending), word_ctx), morph_delta, word_delta


def reference_model1(pairs, iterations=5):
    """IBM Model 1 EM as a flat loop over tuple-keyed dicts: the E-step takes
    each denominator with ``fsum`` and adds the counts in the same order as
    the package, so every probability must agree bit for bit."""
    from collections import defaultdict

    from morphsmt.align import FLOOR_PROB

    # uniform over each source token's observed targets
    cooc = defaultdict(set)
    for src, tgt in pairs:
        for e in (None, *src):
            cooc[e].update(tgt)
    t = {}
    for src, tgt in pairs:
        for e in (None, *src):
            u = 1.0 / len(cooc[e])
            for f in tgt:
                t[(e, f)] = u

    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in pairs:
            sources = (None, *src)
            for f in tgt:
                denom = fsum(t.get((e, f), FLOOR_PROB) for e in sources)
                for e in sources:
                    c = t.get((e, f), FLOOR_PROB) / denom
                    counts[(e, f)] += c
                    totals[e] += c
        t = {pair: c / totals[pair[0]] for pair, c in counts.items()}

    return t


def reference_lexical_weight(target, source, alignment, table):
    """Koehn lexical weight read from ``table``, one token at a time."""
    from morphsmt.align import FLOOR_PROB

    def prob(t_tok, s_tok):
        return table.get((s_tok, t_tok), FLOOR_PROB)

    linked = {}
    for i, j in alignment:
        linked.setdefault(j, []).append(i)
    weight = 1.0
    for j, t_tok in enumerate(target):
        sources = linked.get(j)
        if sources:
            weight *= fsum(prob(t_tok, source[i]) for i in sources) / len(sources)
        else:
            weight *= prob(t_tok, None)
    return weight


def reference_score_phrase_table(pairs, lex_fwd_table, lex_bwd_table,
                                 granularity="morpheme"):
    """Phrase scoring with a Counter of alignments per pair and max/min over
    them for every entry, and the backward weight over transposed links."""
    from collections import Counter

    from morphsmt.phrasex import PHRASE_PENALTY, PhraseEntry, PhraseTable

    counts = pairs if isinstance(pairs, (Counter, dict)) else Counter(pairs)
    joint = {}
    aligns = {}
    src_marginal = Counter()
    tgt_marginal = Counter()
    for (src, tgt, alignment), c in counts.items():
        joint[src, tgt] = joint.get((src, tgt), 0) + c
        aligns.setdefault((src, tgt), Counter())[alignment] += c
        src_marginal[src] += c
        tgt_marginal[tgt] += c

    entries = {}
    for key in sorted(joint):
        src, tgt = key
        c = joint[key]
        observed = aligns[key]
        lex_fwd = max(
            reference_lexical_weight(tgt, src, al, lex_fwd_table) for al in observed
        )
        lex_bwd = max(
            reference_lexical_weight(src, tgt, [(j, i) for i, j in al], lex_bwd_table)
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
    return PhraseTable.of(entries.values(), granularity)
