"""Backoff n-gram language models and the twin morpheme/word scorer.

Models are stored ARPA-style: one table per order mapping the n-gram to its
(natural-log) conditional probability, plus log backoff weights per context.
``train_lm`` keeps each value on the ARPA grid, the ln of a log10 float, so
a model read back from its ARPA file holds exactly the trained values.
Witten-Bell and Kneser-Ney are built in interpolated form, which makes every
context distribution sum to exactly 1 over vocabulary + <unk> + </s>.

The twin scorer walks a morpheme-token hypothesis once and produces two score
streams: the morpheme LM sees every token, the word LM sees each word the
moment its final morpheme arrives (surfaces concatenated, tags and "+"
stripped).  Carrying the pending-morphemes buffer in the state makes the
scoring invariant to how the decoder chunks its extensions.  A phrase target
is split into its word structure once (``compile_target``), so scoring it
joins only the pending buffer with its first word.

Scorer contexts are kept minimal, as in KenLM: a context that no stored
n-gram starts with and that has no backoff weight backs every query off
with weight 0.0, so its first token is dropped without changing any score.
Hypotheses that differ only in such tokens then share one state.  Each model
interns its minimal contexts as ints, each with its backoff weight and the id
of its suffix's minimal form, and ``step`` keeps each (context id, token)
answer in the model for as long as the model lives.  A first question is
answered from one n-gram lookup and the suffix context's answer, and
``NGramModel.logprob`` is answered the same way without storing it.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Literal, NamedTuple, NoReturn, Optional, Sequence, get_args

from .morpho import read_lines, split_token_string, write_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

NEG_INF = float("-inf")
LOG_ZERO = -100.0  # finite stand-in for ln(0) wherever a log-prob enters a score
_LN10 = math.log(10.0)  # ARPA files hold log10 values

Smoothing = Literal["mle", "witten-bell", "kneser-ney"]

# absolute discount for Kneser-Ney; counts are always >= 1 so mass stays positive
KN_DISCOUNT = 0.75


@dataclass
class NGramModel:
    order: int
    smoothing: Smoothing
    vocab: frozenset[str]  # predicted events, </s> included
    logprobs: list[dict[tuple[str, ...], float]]  # index k-1: k-gram -> ln p
    backoffs: list[dict[tuple[str, ...], float]]  # index k-1: context -> ln bow

    def __post_init__(self):
        # interned minimal contexts; per id, token -> (floored ln p, next id),
        # the id of its suffix's minimal form and its ln backoff weight
        self.context_tuples: list[tuple[str, ...]] = []
        self._context_ids: dict[tuple[str, ...], int] = {}
        self._transitions: list[dict[str, tuple[float, int]]] = []
        self._suffixes: list[int] = []
        self._bows: list[float] = []

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        """ln p(token | context), unfloored; context is truncated to the last
        order-1 tokens, and a context token outside the vocabulary, <s> and
        <unk> reads as <unk>.  Answered as a table miss is, storing no answer."""
        ctx = tuple(c if c in self.vocab or c in (BOS, UNK) else UNK
                    for c in context[max(0, len(context) - self.order + 1):])
        event = token if token in self.vocab else UNK
        return _miss(self, self.context_id(ctx), token, event)[0]

    @cached_property
    def contexts(self) -> frozenset[tuple[str, ...]]:
        """Known contexts: every prefix, up to order-1 tokens, of a stored
        n-gram or of a context with a backoff weight.  Closed under prefixes,
        so a context outside the set stays outside when a token is appended.
        Built on the first query that needs it: the n-gram levels below the
        top order and the backoff contexts, which for a trained Witten-Bell
        or Kneser-Ney model are already the whole set, and then each prefix
        that is missing, since an ARPA file need not be closed under prefixes."""
        longest = self.order - 1
        known = set().union(*self.logprobs[:longest], *self.backoffs[:longest])
        for gram in chain(tuple(known), self.logprobs[longest], self.backoffs[longest]):
            prefix = gram[:-1]
            while prefix and prefix not in known:
                known.add(prefix)
                prefix = prefix[:-1]
        return frozenset(known)

    def minimal_context(self, context: tuple[str, ...]) -> tuple[str, ...]:
        """The shortest suffix of a vocab-mapped context that gives every query
        the same log-prob: leading tokens go while the context is unknown,
        since a query then backs off from it adding 0.0.  Under MLE there is
        no backoff, so the context stays whole."""
        if self.smoothing == "mle":
            return context
        known = self.contexts
        while context and context not in known:
            context = context[1:]
        return context

    def context_id(self, context: tuple[str, ...]) -> int:
        """The id of a vocab-mapped context's minimal form, interned on first
        use with its suffix's minimal form (the empty context is its own suffix)."""
        context = self.minimal_context(context)
        cid = self._context_ids.get(context)
        if cid is None:
            suffix = self.context_id(context[1:]) if context else len(self.context_tuples)
            cid = self._context_ids[context] = len(self.context_tuples)
            self.context_tuples.append(context)
            self._transitions.append({})
            self._suffixes.append(suffix)
            self._bows.append(self.backoffs[len(context) - 1].get(context, 0.0)
                              if context else 0.0)
        return cid


def _collect_counts(
    corpus: Iterable[Sequence[str]], order: int
) -> list[dict[tuple[str, ...], int]]:
    """Raw k-gram counts for k=1..order from <s>-padded sentences + </s>."""
    counts: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    for sentence in corpus:
        padded = (BOS,) * (order - 1) + tuple(sentence) + (EOS,)
        n_events = len(sentence) + 1
        for t in range(order - 1, order - 1 + n_events):
            for k in range(1, order + 1):
                gram = padded[t - k + 1 : t + 1]
                counts[k - 1][gram] = counts[k - 1].get(gram, 0) + 1
    return counts


# (m(h), z(h)) of a context h from its total count c(h) and its T(h)
_MASS = {
    "mle": lambda total, types: (0, total),
    "witten-bell": lambda total, types: (types, total + types),
    "kneser-ney": lambda total, types: (KN_DISCOUNT * types, total),
}


def train_lm(
    corpus: Iterable[Sequence[str]],
    order: int,
    smoothing: Smoothing = "witten-bell",
) -> NGramModel:
    """Train a backoff n-gram model over token sequences.

    Every order above the first interpolates the one below it:
    p(w | h) = (c'(hw) + m(h) p(w | h[1:])) / z(h), with backoff weight
    m(h)/z(h).  A smoothing chooses only its counts, c', m, z (``_MASS``) and
    its unigram level.  T(h) is the number of distinct words seen after h, N
    the sum of the unigram counts, D the Kneser-Ney discount:

      MLE          raw counts    c' = c      m = 0       z = c(h)
                   unigrams c/N
      Witten-Bell  raw counts    c' = c      m = T(h)    z = c(h) + T(h)
                   unigrams c/(N+T), <unk> T/(N+T)
      Kneser-Ney   continuation counts below the top order
                                 c' = c - D  m = D T(h)  z = c(h)
                   unigrams (c-D)/N + share, <unk> share = D T/(T+1)/N
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise ValueError("cannot train on an empty corpus")
    if smoothing not in _MASS:
        raise ValueError(f"unknown smoothing: {smoothing}")
    counts = _collect_counts(sentences, order)
    vocab = frozenset(w for (w,) in counts[0] if w != BOS) | {EOS}

    discount = 0
    if smoothing == "kneser-ney":
        # below the top order, count each k-gram's distinct one-token left
        # extensions instead of its occurrences
        discount = KN_DISCOUNT
        for k in range(1, order):
            cont: dict[tuple[str, ...], int] = {}
            for gram in counts[k]:
                suffix = gram[1:]
                cont[suffix] = cont.get(suffix, 0) + 1
            counts[k - 1] = cont
    n_events = sum(counts[0].values())
    n_types = len(counts[0])
    if smoothing == "mle":
        level = {g: c / n_events for g, c in counts[0].items()}
    elif smoothing == "witten-bell":
        denom = n_events + n_types
        level = {g: c / denom for g, c in counts[0].items()}
        level[(UNK,)] = n_types / denom
    else:
        # the discounted mass D*T is split evenly over vocab + <unk>, which
        # keeps every context distribution summing to exactly 1
        share = discount * n_types / (n_types + 1) / n_events
        level = {g: (c - discount) / n_events + share for g, c in counts[0].items()}
        level[(UNK,)] = share

    mass = _MASS[smoothing]
    logprobs = [{g: _on_grid(p) for g, p in level.items()}]
    backoffs: list[dict[tuple[str, ...], float]] = []
    for k in range(2, order + 1):
        lower = level
        totals: dict[tuple[str, ...], int] = {}
        types: dict[tuple[str, ...], int] = {}
        for gram, c in counts[k - 1].items():
            ctx = gram[:-1]
            totals[ctx] = totals.get(ctx, 0) + c
            types[ctx] = types.get(ctx, 0) + 1
        weights = {ctx: mass(total, types[ctx]) for ctx, total in totals.items()}
        level = {}
        for gram, c in counts[k - 1].items():
            m, z = weights[gram[:-1]]
            level[gram] = (c - discount + m * lower[gram[1:]]) / z
        logprobs.append({g: _on_grid(p) for g, p in level.items()})
        # MLE has no backoff mass: its weights are 0 and are not stored
        backoffs.append({ctx: _on_grid(m / z) for ctx, (m, z) in weights.items() if m})
    backoffs.append({})  # the top order has no outgoing backoff
    return NGramModel(order, smoothing, vocab, logprobs, backoffs)


def _on_grid(p: float) -> float:
    """ln p as ``write_arpa`` then ``read_arpa`` carry it: via log10 and back."""
    return math.log(p) / _LN10 * _LN10


def step(model: NGramModel, ctx_id: int, token: str) -> tuple[float, int]:
    """(ln p(token | context) floored at LOG_ZERO, next context id) for the
    context interned as ``ctx_id``: the one way a scorer advances an LM
    context.  The answer is kept in the model's transition table, so each
    (context, token) is queried once per model."""
    table = model._transitions[ctx_id]
    hit = table.get(token)
    if hit is None:
        lp, next_id = _miss(model, ctx_id, token, token if token in model.vocab else UNK)
        hit = table[token] = (lp if lp > LOG_ZERO else LOG_ZERO, next_id)
    return hit


def _miss(model: NGramModel, ctx_id: int, token: str, event: str) -> tuple[float, int]:
    """(unfloored ln p(event | h), next context id) for the context h
    interned as ``ctx_id``, from one n-gram lookup and the answer for h's
    suffix s.  Exact because tokens that s drops from h[1:] have neither
    n-grams nor backoff weights:
      - an absent n-gram gives bow(h) + lp(event | s), so the backoff
        weights are added from the right, ``bow1 + (bow2 + lp)``, as a
        recursive query adds them (under MLE, no backoff: -inf);
      - the next context is h + event if that is a known context shorter
        than the order (under MLE contexts are whole, so every one is
        known), else s's next context, as known contexts are closed under
        prefixes.  h + event is then its own minimal form, so its id is
        read from the intern table, and ``context_id`` is called only to
        intern it on first use.
    s's answer is read from its table, or worked out here without being
    stored, so a miss adds one table entry.  A stored answer at the
    LOG_ZERO floor may have been clipped, so then s's raw answer is worked
    out again the same way, in at most ``order`` nested calls."""
    ctx = model.context_tuples[ctx_id]
    gram = ctx + (event,)
    lp = model.logprobs[len(ctx)].get(gram)
    mle = model.smoothing == "mle"
    extends = len(gram) < model.order and (mle or gram in model.contexts)
    backs_off = lp is None and bool(ctx) and not mle
    if lp is None and not backs_off:
        lp = NEG_INF
    if backs_off or not extends:
        if not ctx:
            return lp, ctx_id
        suffix = model._suffixes[ctx_id]
        hit = model._transitions[suffix].get(token)
        if hit is None:
            suffix_lp, next_id = _miss(model, suffix, token, event)
        else:
            suffix_lp, next_id = hit
            if backs_off and suffix_lp <= LOG_ZERO:
                suffix_lp = _miss(model, suffix, token, event)[0]
        if backs_off:
            lp = model._bows[ctx_id] + suffix_lp
        if not extends:
            return lp, next_id
    next_id = model._context_ids.get(gram)
    return lp, model.context_id(gram) if next_id is None else next_id


# ---------------------------------------------------------------------------
# Twin scoring state
# ---------------------------------------------------------------------------


class TwinScorerState(NamedTuple):
    morph_ctx: int  # context ids (NGramModel.context_id); 0 without that LM
    pending: tuple[str, ...]  # surfaces of the in-progress word
    word_ctx: int


def initial_twin_state(lm_m: Optional[NGramModel], lm_w: Optional[NGramModel]) -> TwinScorerState:
    morph_ctx, word_ctx = (m.context_id((BOS,) * (m.order - 1)) if m else 0
                           for m in (lm_m, lm_w))
    return TwinScorerState(morph_ctx, (), word_ctx)


class Target(tuple):
    """A phrase target's tokens, split once into what ``twin_extend`` needs:
    ``head``, the surfaces up to and including the first word-final token
    (all of them if none is final); ``closes``, whether that token exists;
    ``words``, the whole words after it; and ``tail``, the surfaces after
    the last word-final token.  It is equal to its token tuple."""

    head: tuple[str, ...]
    closes: bool
    words: tuple[str, ...]
    tail: tuple[str, ...]


def compile_target(tokens: Sequence[str]) -> Target:
    target = Target(tokens)
    words: list[tuple[str, ...]] = []  # the surfaces of each whole word
    surfaces: list[str] = []
    for tok in target:
        surface, final = split_token_string(tok)
        surfaces.append(surface)
        if final:
            words.append(tuple(surfaces))
            surfaces = []
    target.closes = bool(words)
    target.head = words[0] if words else tuple(surfaces)
    target.words = tuple("".join(word) for word in words[1:])
    target.tail = tuple(surfaces) if words else ()
    return target


def twin_extend(
    state: TwinScorerState,
    target: Sequence[str],
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
) -> tuple[TwinScorerState, float, float]:
    """Score one phrase application under both views.

    Returns (new state, morpheme-LM delta, word-LM delta).  The word LM only
    sees words completed within this extension: the pending buffer joined
    with the target's head, then its inner words; an unfinished word stays
    in the pending buffer.  Each token's log-prob and next context come from
    ``step``, so from its model's transition table once asked before.  A
    plain token sequence is compiled first.
    """
    if not isinstance(target, Target):
        target = compile_target(target)
    morph_ctx, word_ctx = state.morph_ctx, state.word_ctx
    morph_delta = word_delta = 0.0
    if lm_m is not None:
        for tok in target:
            lp, morph_ctx = step(lm_m, morph_ctx, tok)
            morph_delta += lp
    pending = state.pending + target.head
    if target.closes:
        if lm_w is not None:
            lp, word_ctx = step(lm_w, word_ctx, "".join(pending))
            word_delta += lp
            for word in target.words:
                lp, word_ctx = step(lm_w, word_ctx, word)
                word_delta += lp
        pending = target.tail
    return TwinScorerState(morph_ctx, pending, word_ctx), morph_delta, word_delta


def twin_finalize(
    state: TwinScorerState,
    lm_m: Optional[NGramModel],
    lm_w: Optional[NGramModel],
) -> tuple[float, float]:
    """End-of-sentence deltas; a non-empty pending buffer is flushed as a word first."""
    morph_delta = word_delta = 0.0
    word_ctx = state.word_ctx
    if state.pending and lm_w is not None:
        word_delta, word_ctx = step(lm_w, word_ctx, "".join(state.pending))
    if lm_m is not None:
        morph_delta += step(lm_m, state.morph_ctx, EOS)[0]
    if lm_w is not None:
        word_delta += step(lm_w, word_ctx, EOS)[0]
    return morph_delta, word_delta


# --- ARPA-style persistence -------------------------------------------------

_ARPA_NEG_INF = -99.0  # conventional stand-in for ln p = -inf


def write_arpa(path, model: NGramModel) -> None:
    write_lines(path, _arpa_lines(model))


def _arpa_lines(model: NGramModel) -> Iterator[str]:
    yield from (f"smoothing: {model.smoothing}", "", "\\data\\")  # ARPA readers skip the preamble
    # contexts that are never events (pure <s> prefixes) still need their
    # backoff weight carried; SRILM writes them as -99 lines.  The top order
    # has no backoffs: train_lm stores none and read_arpa refuses one
    sections = [sorted(set(lps) | set(bows)) for lps, bows in zip(model.logprobs, model.backoffs)]
    yield from (f"ngram {k}={len(grams)}" for k, grams in enumerate(sections, start=1))
    yield ""
    for k, (grams, lps, bows) in enumerate(zip(sections, model.logprobs, model.backoffs), start=1):
        yield f"\\{k}-grams:"
        for gram in grams:
            lp = lps.get(gram, NEG_INF)
            lp10 = _ARPA_NEG_INF if lp == NEG_INF else lp / _LN10
            line, bow = f"{lp10!r}\t{' '.join(gram)}", bows.get(gram)
            yield line if bow is None else f"{line}\t{bow / _LN10!r}"
        yield ""
    yield "\\end\\"


def read_arpa(path) -> NGramModel:
    """Inverse of ``write_arpa``, read in order: a preamble (its ``smoothing:``
    line, if any), ``\\data\\`` with ``ngram N=M`` counts up to a blank line,
    then for each count a ``\\N-grams:`` section of M distinct n-grams, one
    ``logp10<TAB>gram[<TAB>bow10]`` a line.  Raises ValueError at ``<path>:<line>:``."""
    smoothing: Smoothing = "witten-bell"
    counts: dict[int, int] = {}  # N -> M of the ngram N=M lines
    count_line: dict[int, int] = {}  # N -> line of its ngram N=M line
    lineno = 0

    def fail(message: str) -> NoReturn:
        where = f"{path}:{lineno}" if lineno else path  # an empty file has no line
        raise ValueError(f"{where}: {message}")

    with closing(read_lines(path)) as lines:  # a fail stops the read mid-file
        for lineno, line in lines:
            line = line.rstrip("\n")
            if line == "\\data\\":
                break
            if line.startswith("smoothing:"):
                smoothing = line.split(":", 1)[1].strip()  # type: ignore[assignment]
                if smoothing not in get_args(Smoothing):
                    fail(f"unknown smoothing {smoothing!r}")
        else:
            fail("no \\data\\ line")
        for lineno, line in lines:
            line = line.strip()
            if not line:
                break
            name, sep, n = line.partition("=")
            words = name.split()
            if not (sep and len(words) == 2 and words[0] == "ngram" and words[1].isdecimal()
                    and int(words[1]) >= 1 and n.strip().isdecimal()):
                fail(f"bad count line {line!r}: expected 'ngram N=M'")
            k = int(words[1])
            if count_line.setdefault(k, lineno) != lineno:
                fail(f"repeated count line {line!r}, first on line {count_line[k]}")
            counts[k] = int(n)
        else:
            fail("no n-gram sections")
        if not counts:
            fail("no 'ngram N=M' line after \\data\\")

        order = max(counts)
        logprobs: list[dict[tuple[str, ...], float]] = [{} for _ in range(order)]
        backoffs: list[dict[tuple[str, ...], float]] = [{} for _ in range(order)]
        header_line: dict[int, int] = {}  # N -> line of its \\N-grams: header
        k, first_line = 0, {}  # the open section's order (0 if none) and its n-grams' lines

        def end_section(last: bool) -> None:  # the last also finds a missing section
            got, want = len(first_line), counts.get(k, 0)
            if k and got != want:
                fail(f"{got} n-grams in the {k}-grams section, not {want} as 'ngram {k}={want}'")
            missing = sorted(counts.keys() - header_line.keys()) if last else []
            if missing:
                n = missing[0]
                fail(f"no \\{n}-grams: section for 'ngram {n}={counts[n]}'")

        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            if line == "\\end\\":
                end_section(last=True)
                k, first_line = 0, {}
            elif line.endswith("-grams:"):
                digits = line[1:].split("-")[0]
                if not line.startswith("\\") or not digits.isdecimal() \
                        or not 1 <= int(digits) <= order:
                    fail(f"bad section header {line!r} for order {order}")
                end_section(last=False)
                k, first_line = int(digits), {}
                if header_line.setdefault(k, lineno) != lineno:
                    fail(f"repeated section header {line!r}, first on line {header_line[k]}")
            else:
                if k == 0:
                    fail(f"n-gram line outside an n-gram section: {line!r}")
                parts = line.split("\t")
                if not 2 <= len(parts) <= 3 or not parts[1].split():
                    fail(f"expected logprob<TAB>n-gram[<TAB>backoff]: {line!r}")
                try:
                    lp10 = float(parts[0])
                    bow10 = float(parts[2]) if len(parts) > 2 else None
                except ValueError:
                    fail(f"non-numeric log-prob or backoff: {line!r}")
                if not (math.isfinite(lp10) and math.isfinite(bow10 or 0.0)):
                    fail(f"non-finite log-prob or backoff: {line!r}")
                gram = tuple(parts[1].split())
                if len(gram) != k:
                    fail(f"{len(gram)}-gram in the {k}-grams section: {line!r}")
                if gram in first_line:
                    fail(f"duplicate {k}-gram {' '.join(gram)!r}, first on line {first_line[gram]}")
                first_line[gram] = lineno
                if lp10 != _ARPA_NEG_INF:  # -99 lines are pure backoff carriers
                    logprobs[k - 1][gram] = lp10 * _LN10
                if bow10 is not None:
                    if k == order:  # a top-order n-gram is never a context
                        fail(f"backoff weight on a top-order {k}-gram: {line!r}")
                    backoffs[k - 1][gram] = bow10 * _LN10
    end_section(last=True)
    vocab = frozenset(w for (w,) in logprobs[0] if w not in (BOS, UNK))
    return NGramModel(order, smoothing, vocab, logprobs, backoffs)
