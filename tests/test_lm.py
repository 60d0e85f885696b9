import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from morphsmt import lm
from morphsmt.lm import BOS, EOS, UNK

import oracles
from conftest import random_morph_sentence

TOY = [["a", "b"], ["a", "c"]]


def test_mle_bigram_hand_counts():
    model = lm.train_lm(TOY, 2, "mle")
    assert model.logprob("b", ["a"]) == pytest.approx(math.log(0.5))


def test_mle_unigram_includes_end_marker():
    model = lm.train_lm(TOY, 1, "mle")
    # events: a, b, a, c plus two </s>
    assert math.exp(model.logprob("a")) == pytest.approx(2 / 6)
    assert math.exp(model.logprob(EOS)) == pytest.approx(2 / 6)


def test_mle_unseen_is_neg_inf():
    model = lm.train_lm(TOY, 2, "mle")
    assert model.logprob("zz", ["a"]) == float("-inf")


def test_witten_bell_discounts_and_smooths():
    model = lm.train_lm(TOY, 2, "witten-bell")
    # c(a,b)=1, c(a)=2, T(a)=2, p_uni(b)=1/10 -> (1 + 2*0.1)/4 = 0.3
    assert math.exp(model.logprob("b", ["a"])) == pytest.approx(0.3)
    assert math.exp(model.logprob("b", ["a"])) < 0.5
    assert math.exp(model.logprob("zz", ["a"])) > 0.0


def test_kneser_ney_hand_counts():
    model = lm.train_lm(TOY, 2, "kneser-ney")
    # continuation counts (distinct left neighbours): a {<s>}, b {a}, c {a},
    # </s> {b, c}; N = 5, T = 4, so the <unk> share is 0.75 * 4 / 5 / 5 = 0.12
    assert set(model.logprobs[0]) == {("a",), ("b",), ("c",), (EOS,), (UNK,)}
    # p(w) = (cont(w) - 0.75) / 5 + 0.12; an unknown word gets the share alone
    for token, p in (("a", 0.17), ("b", 0.17), ("c", 0.17), (EOS, 0.37), ("zz", 0.12)):
        assert math.exp(model.logprob(token)) == pytest.approx(p)
    # c(a b) = 1, c(a) = 2, T(a) = 2: (1 - 0.75 + 0.75 * 2 * 0.17) / 2
    assert math.exp(model.logprob("b", ["a"])) == pytest.approx(0.2525)
    # backoff weight of context a: 0.75 * T(a) / c(a)
    assert math.exp(model.backoffs[0][("a",)]) == pytest.approx(0.75)
    assert math.exp(model.logprob("zz", ["a"])) == pytest.approx(0.75 * 0.12)


def test_markov_truncation():
    model = lm.train_lm(TOY, 2, "witten-bell")
    assert model.logprob("b", ["x", "y", "a"]) == model.logprob("b", ["a"])


def test_order_validation():
    with pytest.raises(ValueError):
        lm.train_lm(TOY, 0)
    with pytest.raises(ValueError):
        lm.train_lm([], 2)


CORPUS = [["a", "b", "a"], ["b", "c"], ["a"], ["c", "b", "b", "a"]]


@pytest.mark.parametrize("smoothing", ["witten-bell", "kneser-ney"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_normalization_over_vocab_unk_eos(smoothing, order):
    model = lm.train_lm(CORPUS, order, smoothing)
    contexts = [(), ("a",), ("b", "a"), (BOS,), (BOS, "a"), ("zz",),
                ("a", "zz"), ("c", "b"), (EOS,)]
    events = sorted(model.vocab | {UNK})
    for ctx in contexts:
        total = sum(math.exp(model.logprob(w, ctx)) for w in events)
        assert total == pytest.approx(1.0, abs=1e-6), (smoothing, order, ctx)


@pytest.mark.parametrize("smoothing", ["mle", "witten-bell", "kneser-ney"])
def test_arpa_roundtrip(tmp_path, smoothing):
    model = lm.train_lm(CORPUS, 3, smoothing)
    path = tmp_path / "model.arpa"
    lm.write_arpa(path, model)
    back = lm.read_arpa(path)
    assert back.order == model.order
    assert back.smoothing == model.smoothing
    assert back.vocab == model.vocab
    # train_lm keeps its values on the grid that the file's log10 values carry
    assert back.logprobs == model.logprobs
    assert back.backoffs == model.backoffs


@settings(deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c/STM", "d/SUF+"]), max_size=5),
                min_size=1, max_size=6),
       st.integers(1, 4), st.sampled_from(["mle", "witten-bell", "kneser-ney"]))
def test_arpa_write_read_write_is_byte_identical(tmp_path_factory, corpus, order, smoothing):
    path = tmp_path_factory.mktemp("arpa") / "model.arpa"
    lm.write_arpa(path, lm.train_lm(corpus, order, smoothing))
    first = path.read_bytes()
    lm.write_arpa(path, lm.read_arpa(path))
    assert path.read_bytes() == first


ARPA_HEAD = "\\data\\\nngram 1=1\n\n\\1-grams:\n"
MALFORMED_ARPA = {
    # case: (text, bad line, message)
    "unknown-smoothing": ("smoothing: good-turing\n\\data\\\n", 1,
                          "unknown smoothing 'good-turing'"),
    "no-count-line": ("\\data\\\n\n", 2, "no 'ngram N=M' line after \\data\\"),
    "bad-count-line": ("\\data\\\nngram one=1\n", 2,
                       "bad count line 'ngram one=1': expected 'ngram N=M'"),
    "bad-section-header": ("\\data\\\nngram 1=1\n\n\\2-grams:\n", 4,
                           "bad section header '\\\\2-grams:' for order 1"),
    "outside-section": ("\\data\\\nngram 1=1\n\n-0.5\ta\n", 4,
                        "n-gram line outside an n-gram section: '-0.5\\ta'"),
    "field-count": (ARPA_HEAD + "-0.5\ta\t-0.1\t0\n", 5,
                    "expected logprob<TAB>n-gram[<TAB>backoff]: '-0.5\\ta\\t-0.1\\t0'"),
    "non-numeric": (ARPA_HEAD + "-0.5x\ta\n", 5,
                    "non-numeric log-prob or backoff: '-0.5x\\ta'"),
    "top-order-backoff": (ARPA_HEAD + "-0.5\ta\t-0.1\n", 5,
                          "backoff weight on a top-order 1-gram: '-0.5\\ta\\t-0.1'"),
    "ngram-length": (ARPA_HEAD + "-0.5\ta b\n", 5,
                     "2-gram in the 1-grams section: '-0.5\\ta b'"),
    "no-data-line": ("smoothing: mle\n\n", 2, "no \\data\\ line"),
    "duplicate-ngram": ("\\data\\\nngram 1=2\n\n\\1-grams:\n-1.0\ta\n-1.0\ta\n", 6,
                        "duplicate 1-gram 'a', first on line 5"),
    "duplicate-backoff-carrier": (
        "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t-0.5\n-1.0\ta\n"
        "-99\t<s>\t-0.25\n", 8, "duplicate 1-gram '<s>', first on line 6"),
    # a section's count is checked where it ends: at the next section, at
    # \end\, or at the file's last line
    "count-at-end": ("\\data\\\nngram 1=5\n\n\\1-grams:\n-1.0\ta\n-1.0\tb\n\n\\end\\\n", 8,
                     "2 n-grams in the 1-grams section, not 5 as 'ngram 1=5'"),
    "count-at-next-section": (
        "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-1.0\ta\n-1.0\tb\n\n\\2-grams:\n", 9,
        "2 n-grams in the 1-grams section, not 1 as 'ngram 1=1'"),
    "count-at-file-end": ("\\data\\\nngram 1=3\n\n\\1-grams:\n-1.0\ta\n", 5,
                          "1 n-grams in the 1-grams section, not 3 as 'ngram 1=3'"),
    "empty-file": ("", None, "no \\data\\ line"),  # no line to name
    # every counted section must appear, once; a missing one is found at
    # \end\ or at the file's last line
    "missing-section-at-end": (
        "\\data\\\nngram 1=2\nngram 2=3\n\n\\1-grams:\n-1.0\ta\n-1.0\tb\n\n\\end\\\n", 9,
        "no \\2-grams: section for 'ngram 2=3'"),
    "missing-section-at-file-end": (
        "\\data\\\nngram 1=2\nngram 2=3\n\n\\1-grams:\n-1.0\ta\n-1.0\tb\n", 7,
        "no \\2-grams: section for 'ngram 2=3'"),
    "repeated-count": ("\\data\\\nngram 1=5\nngram 1=1\n\n\\1-grams:\n-1\ta\n", 3,
                       "repeated count line 'ngram 1=1', first on line 2"),
    "repeated-section": (
        "\\data\\\nngram 1=1\n\n\\1-grams:\n-1.0\ta\n\n\\1-grams:\n-2.0\ta\n", 7,
        "repeated section header '\\\\1-grams:', first on line 4"),
    # -99 stands for log 0; any other value must be finite
    "infinite-logprob": (ARPA_HEAD + "inf\ta\n", 5, "non-finite log-prob or backoff: 'inf\\ta'"),
    "nan-backoff": ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\tnan\n", 6,
                    "non-finite log-prob or backoff: '-0.5\\ta\\tnan'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARPA))
def test_read_arpa_names_file_and_line_of_malformed_input(tmp_path, case):
    text, line, message = MALFORMED_ARPA[case]
    path = tmp_path / "model.arpa"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        lm.read_arpa(path)
    where = path if line is None else f"{path}:{line}"
    assert str(info.value) == f"{where}: {message}"


def test_read_arpa_reads_a_file_written_by_another_toolkit(tmp_path):
    # free text and no smoothing: line before \data\, blank lines inside
    # sections, a -99 carrier with a backoff weight, and no \end\ line
    path = tmp_path / "model.arpa"
    path.write_text("Built by another toolkit.\nNo smoothing line here.\n\n"
                    "\\data\\\nngram 1=4\nngram 2=2\n\n"
                    "\\1-grams:\n-0.5\ta\t-0.25\n\n-99\t<s>\t-0.125\n-0.75\tb\n-1\t</s>\n\n"
                    "\\2-grams:\n\n-0.25\t<s> a\n\n-0.5\ta b\n", encoding="utf-8")
    model = lm.read_arpa(path)
    ln10 = math.log(10.0)
    assert (model.order, model.smoothing) == (2, "witten-bell")
    assert model.vocab == {"a", "b", EOS}
    assert model.logprobs == [{("a",): -0.5 * ln10, ("b",): -0.75 * ln10, (EOS,): -1 * ln10},
                              {(BOS, "a"): -0.25 * ln10, ("a", "b"): -0.5 * ln10}]
    assert model.backoffs == [{("a",): -0.25 * ln10, (BOS,): -0.125 * ln10}, {}]


def _stream_model(tmp_path, order, smoothing, via_arpa, rng):
    tokens = ["a", "b", "c", "d", "e", "f"]
    corpus = [[rng.choice(tokens) for _ in range(rng.randint(0, 8))] for _ in range(12)]
    model = lm.train_lm(corpus, order, smoothing)
    if via_arpa:
        lm.write_arpa(tmp_path / "model.arpa", model)
        model = lm.read_arpa(tmp_path / "model.arpa")
    return model, tokens + ["zz", BOS]


@pytest.mark.parametrize("via_arpa", [False, True])
@pytest.mark.parametrize("smoothing", ["witten-bell", "kneser-ney"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_minimal_context_keeps_every_logprob(tmp_path, order, smoothing, via_arpa):
    rng = random.Random(order * 7 + len(smoothing) + via_arpa)
    model, stream_tokens = _stream_model(tmp_path, order, smoothing, via_arpa, rng)
    events = sorted(model.vocab | {UNK, EOS})
    shortened = 0
    for _ in range(6):
        full = (BOS,) * (order - 1)
        short = model.minimal_context(full)
        for tok in [rng.choice(stream_tokens) for _ in range(15)]:
            assert full[len(full) - len(short):] == short
            shortened += len(short) < len(full)
            for w in events:
                assert (oracles.reference_logprob(model, w, short).hex()
                        == oracles.reference_logprob(model, w, full).hex()), (full, short, w)
            full = oracles.roll(full, tok if tok in model.vocab else UNK, order)
            short = oracles.next_context(model, short, tok)
    assert shortened > 0 or order <= 2  # the property is not tested vacuously


@pytest.mark.parametrize("via_arpa", [False, True])
@pytest.mark.parametrize("smoothing", ["mle", "witten-bell", "kneser-ney"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_logprob_matches_recursive_backoff_bit_for_bit(tmp_path, order, smoothing, via_arpa):
    from oracles import reference_logprob

    rng = random.Random(order * 11 + len(smoothing) + via_arpa)
    model, stream_tokens = _stream_model(tmp_path, order, smoothing, via_arpa, rng)
    assert model.contexts == oracles.reference_contexts(model)
    events = sorted(model.vocab | {UNK, EOS, "zz"})
    rolled = set()
    contexts = {()}
    for _ in range(6):
        full = (BOS,) * (order - 1)
        short = model.minimal_context(full)
        for tok in [rng.choice(stream_tokens) for _ in range(15)]:
            rolled.add(full)
            # minimized contexts, one too long, and one with a raw OOV token
            contexts.update({full, short, ("a",) + full, ("zz",) + full[1:]})
            full = oracles.roll(full, tok if tok in model.vocab else UNK, order)
            short = oracles.next_context(model, short, tok)
    for ctx in sorted(contexts):
        for w in events:
            want = reference_logprob(model, w, ctx).hex()
            assert model.logprob(w, ctx).hex() == want, (ctx, w)
            assert model.logprob(w, list(ctx)).hex() == want, (ctx, w)
    # the walk is not tested vacuously: some queries back off two levels
    deepest = max(_levels_backed_off(model, ctx + (w if w in model.vocab else UNK,))
                  for ctx in rolled for w in events)
    assert deepest >= min(order - 1, 2)


def _levels_backed_off(model, gram):
    """How many leading tokens a query drops before its n-gram is stored."""
    dropped = 0
    while len(gram) > 1 and gram not in model.logprobs[len(gram) - 1]:
        gram = gram[1:]
        dropped += 1
    return dropped


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_mle_contexts_are_not_minimized(order):
    rng = random.Random(order)
    model, stream_tokens = _stream_model(None, order, "mle", False, rng)
    full = (BOS,) * (order - 1)
    assert model.minimal_context(full) == full
    for tok in [rng.choice(stream_tokens) for _ in range(30)]:
        rolled = oracles.roll(full, tok if tok in model.vocab else UNK, order)
        assert oracles.next_context(model, full, tok) == rolled
        full = rolled


def test_contexts_add_the_prefix_an_arpa_file_leaves_out(tmp_path):
    # another toolkit may drop a lower-order n-gram whose longer n-grams it
    # keeps; that prefix is still a known context
    model = lm.train_lm([["a", "b", "c", "a", "b"], ["b", "a", "b", "c"], ["c", "b"]],
                        4, "witten-bell")
    path = tmp_path / "model.arpa"
    lm.write_arpa(path, model)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.remove(next(line for line in lines if line.split("\t")[1:2] == ["a b"]))
    count = next(i for i, line in enumerate(lines) if line.startswith("ngram 2="))
    lines[count] = "ngram 2=%d" % (int(lines[count].split("=")[1]) - 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    pruned = lm.read_arpa(path)
    assert ("a", "b") not in pruned.logprobs[1] and ("a", "b") not in pruned.backoffs[1]
    assert ("a", "b", "c") in pruned.backoffs[2]
    assert ("a", "b") in pruned.contexts
    assert pruned.contexts == oracles.reference_contexts(pruned) == model.contexts


def test_sentence_logprob_matches_manual_sum():
    model = lm.train_lm(TOY, 2, "witten-bell")
    manual = (model.logprob("a", [BOS]) + model.logprob("b", ["a"])
              + model.logprob(EOS, ["b"]))
    assert oracles.sentence_logprob(model, ["a", "b"]) == pytest.approx(manual)


def twin_fixture():
    morph_corpus = [["epä/PRE+", "demo/STM+", "en/SUF", "maa/STM"],
                    ["maa/STM", "epä/PRE+", "demo/STM+", "en/SUF"]]
    word_corpus = [["epädemoen", "maa"], ["maa", "epädemoen"]]
    lm_m = lm.train_lm(morph_corpus, 3, "witten-bell")
    lm_w = lm.train_lm(word_corpus, 2, "witten-bell")
    return lm_m, lm_w


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c/STM", "c/SUF", "d/SUF+"]), max_size=6),
                min_size=1, max_size=6),
       st.integers(1, 5), st.sampled_from(["mle", "witten-bell", "kneser-ney"]), st.booleans(),
       st.lists(st.lists(st.sampled_from(["a", "b", "c/STM", "c/SUF", "d/SUF+", "zz", BOS,
                                          EOS, UNK]), max_size=10), min_size=2, max_size=5))
def test_step_equals_direct_queries_on_warm_tables(tmp_path_factory, corpus, order,
                                                   smoothing, via_arpa, walks):
    model = lm.train_lm(corpus, order, smoothing)
    if via_arpa:
        path = tmp_path_factory.mktemp("arpa") / "model.arpa"
        lm.write_arpa(path, model)
        model = lm.read_arpa(path)
    start = (BOS,) * (order - 1)
    # every walk after the first runs on tables earlier walks have filled;
    # the first walk is replayed last, so its steps are all table hits
    for i, walk in enumerate(walks + walks[:1]):
        if i == len(walks):
            n_contexts = len(model.context_tuples)
            n_answers = sum(map(len, model._transitions))
        ctx_id = model.context_id(start)
        ctx = model.minimal_context(start)
        for tok in walk:
            assert model.context_tuples[ctx_id] == ctx
            lp, next_id = lm.step(model, ctx_id, tok)
            assert lp.hex() == oracles.floored_logprob(model, tok, ctx).hex(), (ctx, tok)
            ctx = oracles.next_context(model, ctx, tok)
            assert model.context_tuples[next_id] == ctx
            ctx_id = next_id
    assert len(model.context_tuples) == n_contexts
    assert sum(map(len, model._transitions)) == n_answers
    assert len(set(model.context_tuples)) == len(model.context_tuples)  # one id each


STEP_TOKENS = ["a", "b", "c/STM", "c/SUF", "d/SUF+", "zz", BOS, EOS, UNK]


@pytest.mark.parametrize("floor", [None, -2.0])
@pytest.mark.parametrize("smoothing", ["mle", "witten-bell", "kneser-ney"])
def test_first_step_answers_are_exact_on_cold_tables(tmp_path_factory, smoothing, floor):
    # a miss is answered from one n-gram lookup and the suffix context's
    # answer; it must equal the direct query bit for bit and store one entry.
    # With the floor raised, stored suffix answers are often clipped, so the
    # miss must then work out the suffix's raw log-prob again, without
    # asking NGramModel.logprob
    fallbacks = []  # per _miss call: whether its context had answered the token
    real_miss = lm._miss

    def counted_miss(model, ctx_id, token, event):
        fallbacks.append(token in model._transitions[ctx_id])
        return real_miss(model, ctx_id, token, event)

    def no_logprob(*args):
        raise AssertionError("a miss asked NGramModel.logprob")

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.lists(st.sampled_from(STEP_TOKENS[:5]), max_size=6),
                    min_size=1, max_size=6),
           st.integers(1, 5), st.booleans(),
           st.lists(st.lists(st.sampled_from(STEP_TOKENS), max_size=10),
                    min_size=1, max_size=5))
    def check(corpus, order, via_arpa, walks):
        model = lm.train_lm(corpus, order, smoothing)
        if via_arpa:
            path = tmp_path_factory.mktemp("arpa") / "model.arpa"
            lm.write_arpa(path, model)
            model = lm.read_arpa(path)
        # each walk from <s> contexts of every length, shortest first, so
        # that longer contexts find their suffixes' answers in the tables
        for walk, start in ((w, (BOS,) * n) for w in walks for n in range(order)):
            ctx_id = model.context_id(start)
            ctx = model.minimal_context(start)
            for tok in walk:
                cold = tok not in model._transitions[ctx_id]
                n_answers = sum(map(len, model._transitions))
                lp, next_id = lm.step(model, ctx_id, tok)
                assert sum(map(len, model._transitions)) == n_answers + cold
                assert lp.hex() == oracles.floored_logprob(model, tok, ctx).hex(), (ctx, tok)
                ctx = oracles.next_context(model, ctx, tok)
                assert model.context_tuples[next_id] == ctx, (ctx, tok)
                ctx_id = next_id
        for cid, ctx in enumerate(model.context_tuples):
            suffix = model.context_tuples[model._suffixes[cid]]
            assert suffix == model.minimal_context(ctx[1:]), ctx

    with pytest.MonkeyPatch.context() as patch:
        if floor is not None:
            patch.setattr(lm, "LOG_ZERO", floor)
        patch.setattr(lm, "_miss", counted_miss)
        patch.setattr(lm.NGramModel, "logprob", no_logprob)
        check()
    # the fallback is taken only where a floor can clip a backoff's suffix
    assert (sum(fallbacks) > 0) == (floor is not None and smoothing != "mle")


@pytest.mark.parametrize("floor", [None, -2.0])
@pytest.mark.parametrize("smoothing", ["mle", "witten-bell", "kneser-ney"])
@pytest.mark.parametrize("order", [1, 3, 5])
def test_logprob_on_warm_tables_is_exact_and_stores_no_answer(order, smoothing, floor):
    # logprob reads the tables step has filled, clipped answers included,
    # and must still give the raw log-prob without adding an entry
    rng = random.Random(order * 13 + len(smoothing))
    model, stream_tokens = _stream_model(None, order, smoothing, False, rng)
    events = sorted(model.vocab | {UNK, EOS, "zz"})
    with pytest.MonkeyPatch.context() as patch:
        if floor is not None:
            patch.setattr(lm, "LOG_ZERO", floor)
        contexts = set()
        for _ in range(6):
            ctx_id = model.context_id((BOS,) * (order - 1))
            for tok in [rng.choice(stream_tokens) for _ in range(15)]:
                contexts.add(model.context_tuples[ctx_id])
                ctx_id = lm.step(model, ctx_id, tok)[1]
        n_answers = sum(map(len, model._transitions))
        for ctx in sorted(contexts):
            for w in events:
                want = oracles.reference_logprob(model, w, ctx).hex()
                assert model.logprob(w, ctx).hex() == want, (ctx, w)
    assert sum(map(len, model._transitions)) == n_answers > 0


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c/STM", "c/STM+", "d/SUF", "d/SUF+"]),
                         max_size=6), min_size=1, max_size=6),
       st.integers(1, 4), st.sampled_from(["mle", "witten-bell", "kneser-ney"]),
       st.sampled_from(["both", "morph", "word"]),
       st.lists(st.sampled_from(["", "a", "c", "zz"]), max_size=3),
       st.lists(st.lists(st.sampled_from(["a", "c/STM", "c/STM+", "d/SUF", "d/SUF+", "zz",
                                          "zz/PRE+"]), max_size=6), min_size=1, max_size=6))
def test_compiled_targets_score_as_plain_tokens(corpus, order, smoothing, models, pending,
                                                 targets):
    # targets with no word-final token, all-final ones, and either LM absent
    lm_m = lm.train_lm(corpus, order, smoothing) if models != "word" else None
    lm_w = (lm.train_lm([oracles.words_of(s) for s in corpus], order, smoothing)
            if models != "morph" else None)
    state = lm.initial_twin_state(lm_m, lm_w)._replace(pending=tuple(pending))
    for tokens in targets:
        want = oracles.reference_twin_extend(state, tokens, lm_m, lm_w)
        compiled = lm.compile_target(tokens)
        assert compiled == tuple(tokens)
        for target in (compiled, tokens, tuple(tokens)):
            got = lm.twin_extend(state, target, lm_m, lm_w)
            assert got[0] == want[0], (state, tokens)
            assert [d.hex() for d in got[1:]] == [d.hex() for d in want[1:]], (state, tokens)
        state = want[0]


def test_twin_extend_pending_word():
    lm_m, lm_w = twin_fixture()
    state = lm.initial_twin_state(lm_m, lm_w)
    state, _, word_delta = lm.twin_extend(state, ["epä/PRE+"], lm_m, lm_w)
    assert word_delta == 0.0
    assert state.pending == ("epä",)


def test_twin_extend_scores_completed_word():
    lm_m, lm_w = twin_fixture()
    state = lm.initial_twin_state(lm_m, lm_w)
    state, _, _ = lm.twin_extend(state, ["epä/PRE+"], lm_m, lm_w)
    state, _, word_delta = lm.twin_extend(state, ["demo/STM+", "en/SUF"], lm_m, lm_w)
    assert word_delta == pytest.approx(lm_w.logprob("epädemoen", [BOS]))
    assert state.pending == ()


def test_twin_monomorphemic_word_single_event():
    lm_m, lm_w = twin_fixture()
    state = lm.initial_twin_state(lm_m, lm_w)
    new_state, morph_delta, word_delta = lm.twin_extend(state, ["maa/STM"], lm_m, lm_w)
    morph_ctx = lm_m.context_tuples[state.morph_ctx]
    word_ctx = lm_w.context_tuples[state.word_ctx]
    assert morph_delta == pytest.approx(lm_m.logprob("maa/STM", morph_ctx))
    assert word_delta == pytest.approx(lm_w.logprob("maa", word_ctx))


def test_finalize_flushes_pending():
    lm_m, lm_w = twin_fixture()
    state = lm.initial_twin_state(lm_m, lm_w)
    state, _, _ = lm.twin_extend(state, ["epä/PRE+"], lm_m, lm_w)
    _, word_delta = lm.twin_finalize(state, lm_m, lm_w)
    flushed = oracles.sentence_logprob(lm_w, ["epä"])
    assert word_delta == pytest.approx(flushed)


def test_finalize_empty_pending_is_eos_only():
    lm_m, lm_w = twin_fixture()
    state = lm.initial_twin_state(lm_m, lm_w)
    morph_delta, word_delta = lm.twin_finalize(state, lm_m, lm_w)
    morph_ctx = lm_m.context_tuples[state.morph_ctx]
    word_ctx = lm_w.context_tuples[state.word_ctx]
    assert morph_delta == pytest.approx(lm_m.logprob(EOS, morph_ctx))
    assert word_delta == pytest.approx(lm_w.logprob(EOS, word_ctx))


def _random_chunks(rng, tokens):
    chunks = []
    i = 0
    while i < len(tokens):
        j = rng.randint(i + 1, len(tokens))
        chunks.append(tokens[i:j])
        i = j
    return chunks


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_twin_word_view_and_chunking_invariance(seed):
    rng = random.Random(seed)
    sentences = [random_morph_sentence(rng) for _ in range(6)]
    word_corpus = [oracles.words_of(s) for s in sentences]
    lm_m = lm.train_lm(sentences, 3, "witten-bell")
    lm_w = lm.train_lm(word_corpus, 2, "witten-bell")
    tokens = random_morph_sentence(rng)

    def run(chunks):
        state = lm.initial_twin_state(lm_m, lm_w)
        m_total = w_total = 0.0
        for chunk in chunks:
            state, dm, dw = lm.twin_extend(state, chunk, lm_m, lm_w)
            m_total += dm
            w_total += dw
        fm, fw = lm.twin_finalize(state, lm_m, lm_w)
        return state, m_total + fm, w_total + fw

    base_state, m_ref, w_ref = run([tokens])
    assert w_ref == pytest.approx(
        oracles.sentence_logprob(lm_w, oracles.words_of(tokens)), abs=1e-9
    )
    assert m_ref == pytest.approx(
        oracles.sentence_logprob(lm_m, tokens), abs=1e-9
    )
    for _ in range(3):
        state, m_got, w_got = run(_random_chunks(rng, tokens))
        assert state == base_state
        assert m_got == pytest.approx(m_ref, abs=1e-9)
        assert w_got == pytest.approx(w_ref, abs=1e-9)


def test_twin_extend_with_none_models():
    lm_m, lm_w = twin_fixture()
    toks = ["maa/STM"]
    state = lm.initial_twin_state(None, lm_w)
    state, dm, dw = lm.twin_extend(state, toks, None, lm_w)
    assert dm == 0.0 and dw != 0.0
    state2 = lm.initial_twin_state(lm_m, None)
    state2, dm2, dw2 = lm.twin_extend(state2, toks, lm_m, None)
    assert dw2 == 0.0 and dm2 != 0.0
