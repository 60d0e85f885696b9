import math
import random
from math import fsum
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from morphsmt import decoder, lm, morpho
from morphsmt.phrasex import PhraseEntry, PhraseTable

import oracles


def entry(src, tgt, phi_f=1.0, phi_b=1.0, lex_f=1.0, lex_b=1.0, extras=()):
    return PhraseEntry(tuple(src), tuple(tgt), phi_f, phi_b, lex_f, lex_b,
                       math.e, 1, frozenset({(0, 0)}), tuple(extras))


def table(entries, granularity="morpheme"):
    return PhraseTable.of(entries, granularity)


def tiny_lms(morph_corpus, word_corpus):
    lm_m = lm.train_lm(morph_corpus, 2, "witten-bell")
    lm_w = lm.train_lm(word_corpus, 2, "witten-bell")
    return lm_m, lm_w


def test_single_option():
    src = morpho.parse_segmented_line("a/STM")
    tab = table([entry(("a/STM",), ("x/STM",))])
    lm_m, lm_w = tiny_lms([["x/STM"]], [["x"]])
    h = decoder.decode(decoder.search(src, tab, lm_m, lm_w, decoder.default_weights()))
    assert decoder.target_tokens(h) == ("x/STM",)


def test_score_equals_weighted_features():
    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x/STM",), 0.5),
        entry(("b/STM",), ("y/STM",), 0.5),
        entry(("a/STM", "b/STM"), ("z/STM",), 0.9),
    ])
    lm_m, lm_w = tiny_lms([["x/STM", "y/STM"], ["z/STM"]], [["x", "y"], ["z"]])
    weights = decoder.default_weights()
    for h in decoder.search(src, tab, lm_m, lm_w, weights, None, 0):
        assert h.score == pytest.approx(oracles.dot(weights, h.features), abs=1e-9)


def test_score_decomposes_over_extensions():
    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x/STM+", "q/SUF"), 0.5),
        entry(("b/STM",), ("y/STM",), 0.5),
    ])
    lm_m, lm_w = tiny_lms([["x/STM+", "q/SUF", "y/STM"]], [["xq", "y"]])
    weights = decoder.default_weights()
    best = decoder.decode(decoder.search(src, tab, lm_m, lm_w, weights, None, 0))
    # recompute features offline from the target token stream
    tokens = decoder.target_tokens(best)
    offline = {
        "lm_morph": oracles.sentence_logprob(lm_m, tokens),
        "lm_word": oracles.sentence_logprob(lm_w, morpho.words_from_tokens(tokens)),
        "phi_fwd": math.log(0.5) * 2,
        "phi_bwd": 0.0,
        "lex_fwd": 0.0,
        "lex_bwd": 0.0,
        "phrase_penalty": 2.0,
        "word_penalty": 2.0,
    }
    for name, value in offline.items():
        assert best.features.get(name, 0.0) == pytest.approx(value, abs=1e-9), name


def test_oov_copies_through_as_own_word():
    src = morpho.parse_segmented_line("zz/STM+ q/SUF")
    tab = table([entry(("a/STM",), ("x/STM",))])
    lm_m, lm_w = tiny_lms([["x/STM"]], [["x"]])
    h = decoder.decode(decoder.search(src, tab, lm_m, lm_w, decoder.default_weights(), None, 0))
    assert decoder.target_tokens(h) == ("zz/STM+", "q/SUF")
    assert h.features["oov"] == 1.0
    assert morpho.words_from_tokens(decoder.target_tokens(h)) == ["zzq"]


def test_phi_only_weights_pick_per_word_argmax():
    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x1/STM",), 0.8),
        entry(("a/STM",), ("x2/STM",), 0.2),
        entry(("b/STM",), ("y1/STM",), 0.3),
        entry(("b/STM",), ("y2/STM",), 0.7),
    ])
    lm_m, lm_w = tiny_lms([["x1/STM"]], [["x1"]])
    weights = {"phi_fwd": 1.0}
    h = decoder.decode(decoder.search(src, tab, None, None, weights, None, 0))
    assert decoder.target_tokens(h) == ("x1/STM", "y2/STM")
    assert h.score == pytest.approx(math.log(0.8) + math.log(0.7))


def test_word_lm_weight_zero_makes_grouping_irrelevant():
    # equal morpheme sequences grouped differently: same score when lm_word=0
    src = morpho.parse_segmented_line("a/STM")
    t1 = table([entry(("a/STM",), ("x/STM+", "y/SUF"))])
    t2 = table([entry(("a/STM",), ("x/STM", "y/STM"))])
    lm_m, lm_w = tiny_lms([["x/STM+", "y/SUF"], ["x/STM", "y/STM"]], [["xy"], ["x", "y"]])
    weights = {"lm_morph": 1.0, "lm_word": 0.0, "phi_fwd": 1.0, "word_penalty": 0.0}
    h1 = decoder.decode(decoder.search(src, t1, lm_m, lm_w, weights, None, 0))
    h2 = decoder.decode(decoder.search(src, t2, lm_m, lm_w, weights, None, 0))
    m1 = h1.features["lm_morph"]
    m2 = h2.features["lm_morph"]
    # the twin state is carried but inert: scores agree iff morph streams agree
    assert m1 != m2 or h1.score == pytest.approx(h2.score)
    tok1 = [morpho.split_token_string(t)[0] for t in decoder.target_tokens(h1)]
    tok2 = [morpho.split_token_string(t)[0] for t in decoder.target_tokens(h2)]
    assert tok1 == tok2


def test_distortion_limit_zero_is_monotone():
    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x/STM",)),
        entry(("b/STM",), ("y/STM",)),
    ])
    h = decoder.decode(decoder.search(src, tab, None, None, {"phi_fwd": 1.0}, None, 0))
    assert h.features.get("distortion", 0.0) == 0.0
    assert decoder.target_tokens(h) == ("x/STM", "y/STM")


def test_coverage_strictly_grows():
    src = morpho.parse_segmented_line("a/STM b/STM c/STM")
    tab = table([entry((f"{w}/STM",), (f"{w}{w}/STM",)) for w in "abc"])
    h = decoder.decode(decoder.search(src, tab, None, None, {"phi_fwd": 1.0}, None, 6))
    seen = []
    node = h
    while node is not None:
        seen.append(node.coverage.bit_count())
        node = node.parent
    assert seen == sorted(seen, reverse=True)
    assert len(set(seen)) == len(seen)


def test_word_granularity_system():
    src = cliless_words(["hello", "world"])
    tab = table([
        entry(("hello",), ("moi",)),
        entry(("world",), ("maailma",)),
        entry(("hello", "world"), ("moi", "maailma")),
    ], granularity="word")
    lm_w = lm.train_lm([["moi", "maailma"]], 2, "witten-bell")
    weights = decoder.default_weights(with_morph_lm=False)
    h = decoder.decode(decoder.search(src, tab, None, lm_w, weights, None, 0))
    assert decoder.target_tokens(h) == ("moi/STM", "maailma/STM")
    assert morpho.words_from_tokens(decoder.target_tokens(h)) == ["moi", "maailma"]


@pytest.mark.parametrize("words, entries, word", [
    (["q/STM+", "b"], [], "q/STM+"),  # an OOV pass-through
    (["a", "b"], [entry(("a",), ("x/STM+",))], "x/STM+"),  # a table target
])
def test_a_word_shaped_like_a_token_stays_one_word(words, entries, word):
    from morphsmt import cli

    source = cli._search_sources("word", [words])[0]
    tab = table(entries, granularity="word")
    options = decoder.build_options(source, tab)
    assert [(o.target, o.n_words) for o in options] == [((f"{word}/STM",), 1), (("b/STM",), 1)]
    weights = decoder.default_weights(with_morph_lm=False, with_word_lm=False)
    for beam, distortion in ((None, 0), (100, 6)):
        h = decoder.decode(decoder.search(source, tab, None, None, weights, beam, distortion))
        assert morpho.words_from_tokens(decoder.target_tokens(h)) == [word, "b"]


def cliless_words(words):
    return tuple(f"{w}/STM" for w in words)


def test_nbest_sorted_distinct_and_consistent():
    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x1/STM",), 0.8),
        entry(("a/STM",), ("x2/STM",), 0.2),
        entry(("b/STM",), ("y1/STM",), 0.6),
        entry(("b/STM",), ("y2/STM",), 0.4),
    ])
    lm_m, lm_w = tiny_lms([["x1/STM", "y1/STM"]], [["x1", "y1"]])
    weights = decoder.default_weights()
    lists, _ = decoder.nbest(src, tab, lm_m, lm_w, weights, None, 0, 10)
    assert len(lists) == 4
    surfaces = [e.tokens for e in lists]
    assert len(set(surfaces)) == len(surfaces)
    scores = [e.score for e in lists]
    assert scores == sorted(scores, reverse=True)
    for e in lists:
        assert e.score == pytest.approx(oracles.dot(weights, e.features), abs=1e-9)


def test_nbest_single_option_list_of_one():
    src = morpho.parse_segmented_line("a/STM")
    tab = table([entry(("a/STM",), ("x/STM",))])
    lists, _ = decoder.nbest(src, tab, None, None, {"phi_fwd": 1.0}, None, 0, 5)
    assert len(lists) == 1


def test_trace_reports_word_spans():
    src = morpho.parse_segmented_line("aa/STM+ b/SUF c/STM")
    tab = table([
        entry(("aa/STM+", "b/SUF"), ("x/STM",)),
        entry(("c/STM",), ("y/STM+", "z/SUF")),
    ])
    h = decoder.decode(decoder.search(src, tab, None, None, {"phi_fwd": 1.0}, None, 0))
    got = decoder.trace(h, src)
    assert got == [
        (0, 1, ("aab",), ("x",)),
        (1, 2, ("c",), ("yz",)),
    ]


def test_nbest_file_roundtrip(tmp_path):
    src = morpho.parse_segmented_line("a/STM")
    tab = table([entry(("a/STM",), ("x/STM",), 0.5)])
    lm_m, lm_w = tiny_lms([["x/STM"]], [["x"]])
    lists = [decoder.nbest(src, tab, lm_m, lm_w, decoder.default_weights(), None, 0, 5)[0]]
    path = tmp_path / "nbest.txt"
    decoder.write_nbest(path, lists)
    back = oracles.read_nbest(path)
    assert back == lists


NBEST_LINE = "0 ||| x/STM ||| lm_morph=-1.5 phi_fwd=-0.25 ||| -2.0\n"
MALFORMED_NBEST = {
    # case: (second line, message)
    "too-few-fields": ("0 ||| x/STM ||| phi_fwd=-0.25\n",
                       "expected 4 '|||'-separated fields, got 3: '0 ||| x/STM ||| phi_fwd=-0.25'"),
    "too-many-fields": ("0 ||| x/STM ||| phi_fwd=-0.25 ||| -2.0 ||| 1\n",
                        "expected 4 '|||'-separated fields, got 5: "
                        "'0 ||| x/STM ||| phi_fwd=-0.25 ||| -2.0 ||| 1'"),
    "score": ("0 ||| x/STM ||| phi_fwd=-0.25 ||| high\n",
              "could not convert string to float: 'high'"),
    "feature-value": ("0 ||| x/STM ||| phi_fwd=oops ||| -2.0\n",
                      "could not convert string to float: 'oops'"),
    "feature-without-value": ("0 ||| x/STM ||| phi_fwd ||| -2.0\n",
                              "expected name=value, got 'phi_fwd'"),
    "sentence-id": ("first ||| x/STM ||| phi_fwd=-0.25 ||| -2.0\n",
                    "bad sentence id: 'first'"),
    "negative-sentence-id": ("-1 ||| x/STM ||| phi_fwd=-0.25 ||| -2.0\n",
                             "bad sentence id: '-1'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NBEST))
def test_read_nbest_names_file_and_line_of_malformed_input(tmp_path, case):
    line, message = MALFORMED_NBEST[case]
    path = tmp_path / "nbest.txt"
    path.write_text(NBEST_LINE + line, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        oracles.read_nbest(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_weights_file_roundtrip(tmp_path):
    weights = decoder.default_weights(n_extras=2)
    path = tmp_path / "weights.tsv"
    decoder.write_weights(path, weights)
    assert decoder.read_weights(path) == weights


@pytest.mark.parametrize("n_extras", [0, 3])
@pytest.mark.parametrize("with_morph_lm", [True, False])
@pytest.mark.parametrize("with_word_lm", [True, False])
def test_default_weights_list_the_present_features_in_order(n_extras, with_morph_lm,
                                                            with_word_lm):
    want = [("lm_morph", 0.5)] * with_morph_lm + [("lm_word", 0.15)] * with_word_lm + [
        ("phi_fwd", 0.4), ("phi_bwd", 0.4), ("lex_fwd", 0.2), ("lex_bwd", 0.2),
        ("phrase_penalty", -0.2), ("word_penalty", 0.9), ("distortion", -0.3), ("oov", 0.0),
    ] + [(f"merge_feat_{i}", 0.3) for i in range(1, n_extras + 1)]
    assert list(decoder.default_weights(n_extras, with_morph_lm, with_word_lm).items()) == want


file_value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0]),
                       st.floats(allow_nan=False, allow_infinity=False))
feature_names = st.one_of(st.sampled_from(decoder.FEATURE_ORDER),
                          st.text(alphabet="abz_0", min_size=1, max_size=4))


@st.composite
def nbest_lists(draw):
    """One non-empty list per sentence, as ``nbest`` returns; an entry may
    have no tokens or no features."""
    entry = st.builds(
        decoder.NBestEntry,
        st.lists(st.sampled_from(["x/STM", "y/SUF+", "z"]), max_size=3).map(tuple),
        st.dictionaries(feature_names, file_value, max_size=3),
        file_value,
    )
    return draw(st.lists(st.lists(entry, min_size=1, max_size=3), max_size=4))


@settings(deadline=None)
@given(nbest_lists())
def test_nbest_write_read_write_is_byte_identical(tmp_path_factory, lists):
    path = tmp_path_factory.mktemp("nbest") / "nbest.txt"
    decoder.write_nbest(path, lists)
    first = path.read_bytes()
    back = oracles.read_nbest(path)
    assert back == lists
    decoder.write_nbest(path, back)
    assert path.read_bytes() == first


@settings(deadline=None)
@given(st.dictionaries(feature_names, file_value, max_size=6))
def test_weights_write_read_write_is_byte_identical(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("weights") / "weights.tsv"
    decoder.write_weights(path, weights)
    first = path.read_bytes()
    back = decoder.read_weights(path)
    assert back == weights
    decoder.write_weights(path, back)
    assert path.read_bytes() == first


@st.composite
def morph_word(draw, vocab="ab"):
    """One word as token strings: an optional prefix, a stem, an optional suffix."""
    tags = ["PRE"] * draw(st.integers(0, 1)) + ["STM"] + ["SUF"] * draw(st.integers(0, 1))
    return tuple(f"{draw(st.sampled_from(vocab))}/{tag}{'+' * (k + 1 < len(tags))}"
                 for k, tag in enumerate(tags))


@st.composite
def tables_and_inputs(draw):
    """A random table of either granularity with one entry that no input can
    look up, which has the longest source and the most extras, and input
    sentences of words drawn from the table's vocabulary."""
    granularity = draw(st.sampled_from(["morpheme", "word"]))
    if granularity == "word":  # words_as_tokens input, a table of bare surfaces
        word = st.sampled_from("abc").map(lambda w: (f"{w}/STM",))
    else:
        word = morph_word()
    phrase = st.lists(word, min_size=1, max_size=3).map(lambda ws: sum(ws, ()))
    view = (lambda p: tuple(morpho.words_from_tokens(p))) if granularity == "word" else tuple
    pairs = draw(st.lists(st.tuples(phrase, st.sampled_from(["x/STM", "y/STM", "z/STM"]),
                                    st.integers(0, 2)),
                          max_size=25, unique_by=lambda p: (view(p[0]), p[1])))
    entries = [entry(view(src), (tgt,), extras=[0.5] * n) for src, tgt, n in pairs]
    longest = max((len(morpho.word_spans(src)) for src, _, _ in pairs), default=0) + 1
    most = max((n for _, _, n in pairs), default=0) + 1
    far = ("q/STM",) * longest if granularity == "morpheme" else ("q",) * longest
    entries.append(entry(far, ("x/STM",), extras=[0.5] * most))
    sentences = draw(st.lists(st.lists(word, max_size=6).map(lambda ws: sum(ws, ())),
                              min_size=1, max_size=4))
    return table(entries, granularity), sentences, far


@settings(max_examples=300, deadline=None)
@given(tables_and_inputs())
def test_restricted_table_gives_every_input_sentence_the_same_options(case):
    full, sentences, far = case
    restricted = decoder.restrict_table(full, sentences)
    for source in sentences:
        assert decoder.build_options(source, restricted) == decoder.build_options(source, full)
    # the entry with the longest source and the most extras is dropped, and
    # the span limit and the extras count stay the whole table's
    assert far in full.by_source and far not in restricted.by_source
    assert (restricted.granularity, restricted.max_span, restricted.n_extras) == (
        full.granularity, full.max_span, full.n_extras)
    assert list(restricted.by_source) == sorted(restricted.by_source)
    assert all(full.by_source[src] is entries for src, entries in restricted.by_source.items())


def test_restricted_word_table_is_keyed_by_bare_surfaces():
    full = table([entry(["a"], ["x"]), entry(["a", "b"], ["y"]), entry(["c"], ["z"])], "word")
    source = ("a/STM", "b/STM")  # as words_as_tokens wraps the words a b
    restricted = decoder.restrict_table(full, [source])
    assert list(restricted.by_source) == [("a",), ("a", "b")]
    assert decoder.build_options(source, restricted) == decoder.build_options(source, full)


def exhaustive_monotone_best(src_words, options, lm_m, lm_w, weights):
    """Independent oracle: enumerate all monotone segmentations, score offline."""
    n = len(src_words)
    best = [None]

    def score(chosen):
        feats = {}
        tokens = []
        for opt in chosen:
            tokens.extend(opt.target)
            for k, v in opt.tm_features:
                feats[k] = feats.get(k, 0.0) + v
        feats["word_penalty"] = float(len(morpho.words_from_tokens(tokens)))
        if lm_m is not None:
            feats["lm_morph"] = oracles.sentence_logprob(lm_m, tokens)
        if lm_w is not None:
            feats["lm_word"] = oracles.sentence_logprob(
                lm_w, morpho.words_from_tokens(tokens))
        return oracles.dot(weights, feats)

    def rec(pos, chosen):
        if pos == n:
            s = score(chosen)
            if best[0] is None or s > best[0]:
                best[0] = s
            return
        for opt in options:
            if opt.start == pos:
                rec(opt.end, chosen + [opt])

    rec(0, [])
    return best[0]


def test_matches_exhaustive_search_on_random_instances():
    rng = random.Random(99)
    for _ in range(40):
        n_words = rng.randint(1, 4)
        words = [f"w{i}/STM" for i in range(n_words)]
        src = morpho.parse_segmented_line(" ".join(words))
        entries = []
        vocab = []
        for i in range(n_words):
            for o in range(rng.randint(1, 3)):
                tgt = (f"t{i}{o}/STM",)
                vocab.append(tgt[0])
                entries.append(entry((words[i],), tgt, rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0)))
        for i in range(n_words - 1):
            if rng.random() < 0.5:
                tgt = (f"p{i}/STM+", f"s{i}/SUF")
                vocab.extend(tgt)
                entries.append(entry(tuple(words[i:i + 2]), tgt,
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
        tab = table(entries)
        lm_m = lm.train_lm([[v] for v in vocab], 2, "witten-bell")
        lm_w = lm.train_lm([[morpho.split_token_string(v)[0]] for v in vocab], 2,
                           "witten-bell")
        weights = decoder.default_weights()
        got = decoder.decode(decoder.search(src, tab, lm_m, lm_w, weights, None, 0))
        want = exhaustive_monotone_best(words, decoder.build_options(src, tab),
                                        lm_m, lm_w, weights)
        assert got.score == pytest.approx(want, abs=1e-9)


# --- exactness of early rejection and the shared search ----------------------


@pytest.fixture(scope="module")
def bundled_models(synth_config):
    from morphsmt import cli

    data = cli._load_data(synth_config)
    tab, _, _ = cli._table(synth_config, data, "morpheme", boundary_aware=True)
    lm_m = lm.train_lm(data["morpheme"]["train_tgt"], synth_config.lm_morph_order, "witten-bell")
    lm_w = lm.train_lm(data["word"]["train_tgt"], synth_config.lm_word_order, "witten-bell")
    return data["morpheme"]["dev_src"], tab, lm_m, lm_w


# MERT can drive an LM weight below zero, which switches pre-LM rejection off
LM_WEIGHTS = {
    "positive": {},
    "zero": {"lm_morph": 0.0, "lm_word": 0.0},
    "negative": {"lm_morph": -0.38},
}


def test_warm_and_fresh_lm_tables_give_the_same_nbest_lists(bundled_models, tmp_path):
    # the LMs' transition tables live as long as the models: a second pass
    # over the dev set runs on the tables the first one filled, a third on
    # the same models read back from ARPA again, with empty tables (ARPA's
    # base-10 log-probs round, so every pass uses models read from ARPA)
    sources, tab, trained_m, trained_w = bundled_models
    lm.write_arpa(tmp_path / "m.arpa", trained_m)
    lm.write_arpa(tmp_path / "w.arpa", trained_w)
    lm_m, lm_w = lm.read_arpa(tmp_path / "m.arpa"), lm.read_arpa(tmp_path / "w.arpa")
    weights = decoder.default_weights()

    def nbest_lists(lm_m, lm_w):
        return [[(e.tokens, [(k, v.hex()) for k, v in e.features.items()], e.score.hex())
                 for e in decoder.nbest(src, tab, lm_m, lm_w, weights, 10, 6, 20)[0]]
                for src in sources]

    def table_sizes():
        return [(len(m.context_tuples), sum(map(len, m._transitions))) for m in (lm_m, lm_w)]

    cold = nbest_lists(lm_m, lm_w)
    sizes = table_sizes()
    assert cold == nbest_lists(lm_m, lm_w)
    assert table_sizes() == sizes  # the second pass found every answer in the tables
    assert cold == nbest_lists(lm.read_arpa(tmp_path / "m.arpa"),
                               lm.read_arpa(tmp_path / "w.arpa"))


def test_read_weights_rejects_a_repeated_name(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("phi_fwd\t0.1\nlm_morph\t0.5\n\nphi_fwd\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        decoder.read_weights(path)
    assert str(info.value) == f"{path}:4: duplicate weight 'phi_fwd', first on line 1"


def fingerprint(hyps):
    return [
        (decoder.target_tokens(h), [(k, v.hex()) for k, v in sorted(h.features.items())],
         h.score.hex())
        for h in hyps
    ]


@pytest.mark.parametrize("lm_weights", sorted(LM_WEIGHTS))
@pytest.mark.parametrize("beam", [1, 3, 20, None])
def test_search_matches_reference_bit_for_bit(bundled_models, beam, lm_weights):
    from oracles import reference_search

    sources, tab, lm_m, lm_w = bundled_models
    weights = {**decoder.default_weights(), **LM_WEIGHTS[lm_weights]}
    distortion = 6
    if beam is None:  # an unpruned search grows exponentially: short and monotone
        sources = [s for s in sources if len(morpho.word_spans(s)) <= 3][:5]
        distortion = 0
    assert sources
    for src in sources:
        want = reference_search(src, tab, lm_m, lm_w, weights, beam, distortion)
        got = decoder.search(src, tab, lm_m, lm_w, weights, beam, distortion)
        assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("lm_weights,rejects", [("positive", True), ("zero", True),
                                                ("negative", False)])
def test_pre_lm_rejection_skips_lm_queries_only_when_lm_weights_nonnegative(
        bundled_models, monkeypatch, lm_weights, rejects):
    # the plain search asks twin_extend about every offered (state, target);
    # both searches offer the same children, so ``search`` asks fewer
    # distinct questions only if it rejects offers before their LM queries
    from oracles import reference_search

    sources, tab, lm_m, lm_w = bundled_models
    weights = {**decoder.default_weights(), **LM_WEIGHTS[lm_weights]}
    asked = []
    real = decoder.twin_extend
    monkeypatch.setattr(decoder, "twin_extend",
                        lambda *a: asked.append((a[0], a[1])) or real(*a))
    skipped = False
    for src in sources[:5]:
        reference_search(src, tab, lm_m, lm_w, weights, 3, 6)
        offered = set(asked)
        asked.clear()
        decoder.search(src, tab, lm_m, lm_w, weights, 3, 6)
        assert len(set(asked)) == len(asked)  # the memo asks each question once
        assert set(asked) <= offered
        skipped = skipped or set(asked) < offered
        asked.clear()
    assert skipped == rejects


@pytest.mark.parametrize("lm_weights", sorted(LM_WEIGHTS))
def test_real_key_rejection_skips_extensions_for_every_lm_weight_sign(
        bundled_models, monkeypatch, lm_weights):
    from oracles import reference_search

    sources, tab, lm_m, lm_w = bundled_models
    weights = {**decoder.default_weights(), **LM_WEIGHTS[lm_weights]}
    # the plain search scores every child it builds with one twin_extend call
    calls = []
    real = decoder.twin_extend
    monkeypatch.setattr(decoder, "twin_extend", lambda *a: calls.append(1) or real(*a))
    for src in sources[:5]:
        reference_search(src, tab, lm_m, lm_w, weights, 3, 6)
    n_reference = len(calls)
    monkeypatch.setattr(decoder, "twin_extend", real)
    calls.clear()
    real_extend = decoder._extend
    monkeypatch.setattr(decoder, "_extend", lambda *a: calls.append(1) or real_extend(*a))
    for src in sources[:5]:
        decoder.search(src, tab, lm_m, lm_w, weights, 3, 6)
    n_search = len(calls)
    assert n_search < n_reference


@pytest.mark.parametrize("n", [1, 5])
def test_tied_targets_rank_the_larger_first_and_decode_returns_nbest_head(n):
    # two targets of one source with exactly the same score: both selections
    # break the tie towards the larger target string
    src = morpho.parse_segmented_line("a/STM")
    tab = table([entry(("a/STM",), ("x1/STM",), 0.5), entry(("a/STM",), ("x2/STM",), 0.5)])
    entries, complete = decoder.nbest(src, tab, None, None, {"phi_fwd": 1.0}, None, 0, n)
    assert [h.score for h in complete] == [math.log(0.5)] * 2
    assert [e.tokens for e in entries] == [("x2/STM",), ("x1/STM",)][:n]
    best = decoder.decode(complete)
    assert (decoder.target_tokens(best), best.features, best.score) == (
        entries[0].tokens, entries[0].features, entries[0].score)


def test_decode_builds_a_target_only_for_the_top_score(monkeypatch):
    # distinct scores: the one top-score hypothesis is picked without
    # building any other hypothesis' target
    src = morpho.parse_segmented_line("a/STM")
    tab = table([entry(("a/STM",), (f"x{i}/STM",), p) for i, p in enumerate((0.3, 0.5, 0.4))])
    complete = decoder.search(src, tab, None, None, {"phi_fwd": 1.0}, None, 0)
    assert sorted(h.score for h in complete) == [math.log(p) for p in (0.3, 0.4, 0.5)]
    calls = []
    real = decoder.target_tokens
    monkeypatch.setattr(decoder, "target_tokens", lambda hyp: calls.append(1) or real(hyp))
    assert real(decoder.decode(complete)) == ("x1/STM",)
    assert len(calls) == 1


def test_stack_offered_more_than_beam_is_sorted_even_after_rejections():
    # x3 is rejected, so stack 1 holds exactly beam=2 hypotheses; it was
    # offered three, so it is sorted as the plain search sorts it
    from oracles import reference_search

    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x1/STM",), 0.5),
        entry(("a/STM",), ("x2/STM",), 0.9),
        entry(("a/STM",), ("x3/STM",), 0.1),
        entry(("b/STM",), ("y/STM",)),
    ])
    weights = {"phi_fwd": 1.0}
    got = decoder.search(src, tab, None, None, weights, 2, 0)
    assert [decoder.target_tokens(h)[0] for h in got] == ["x2/STM", "x1/STM"]
    assert fingerprint(got) == fingerprint(reference_search(src, tab, None, None, weights, 2, 0))


@pytest.mark.parametrize("lm_weights", sorted(LM_WEIGHTS))
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_search_matches_reference_bit_for_bit_under_scaled_weights(bundled_models, scale,
                                                                    lm_weights):
    # the cheap key's slack scales with the terms' magnitudes, so rejection
    # stays exact whatever the weights' scale
    from oracles import reference_search

    sources, tab, lm_m, lm_w = bundled_models
    weights = {name: scale * value
               for name, value in {**decoder.default_weights(), **LM_WEIGHTS[lm_weights]}.items()}
    for src in sources[:8]:
        assert fingerprint(decoder.search(src, tab, lm_m, lm_w, weights, 3, 6)) == fingerprint(
            reference_search(src, tab, lm_m, lm_w, weights, 3, 6))


def offer_keys(wvec, parent, template, jump, rest, morph_delta, word_delta):
    """(cheap, magnitude, exact) keys of one offer before and after its LM
    deltas.  Slots: the TM features, then lm_morph, lm_word, word_penalty
    and distortion.  The option's TM score and magnitude and the parent's
    magnitude come from the decoder's own helpers; the additions below copy
    the order of those in ``search`` (``base``, ``key``, ``key + lm_term``)
    and must change with them."""
    tm, mag = decoder._tm_score(wvec, template)
    jump_term = wvec[-1] * jump
    base = fsum(map(mul, wvec, parent)) + jump_term + rest
    base_mag = decoder._magnitude(wvec, parent) + abs(jump_term) + abs(rest)
    morph_term, word_term = wvec[-4] * morph_delta, wvec[-3] * word_delta
    values = list(map(add, parent, template))
    values[-1] += jump
    pre_lm = (base + tm, base_mag + mag, fsum(map(mul, wvec, values)) + rest)
    values[-4] += morph_delta
    values[-3] += word_delta
    real = (pre_lm[0] + (morph_term + word_term),
            pre_lm[1] + (abs(morph_term) + abs(word_term)),
            fsum(map(mul, wvec, values)) + rest)
    return pre_lm, real


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# a sum of log-probs, some of them floored at LOG_ZERO
log_prob = st.one_of(st.floats(min_value=-1e3, max_value=0.0),
                     st.integers(1, 40).map(lambda k: k * lm.LOG_ZERO))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_exact_key_lies_within_slack_of_the_cheap_key(data):
    n_tm = data.draw(st.integers(1, 8))
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e6]))
    wvec = [scale * w for w in data.draw(st.lists(finite, min_size=n_tm + 4,
                                                  max_size=n_tm + 4))]
    parent = [*data.draw(st.lists(finite, min_size=n_tm, max_size=n_tm)),
              data.draw(log_prob), data.draw(log_prob),
              float(data.draw(st.integers(0, 60))), float(data.draw(st.integers(0, 400)))]
    template = [*data.draw(st.lists(finite, min_size=n_tm, max_size=n_tm)),
                0.0, 0.0, float(data.draw(st.integers(0, 8))), 0.0]
    keys = offer_keys(wvec, parent, template, data.draw(st.integers(0, 20)), data.draw(finite),
                      data.draw(log_prob), data.draw(log_prob))
    for cheap, magnitude, exact in keys:
        # the derivation in the decoder bounds the gap by about 11 units in
        # the last place of the magnitude; SLACK is far above that
        assert abs(exact - cheap) <= 12 * 2.0 ** -53 * magnitude
        assert abs(exact - cheap) < decoder.SLACK * magnitude


def test_offer_a_rounding_error_above_the_heap_minimum_is_kept(monkeypatch):
    # In real numbers x+y1 and x+y2 both score -1.57.  In floats y2's exact
    # key is one ulp above y1's, which is the minimum of the full beam-1
    # heap, and y2's cheap key is one ulp below it: only the slack keeps y2,
    # which the plain search ranks first.
    from oracles import reference_search

    weights = (0.1, 0.4)
    x, y1, y2 = (-2.9, -0.8), (-1.2, -2.1), (-1.6, -2.0)
    exact1, exact2 = (fsum(map(mul, weights, map(add, x, y))) for y in (y1, y2))
    assert fsum(map(mul, weights, x)) + fsum(map(mul, weights, y2)) < exact1 < exact2

    options = [
        decoder.TranslationOption(start, start + 1, (target,),
                                  (("phi_fwd", phi_fwd), ("phi_bwd", phi_bwd)), 1, 1 << start)
        for start, target, (phi_fwd, phi_bwd) in ((0, "x/STM", x), (1, "y1/STM", y1),
                                                  (1, "y2/STM", y2))]
    monkeypatch.setattr(decoder, "build_options", lambda *args: options)
    src = morpho.parse_segmented_line("a/STM b/STM")
    named = dict(zip(("phi_fwd", "phi_bwd"), weights))
    got = decoder.search(src, None, None, None, named, 1, 0)
    assert [decoder.target_tokens(h) for h in got] == [("x/STM", "y2/STM")]
    assert fingerprint(got) == fingerprint(reference_search(src, None, None, None, named, 1, 0))


def test_stack_offered_more_than_beam_only_through_a_rejected_group_is_sorted(monkeypatch):
    # From the root, x1 and x2 fill stack 1's beam-2 heap; y1 and y2 (word
    # b, a jump away) then each fail the pre-LM test.  Stack 1 holds two
    # hypotheses but was offered four, so it is sorted: x2 is expanded first.
    from oracles import reference_search

    src = morpho.parse_segmented_line("a/STM b/STM")
    tab = table([
        entry(("a/STM",), ("x1/STM",), 0.5),
        entry(("a/STM",), ("x2/STM",), 0.9),
        entry(("b/STM",), ("y1/STM",), 0.1),
        entry(("b/STM",), ("y2/STM",), 0.05),
    ])
    weights = {"phi_fwd": 1.0, "distortion": -1.0}
    parents = []
    real_extend = decoder._extend
    monkeypatch.setattr(decoder, "_extend",
                        lambda hyp, *a: parents.append(hyp) or real_extend(hyp, *a))
    got = decoder.search(src, tab, None, None, weights, 2, 6)
    assert [decoder.target_tokens(h) for h in parents] == [
        (), (), ("x2/STM",), ("x2/STM",), ("x1/STM",)]
    assert fingerprint(got) == fingerprint(reference_search(src, tab, None, None, weights, 2, 6))


def single_word_options(*specs):
    """Options over one source word each: (start, target, phi_fwd, phi_bwd)."""
    return [decoder.TranslationOption(start, start + 1, (target,),
                                      (("phi_fwd", phi_fwd), ("phi_bwd", phi_bwd)), 1,
                                      1 << start)
            for start, target, phi_fwd, phi_bwd in specs]


def test_group_with_a_nan_key_after_its_first_member_is_not_rejected_whole(monkeypatch):
    # From the root, x fills stack 1's beam-1 heap, and then y1 and y2 (word
    # b, a jump away) are offered.  y1 fails the pre-LM test, but y2's key
    # is NaN (weight 0 times an infinite score), which no cheap test rejects
    # and the exact test keeps: so y2 is built.
    from oracles import reference_search

    monkeypatch.setattr(decoder, "build_options", lambda *args: single_word_options(
        (0, "x/STM", -1.0, 0.0), (1, "y1/STM", -5.0, 0.0), (1, "y2/STM", -5.0, math.inf)))
    built = []
    real_extend = decoder._extend
    monkeypatch.setattr(decoder, "_extend",
                        lambda hyp, opt, *a: built.append(opt.target) or real_extend(hyp, opt, *a))
    src = morpho.parse_segmented_line("a/STM b/STM")
    weights = {"phi_fwd": 1.0, "phi_bwd": 0.0, "distortion": -1.0}
    got = decoder.search(src, None, None, None, weights, 1, 6)
    assert ("y2/STM",) in built[:2]
    assert ("y1/STM",) not in built[:2]
    assert fingerprint(got) == fingerprint(reference_search(src, None, None, None, weights, 1, 6))


def test_option_whose_term_magnitudes_overflow_is_searched(monkeypatch):
    # y2's weighted terms, +-1e308, cancel in its exact key, but the sum of
    # their magnitudes overflows: the cheap test then keeps every offer of
    # y2 and the exact key decides
    from oracles import reference_search

    monkeypatch.setattr(decoder, "build_options", lambda *args: single_word_options(
        (0, "x/STM", -1.0, 0.0), (1, "y1/STM", -5.0, 0.0), (1, "y2/STM", 1e308, -1e308)))
    src = morpho.parse_segmented_line("a/STM b/STM")
    weights = {"phi_fwd": 1.0, "phi_bwd": 1.0, "distortion": -1.0}
    got = decoder.search(src, None, None, None, weights, 1, 6)
    assert [decoder.target_tokens(h) for h in got] == [("x/STM", "y2/STM")]
    assert fingerprint(got) == fingerprint(reference_search(src, None, None, None, weights, 1, 6))


# --- flat feature vectors: more tables and weights against the plain search
# and the dict-per-extension scoring ------------------------------------------


def assert_matches_references(sources, tab, lm_m, lm_w, weights, beam, distortion):
    """``search`` equals ``reference_search`` in fingerprint, and every
    hypothesis on each result's path has the features and score, in float
    hex, that one dict per extension scored by ``oracles.dot`` gives."""
    from oracles import reference_search, replay_scores

    for src in sources:
        got = decoder.search(src, tab, lm_m, lm_w, weights, beam, distortion)
        assert fingerprint(got) == fingerprint(
            reference_search(src, tab, lm_m, lm_w, weights, beam, distortion))
        for hyp in got:
            path = []
            node = hyp
            while node.option is not None:
                path.append(node)
                node = node.parent
            want = replay_scores(hyp, lm_m, lm_w, weights)
            assert [([(k, v.hex()) for k, v in sorted(h.features.items())], h.score.hex())
                    for h in reversed(path)] == [
                ([(k, v.hex()) for k, v in sorted(feats.items())], score.hex())
                for feats, score in want]


def test_search_matches_references_on_merged_table(bundled_models, synth_config):
    from morphsmt import cli, merge

    sources, tab, lm_m, lm_w = bundled_models
    classic, _, _ = cli._table(synth_config, cli._load_data(synth_config), "morpheme",
                               boundary_aware=False)
    merged = merge.merge_add_features(tab, classic, 2)
    weights = decoder.default_weights(n_extras=2)
    assert any(e.extras for e in merged)
    assert_matches_references(sources[:12], merged, lm_m, lm_w, weights, 5, 6)


def test_search_matches_references_when_first_word_is_oov(bundled_models):
    sources, tab, lm_m, lm_w = bundled_models
    oov = morpho.parse_segmented_line("qqq/STM+ zzz/SUF")
    sources = [oov + s for s in sources[:12]]
    weights = decoder.default_weights()
    for beam, distortion in ((5, 0), (5, 6)):
        assert_matches_references(sources, tab, lm_m, lm_w, weights, beam, distortion)
    # monotone, the first extension is the OOV pass-through: it touches the
    # phrase penalty and oov but no translation probability
    node = decoder.search(sources[0], tab, lm_m, lm_w, weights, 5, 0)[0]
    while node.parent.option is not None:
        node = node.parent
    assert {"phrase_penalty", "oov"} <= set(node.features)
    assert not any(name.startswith("phi_") for name in node.features)


@pytest.mark.parametrize("distortion", [0, 6])
@pytest.mark.parametrize("lm_sign", ["negative", "zero", "mixed"])
def test_search_matches_references_under_mert_like_weights(bundled_models, distortion,
                                                           lm_sign):
    sources, tab, lm_m, lm_w = bundled_models
    rng = random.Random(f"{distortion}{lm_sign}")
    for trial in range(3):
        weights = {name: rng.uniform(-1.5, 1.5) for name in decoder.default_weights()}
        weights["lm_morph"], weights["lm_word"] = {
            "negative": (-rng.uniform(0.01, 1.0), -rng.uniform(0.01, 1.0)),
            "zero": (0.0, 0.0),
            "mixed": (-rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)),
        }[lm_sign]
        picked = rng.sample(sources, 6)
        assert_matches_references(picked, tab, lm_m, lm_w, weights, 4, distortion)


def test_search_matches_references_on_word_table(synth_config):
    from morphsmt import cli

    data = cli._load_data(synth_config)
    tab, _, _ = cli._table(synth_config, data, "word", False)
    lm_w = lm.train_lm(data["word"]["train_tgt"], synth_config.lm_word_order, "witten-bell")
    sources = [morpho.words_as_tokens(s) for s in data["word"]["dev_src"][:15]]
    weights = decoder.default_weights(with_morph_lm=False)
    assert tab.granularity == "word"
    for beam, distortion in ((3, 6), (20, 0)):
        assert_matches_references(sources, tab, None, lm_w, weights, beam, distortion)


def test_empty_sentence_touches_only_the_lm_slots(bundled_models):
    from oracles import reference_search

    _, tab, lm_m, lm_w = bundled_models
    empty = ()
    weights = decoder.default_weights()
    for models, names in (((lm_m, lm_w), {"lm_morph", "lm_word"}), ((lm_m, None), {"lm_morph"}),
                          ((None, None), set())):
        got = decoder.search(empty, tab, *models, weights, 5, 6)
        assert fingerprint(got) == fingerprint(reference_search(empty, tab, *models, weights, 5, 6))
        assert set(got[0].features) == names
