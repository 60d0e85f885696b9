import hashlib
import math
import random
from collections import Counter
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from morphsmt import cli, decoder, merge, morpho, phrasex, synth
from morphsmt.align import AlignmentMatrix
from morphsmt.config import load_config

import oracles
from conftest import random_alignment, random_morph_sentence
from test_golden import GOLDEN


def test_extract_simple_diagonal():
    a = AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 2)
    pairs = phrasex.extract_phrases(["a", "b"], ["x", "y"], a, 2)
    assert {(src, tgt) for src, tgt, _ in pairs} == {
        (("a",), ("x",)), (("b",), ("y",)), (("a", "b"), ("x", "y")),
    }


def test_extract_single_link():
    a = AlignmentMatrix(frozenset({(0, 0)}), 1, 1)
    pairs = phrasex.extract_phrases(["a"], ["x"], a, 1)
    assert pairs == {(("a",), ("x",), frozenset({(0, 0)}))}


def test_extract_no_links_no_pairs():
    a = AlignmentMatrix(frozenset(), 2, 2)
    assert phrasex.extract_phrases(["a", "b"], ["x", "y"], a, 2) == set()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_extract_matches_bruteforce(seed):
    # plain tokens, then morpheme tokens whose `+` flags classic extraction ignores
    rng = random.Random(seed)
    sl, tl = rng.randint(1, 6), rng.randint(1, 6)
    src = [f"s{i}" for i in range(sl)]
    tgt = [f"t{j}" for j in range(tl)]
    a = random_alignment(rng, sl, tl)
    max_len = rng.randint(1, 6)
    assert phrasex.extract_phrases(src, tgt, a, max_len) == \
        oracles.brute_force_phrases(src, tgt, a.links, max_len)
    src = random_morph_sentence(rng, max_words=3)
    tgt = random_morph_sentence(rng, max_words=3)
    a = random_alignment(rng, len(src), len(tgt))
    assert phrasex.extract_phrases(src, tgt, a, max_len) == \
        oracles.brute_force_phrases(src, tgt, a.links, max_len)


def undemocratic_pair():
    src = morpho.parse_segmented_line("un/PRE+ democratic/STM")
    tgt = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF"
    )
    links = frozenset((i, j) for i in range(2) for j in range(6))
    return src, tgt, AlignmentMatrix(links, 2, 6)


def test_boundary_aware_all_pairs_linked_single_pair():
    src, tgt, a = undemocratic_pair()
    pairs = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
    assert len(pairs) == 1
    ((src, tgt, _),) = pairs
    assert src == ("un/PRE+", "democratic/STM")
    assert tgt == (
        "epä/PRE+", "demokraat/STM+", "t/SUF+", "i/SUF+", "s/SUF+", "en/SUF"
    )


def test_boundary_aware_kills_spurious_prefix_phrase():
    # realistic links: prefix to prefix, stem to stem, suffixes unaligned
    src, tgt, _ = undemocratic_pair()
    a = AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 6)
    spurious = ("epä/PRE+", "demokraat/STM+", "t/SUF+", "i/SUF+", "s/SUF+")
    classic = phrasex.extract_phrases(src, tgt, a, 10)
    assert any(tgt == spurious for _, tgt, _ in classic)
    boundary = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
    assert not any(tgt == spurious for _, tgt, _ in boundary)
    assert {tgt for _, tgt, _ in boundary} == {(
        "epä/PRE+", "demokraat/STM+", "t/SUF+", "i/SUF+", "s/SUF+", "en/SUF"
    )}


def test_boundary_aware_monomorphemic_degeneracy():
    rng = random.Random(5)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        src = tuple(f"s{i}/STM" for i in range(n))
        tgt = tuple(f"t{j}/STM" for j in range(m))
        a = random_alignment(rng, n, m)
        ba = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
        cl = phrasex.extract_phrases(src, tgt, a, 7)
        assert ba == cl


def test_boundary_aware_long_morpheme_span_allowed():
    # 3 target words / 9 morphemes: one pair may cover all 9 tokens
    src = morpho.parse_segmented_line("a/STM b/STM c/STM")
    tgt = morpho.parse_segmented_line(
        "p/STM+ q/SUF+ r/SUF s/STM+ t/SUF+ u/SUF v/STM+ w/SUF+ x/SUF"
    )
    links = frozenset({(0, 0), (1, 3), (2, 6)})
    a = AlignmentMatrix(links, 3, 9)
    pairs = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
    assert any(len(tgt) == 9 for _, tgt, _ in pairs)
    token_limited = phrasex.extract_phrases(src, tgt, a, 7)
    assert not any(len(tgt) == 9 for _, tgt, _ in token_limited)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_boundary_aware_matches_filtered_bruteforce(seed):
    rng = random.Random(seed)
    src = random_morph_sentence(rng, max_words=3)
    tgt = random_morph_sentence(rng, max_words=3)
    a = random_alignment(rng, len(src), len(tgt))
    got = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
    want = oracles.brute_force_boundary_phrases(
        src, tgt, oracles.word_spans_of(src), oracles.word_spans_of(tgt), a.links, 7,
    )
    assert got == want


@pytest.mark.parametrize("boundary_aware", [False, True])
def test_corpus_extraction_counts_each_sentences_pairs(boundary_aware):
    rng = random.Random(11)
    sources = [random_morph_sentence(rng, 2, ("ka",)) for _ in range(40)]
    targets = [random_morph_sentence(rng, 2, ("ka",)) for _ in range(40)]
    alignments = [random_alignment(rng, len(s), len(t)) for s, t in zip(sources, targets)]
    want = Counter()
    for src, tgt, a in zip(sources, targets, alignments):
        want.update(phrasex.extract_phrases(src, tgt, a, 3, boundary_aware))
    got = phrasex.extract_corpus(sources, targets, alignments, 3, boundary_aware=boundary_aware)
    assert got == want
    assert max(got.values()) > 1  # some pair is counted in more than one sentence
    if boundary_aware:
        assert phrasex.extract_corpus_boundary_aware(sources, targets, alignments, 3) == want


def lex_tables():
    fwd = {("a", "x"): 0.5, ("b", "x"): 0.25, ("a", "y"): 0.1}
    bwd = {("x", "a"): 0.5, ("x", "b"): 0.25, ("y", "a"): 0.1}
    return fwd, bwd


def test_scoring_relative_frequencies():
    fwd, bwd = lex_tables()
    p1 = (("a",), ("x",), frozenset({(0, 0)}))
    p2 = (("a",), ("y",), frozenset({(0, 0)}))
    table = phrasex.score_phrase_table(Counter({p1: 2, p2: 2}), fwd, bwd)
    assert table.get(("a",), ("x",)).phi_fwd == pytest.approx(0.5)
    assert table.get(("a",), ("x",)).count_joint == 2


def test_scoring_degenerate_single_pair():
    fwd, bwd = lex_tables()
    p = (("a",), ("x",), frozenset({(0, 0)}))
    entry = phrasex.score_phrase_table(Counter({p: 1}), fwd, bwd).get(("a",), ("x",))
    assert entry.phi_fwd == 1.0 and entry.phi_bwd == 1.0
    assert entry.penalty == pytest.approx(math.e)


def test_lexical_weight_hand_example():
    fwd, bwd = lex_tables()
    lex_fwd, lex_bwd = phrasex.lexical_weights(("a", "b"), ("x",), {(0, 0), (1, 0)}, fwd, bwd)
    assert lex_fwd == pytest.approx((0.5 + 0.25) / 2)
    assert lex_bwd == pytest.approx(0.5 * 0.25)


def test_lexical_weight_unlinked_uses_null():
    table = {(None, "x"): 0.125, (None, "a"): 0.25}
    assert phrasex.lexical_weights(("a",), ("x",), frozenset(), table, table) == \
        pytest.approx((0.125, 0.25))


def test_representative_alignment_most_frequent_then_lexicographic():
    fwd, bwd = lex_tables()
    a1 = frozenset({(0, 0)})
    a2 = frozenset({(0, 0), (1, 0)})
    pair1 = (("a", "b"), ("x",), a1)
    pair2 = (("a", "b"), ("x",), a2)
    t = phrasex.score_phrase_table(Counter({pair1: 3, pair2: 1}), fwd, bwd)
    assert t.get(("a", "b"), ("x",)).alignment == a1
    t2 = phrasex.score_phrase_table(Counter({pair1: 1, pair2: 1}), fwd, bwd)
    assert t2.get(("a", "b"), ("x",)).alignment == a1  # lexicographic tie-break


def test_lex_scores_take_max_over_alignments():
    fwd, bwd = lex_tables()
    p_both = (("a", "b"), ("x",), frozenset({(0, 0), (1, 0)}))  # mean 0.375
    p_single = (("a", "b"), ("x",), frozenset({(0, 0)}))  # 0.5, b unlinked
    table = phrasex.score_phrase_table(Counter({p_both: 1, p_single: 1}), fwd, bwd)
    entry = table.get(("a", "b"), ("x",))
    assert entry.lex_fwd == pytest.approx(max(0.375, 0.5))


def test_phi_normalization_per_side():
    rng = random.Random(11)
    counts = Counter()
    for _ in range(60):
        sl, tl = rng.randint(1, 4), rng.randint(1, 4)
        src = [f"s{rng.randint(0, 5)}" for _ in range(sl)]
        tgt = [f"t{rng.randint(0, 5)}" for _ in range(tl)]
        a = random_alignment(rng, sl, tl)
        counts.update(phrasex.extract_phrases(src, tgt, a, 4))
    fwd, bwd = lex_tables()
    table = phrasex.score_phrase_table(counts, fwd, bwd)
    by_src, by_tgt = {}, {}
    for e in table:
        by_src[e.source] = by_src.get(e.source, 0.0) + e.phi_fwd
        by_tgt[e.target] = by_tgt.get(e.target, 0.0) + e.phi_bwd
    for total in list(by_src.values()) + list(by_tgt.values()):
        assert total == pytest.approx(1.0, abs=1e-9)


def test_table_text_roundtrip(tmp_path):
    fwd, bwd = lex_tables()
    p1 = (("a", "b"), ("x",), frozenset({(0, 0), (1, 0)}))
    p2 = (("a",), ("y",), frozenset({(0, 0)}))
    table = phrasex.score_phrase_table(Counter({p1: 2, p2: 3}), fwd, bwd)
    path = tmp_path / "pt.txt"
    phrasex.write_phrase_table(path, table)
    back = phrasex.read_phrase_table(path)
    assert len(back) == len(table)
    for entry in table:
        got = back.get(entry.source, entry.target)
        assert got.scores() == entry.scores()
        assert got.count_joint == entry.count_joint
        assert got.alignment == entry.alignment


def test_table_without_counts_roundtrips_through_merge(tmp_path):
    (tmp_path / "in.txt").write_text(
        f"a ||| x ||| 0.5 0.5 0.5 0.5 {math.e!r} |||\n", encoding="utf-8")
    table = phrasex.read_phrase_table(tmp_path / "in.txt")
    assert table.get(["a"], ["x"]).count_joint is None
    merged = merge.merge_interpolate(table, table, 0.5)
    for name, original in (("plain", table), ("merged", merged)):
        path = tmp_path / f"{name}.txt"
        phrasex.write_phrase_table(path, original)
        back = phrasex.read_phrase_table(path)
        assert list(back) == list(original)
        phrasex.write_phrase_table(tmp_path / "again.txt", back)
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


# tokens may hold "/" and "+" but no "|" or whitespace, which the format reserves
table_token = st.text(alphabet="ab/+STM", min_size=1, max_size=4)
table_value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def phrase_tables(draw):
    """Tables with or without counts and links per entry, and 0-2 extra scores."""
    n_extras = draw(st.integers(0, 2))
    entries = {}  # by (source, target): a drawn pair may repeat
    for _ in range(draw(st.integers(0, 5))):
        src = tuple(draw(st.lists(table_token, min_size=1, max_size=3)))
        tgt = tuple(draw(st.lists(table_token, min_size=1, max_size=3)))
        links = draw(st.frozensets(st.tuples(st.integers(0, len(src) - 1),
                                             st.integers(0, len(tgt) - 1))))
        scores = draw(st.lists(table_value, min_size=5 + n_extras, max_size=5 + n_extras))
        count = draw(st.none() | table_value.filter(lambda x: x > 0))  # a count is positive
        entries[(src, tgt)] = phrasex.PhraseEntry(src, tgt, *scores[:5], count, links,
                                                  tuple(scores[5:]))
    return phrasex.PhraseTable.of(entries.values())


@settings(deadline=None)
@given(phrase_tables())
def test_table_write_read_write_is_byte_identical(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("pt") / "pt.txt"
    phrasex.write_phrase_table(path, table)
    first = path.read_bytes()
    back = phrasex.read_phrase_table(path)
    assert list(back) == list(table)
    phrasex.write_phrase_table(path, back)
    assert path.read_bytes() == first


def test_phrase_records_have_no_instance_dict():
    entry = phrasex.PhraseEntry(("a",), ("x",), 0.5, 0.5, 0.5, 0.5, math.e, 1, frozenset())
    assert not hasattr(entry, "__dict__")


def test_every_table_build_holds_one_set_per_alignment(tmp_path):
    rng = random.Random(11)
    src = [random_morph_sentence(rng, max_words=4) for _ in range(30)]
    tgt = [random_morph_sentence(rng, max_words=4) for _ in range(30)]
    src_w = [morpho.words_from_tokens(s) for s in src]
    tgt_w = [morpho.words_from_tokens(t) for t in tgt]
    heuristic = "grow-diag-final-and"
    classic, _, _ = cli.build_table(src, tgt, "morpheme", False, 4, 2, heuristic)
    aware, _, _ = cli.build_table(src, tgt, "morpheme", True, 3, 2, heuristic)
    pt_w, _, _ = cli.build_table(src_w, tgt_w, "word", False, 3, 2, heuristic)
    pt_wm = merge.retokenize_pt(pt_w, merge.build_lexicon(src + tgt))
    phrasex.write_phrase_table(tmp_path / "pt.txt", aware)
    read = phrasex.read_phrase_table(tmp_path / "pt.txt")
    for table in (classic, aware, pt_wm, read):
        alignments = [e.alignment for e in table]
        # equal alignments recur across entries, and each is one object
        assert len({id(al) for al in alignments}) == len(set(alignments)) < len(alignments)


def test_table_file_line_order_does_not_matter(tmp_path):
    rng = random.Random(5)
    src = [random_morph_sentence(rng, max_words=4) for _ in range(30)]
    tgt = [random_morph_sentence(rng, max_words=4) for _ in range(30)]
    table, _, _ = cli.build_table(src, tgt, "morpheme", True, 3, 2, "grow-diag-final-and")
    phrasex.write_phrase_table(tmp_path / "pt.txt", table)
    lines = (tmp_path / "pt.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = lines.copy()
    rng.shuffle(shuffled)
    assert shuffled != lines
    (tmp_path / "shuffled.txt").write_text("".join(shuffled), encoding="utf-8")
    tables = [phrasex.read_phrase_table(tmp_path / name) for name in ("pt.txt", "shuffled.txt")]
    for name, back in zip(("a.txt", "b.txt"), tables):
        phrasex.write_phrase_table(tmp_path / name, back)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    # the sentence with the most options, in which several share a source span
    sentence = max(src, key=lambda s: len(decoder.build_options(s, tables[0])))
    options = [decoder.build_options(sentence, back) for back in tables]
    assert max(Counter((o.start, o.end) for o in options[0]).values()) > 1
    assert options[0] == options[1]


def test_read_table_spans_its_longest_source_phrase_in_words(tmp_path):
    scores = f"0.5 0.5 0.5 0.5 {math.e!r} ||| 1"
    path = tmp_path / "pt.txt"
    # word table: each token is a word, even one shaped like a word-internal token
    path.write_text(f"x/STM+ y ||| z ||| {scores}\nx ||| z ||| {scores}\n", encoding="utf-8")
    assert phrasex.read_phrase_table(path, "word").max_span == 2
    path.write_text(f"a/STM+ b/SUF c/STM ||| z/STM ||| {scores}\nd/STM ||| z/STM ||| {scores}\n",
                    encoding="utf-8")
    assert phrasex.read_phrase_table(path, "morpheme").max_span == 2
    path.write_text("", encoding="utf-8")
    assert phrasex.read_phrase_table(path).max_span == 0


def test_table_is_sorted_by_source_then_target_and_rejects_a_repeated_pair():
    def entry(src, tgt):
        return phrasex.PhraseEntry(tuple(src), tuple(tgt), 0.5, 0.5, 0.5, 0.5, math.e, 1,
                                   frozenset())
    entries = [entry(s, t) for s, t in (("b", "x"), ("a", "z"), ("ab", "x"), ("a", "x"))]
    table = phrasex.PhraseTable.of(entries)
    assert [(e.source, e.target) for e in table] == [
        (("a",), ("x",)), (("a",), ("z",)), (("a", "b"), ("x",)), (("b",), ("x",))]
    assert list(table.by_source) == [("a",), ("a", "b"), ("b",)]
    assert all(type(group) is tuple for group in table.by_source.values())
    with pytest.raises(ValueError, match=r"^repeated phrase pair 'a' \|\|\| 'z'$"):
        phrasex.PhraseTable.of(entries + [entry("a", "z")])


def test_get_looks_up_a_pair_by_source_then_target():
    entries = [phrasex.PhraseEntry(src, tgt, 0.5, 0.5, 0.5, 0.5, math.e, 1, frozenset())
               for src, tgt in ((("a",), ("x",)), (("a",), ("y", "z")), (("a",), ("z",)),
                                (("b",), ("y",)))]
    table = phrasex.PhraseTable.of(entries)
    assert table.get(("a",), ("x",)) is entries[0]  # first of its source's targets
    assert table.get(["a"], ["z"]) is entries[2]  # last of them
    assert table.get(("a",), ("y", "z")) is entries[1]
    for target in (("w",), ("y",), ("zz",)):  # before, between and after them
        assert table.get(("a",), target) is None
    assert table.get(("c",), ("x",)) is None  # an absent source
    assert table.get((), ()) is None


def test_duplicate_table_line_names_the_first(tmp_path):
    line = f"a ||| x ||| 0.5 0.5 0.5 0.5 {math.e!r} ||| 1 ||| 0-0\n"
    path = tmp_path / "pt.txt"
    path.write_text(line + "\n" + line.replace(" ||| 0-0", ""), encoding="utf-8")
    with pytest.raises(ValueError, match=r"pt\.txt:3: duplicate phrase pair 'a' \|\|\| 'x', "
                                         r"first on line 1$"):
        phrasex.read_phrase_table(path)


def test_empty_multiset_gives_empty_table():
    fwd, bwd = lex_tables()
    table = phrasex.score_phrase_table(Counter(), fwd, bwd)
    assert len(table) == 0


@pytest.mark.parametrize("seed", range(8))
def test_scoring_matches_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    vocab = 2 + seed % 3  # small vocabularies repeat keys under several alignments
    src_words = [f"s{k}" for k in range(vocab)]
    tgt_words = [f"t{k}" for k in range(vocab)]
    counts = Counter()
    for _ in range(60):
        sl, tl = rng.randint(1, 5), rng.randint(1, 5)
        src = [rng.choice(src_words) for _ in range(sl)]
        tgt = [rng.choice(tgt_words) for _ in range(tl)]
        counts.update(phrasex.extract_phrases(src, tgt, random_alignment(rng, sl, tl, 0.8), 4))
    # count ties between alignments of one key, and a pair seen with a larger count
    key_pairs = {}
    for pair in counts:
        key_pairs.setdefault(pair[:2], []).append(pair)
    tied = [pairs for pairs in key_pairs.values() if len(pairs) > 1]
    assert tied
    for pairs in tied[::2]:
        for pair in pairs:
            counts[pair] = 2
    fwd = {}
    for e in [None, *src_words]:
        for f in tgt_words:
            if rng.random() < 0.7:
                fwd[(e, f)] = rng.random()
    bwd = {(f, e): rng.random() for (e, f) in fwd if e is not None}
    got = phrasex.score_phrase_table(counts, fwd, bwd, "word")
    want = oracles.reference_score_phrase_table(counts, fwd, bwd, "word")
    assert list(got) == list(want)
    for got_entry, entry in zip(got, want):
        assert repr(got_entry.scores()) == repr(entry.scores())
    assert (got.granularity, got.max_span) == ("word", 4)


@pytest.mark.parametrize("seed", range(40))
def test_extracted_alignment_sets_iterate_as_built_from_links(seed):
    # the sets equal those the oracles build from the links; their
    # iteration order is not checked, as no consumer reads it
    rng = random.Random(seed)
    src = random_morph_sentence(rng, max_words=4)
    tgt = random_morph_sentence(rng, max_words=4)
    a = random_alignment(rng, len(src), len(tgt), 1.5)
    got = phrasex.extract_phrases(src, tgt, a, 7) | \
        phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
    want = oracles.brute_force_phrases(src, tgt, a.links, 7) | \
        oracles.brute_force_boundary_phrases(
            src, tgt, oracles.word_spans_of(src), oracles.word_spans_of(tgt),
            a.links, 7,
        )
    assert got == want


def test_every_table_builder_works_out_its_span_and_extras(tmp_path):
    # counted here with the oracles' word spans, not through morpho
    def metadata(table):
        n_words = len if table.granularity == "word" else (
            lambda src: len(oracles.word_spans_of(src)))
        return (max((n_words(e.source) for e in table), default=0),
                max((len(e.extras) for e in table), default=0))

    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=5, sizes=(60, 8, 6)))
    data = cli._load_data(cfg)
    pt_w, lwf, lwb = cli._word_table(cfg, data)
    pt_c, _, _ = cli._morph_table(cfg, data, boundary_aware=False)
    pt_m, lmf, lmb = cli._morph_table(cfg, data, boundary_aware=True)
    pt_wm = merge.retokenize_pt(pt_w, cli._segmentation_lexicon(data))
    tables = {"word": pt_w, "classic": pt_c, "boundary-aware": pt_m, "retokenized": pt_wm}
    for method in get_args(merge.MergeMethod):
        tables[method] = merge.merge_tables(method, pt_m, pt_wm, 0.6, pt_w,
                                            (lmf, lmb, lwf, lwb))
    # primary-only entries get one extra score, secondary-only ones three
    tables["add-1 over add-2"] = merge.merge_add_features(pt_c, tables["add-2"], 1)
    for name, table in list(tables.items()):
        path = tmp_path / "pt.txt"
        phrasex.write_phrase_table(path, table)
        tables[f"read {name}"] = phrasex.read_phrase_table(path, table.granularity)
    for name, table in tables.items():
        assert (table.max_span, table.n_extras) == metadata(table), name
        assert table.max_span > 0, name
    # a classic table's longest phrase in tokens spans fewer words
    assert tables["classic"].max_span < max(len(e.source) for e in pt_c)
    assert [tables[name].n_extras for name in ("add-1", "add-2", "add-1 over add-2")] == [1, 2, 3]


@pytest.mark.parametrize("system", ["m-system", "merged"])
def test_pipeline_tables_write_read_write_byte_identical(tmp_path, system):
    # the golden workspace's pt.txt, whose counts are written from ints
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=5, sizes=(60, 8, 6)))
    data = cli._load_data(cfg)
    if system == "merged":
        table = cli._merged_table(cfg, data, cli._segmentation_lexicon(data))
    else:
        table, _, _ = cli._morph_table(cfg, data, boundary_aware=False)
    path = tmp_path / "pt.txt"
    phrasex.write_phrase_table(path, table)
    first = path.read_bytes()
    assert hashlib.sha256(first).hexdigest() == GOLDEN[system]["pt"]
    phrasex.write_phrase_table(path, phrasex.read_phrase_table(path, table.granularity))
    assert path.read_bytes() == first
