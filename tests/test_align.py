import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from morphsmt import align
from morphsmt.align import AlignmentMatrix

import oracles
from conftest import random_alignment


def toy_corpus():
    return [(("a",), ("x",)), (("a", "b"), ("x", "y"))]


def test_model1_concentrates_mass():
    table = align.train_model1(toy_corpus(), 10)
    assert table[("a", "x")] > table[("a", "y")]


def test_model1_normalization():
    table = align.train_model1(toy_corpus(), 5)
    sums = {}
    for (src, _), p in table.items():
        sums[src] = sums.get(src, 0.0) + p
    for src, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-6), src


def test_model1_single_pair_single_iteration():
    table = align.train_model1([(("a",), ("x",))], 1)
    assert table[("a", "x")] == pytest.approx(1.0, abs=1e-9)
    assert table[(None, "x")] == pytest.approx(1.0, abs=1e-9)


def test_model1_errors():
    with pytest.raises(ValueError):
        align.train_model1([], 5)
    with pytest.raises(ValueError):
        align.train_model1(toy_corpus(), 0)


def model1_logprob(corpus, table):
    """Model 1 log-likelihood (uniform alignment prior dropped)."""
    return sum(math.log(sum(table.get((e, f), align.FLOOR_PROB) for e in (None, *src)))
               for src, tgt in corpus for f in tgt)


def test_em_never_decreases_loglikelihood():
    corpora = [
        toy_corpus(),
        [(("a", "b", "c"), ("z", "y")), (("b",), ("y",)), (("c", "a"), ("z", "w"))],
    ]
    for corpus in corpora:
        prev = None
        for iters in range(1, 9):
            ll = model1_logprob(corpus, align.train_model1(corpus, iters))
            if prev is not None:
                assert ll >= prev - 1e-9
            prev = ll


def test_corpus_loader_drops_empty_pairs():
    assert align.sentence_pairs([["a"], [], ["b"]], [["x"], ["y"], []]) == [(("a",), ("x",))]


def test_viterbi_dominant_diagonal():
    table = {("a", "x"): 0.9, ("a", "y"): 0.05, ("b", "x"): 0.05, ("b", "y"): 0.9}
    m = align.viterbi_align(["a", "b"], ["x", "y"], table)
    assert m.links == {(0, 0), (1, 1)}


def test_viterbi_uniform_ties_pick_smallest_index():
    table = {(s, t): 0.5 for s in "ab" for t in "xy"}
    m = align.viterbi_align(["a", "b"], ["x", "y"], table)
    assert m.links == {(0, 0), (0, 1)}


def test_viterbi_unseen_target_gets_no_link():
    table = {("a", "x"): 0.9}
    m = align.viterbi_align(["a"], ["unseen"], table)
    assert m.links == frozenset()


def test_symmetrize_fixed_point():
    m = AlignmentMatrix(frozenset({(0, 0)}), 1, 1)
    for heuristic in ("intersection", "union", "grow-diag-final-and"):
        assert align.symmetrize(m, m, heuristic).links == {(0, 0)}


def test_symmetrize_empty_intersection():
    fwd = AlignmentMatrix(frozenset({(0, 0)}), 2, 2)
    rev = AlignmentMatrix(frozenset({(1, 1)}), 2, 2)
    assert align.symmetrize(fwd, rev, "intersection").links == frozenset()


def test_symmetrize_grow_diag_hand_case():
    fwd = AlignmentMatrix(frozenset({(0, 0), (0, 1)}), 1, 2)
    rev = AlignmentMatrix(frozenset({(0, 0)}), 2, 1)
    got = align.symmetrize(fwd, rev, "grow-diag-final-and")
    assert got.links == {(0, 0), (0, 1)}


def test_symmetrize_dimension_mismatch():
    fwd = AlignmentMatrix(frozenset(), 2, 3)
    rev = AlignmentMatrix(frozenset(), 2, 3)  # should be 3x2
    with pytest.raises(ValueError):
        align.symmetrize(fwd, rev, "union")


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_symmetrize_nesting_property(seed):
    rng = random.Random(seed)
    sl, tl = rng.randint(1, 5), rng.randint(1, 5)
    fwd = random_alignment(rng, sl, tl)
    rev = random_alignment(rng, tl, sl)
    inter = align.symmetrize(fwd, rev, "intersection").links
    gdfa = align.symmetrize(fwd, rev, "grow-diag-final-and").links
    union = align.symmetrize(fwd, rev, "union").links
    assert inter <= gdfa <= union


def test_alignment_file_roundtrip(tmp_path):
    mats = [
        AlignmentMatrix(frozenset({(0, 0), (1, 2)}), 2, 3),
        AlignmentMatrix(frozenset(), 1, 1),
    ]
    path = tmp_path / "a.txt"
    align.write_alignments(path, mats)
    back = align.read_alignments(path, [(2, 3), (1, 1)])
    assert [m.links for m in back] == [m.links for m in mats]


def test_read_alignments_rejects_a_link_that_is_not_decimal(tmp_path):
    # '²'.isdigit() is true, but int('²') raises
    path = tmp_path / "a.txt"
    path.write_text("0-0 0-²\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        align.read_alignments(path, [(1, 3)])
    assert str(info.value) == f"{path}:1: bad link '0-²': expected i-j"


def test_lexical_table_roundtrip(tmp_path):
    table = {("a", "x"): 0.25, (None, "x"): 0.5, ("b", "y"): 1.0}
    path = tmp_path / "lex.tsv"
    align.write_lexical_table(path, table)
    back = align.read_lexical_table(path)
    assert back == table


# tokens hold no tab, newline or other whitespace, which the formats reserve
lex_token = st.text(alphabet="ab/+STM", min_size=1, max_size=4)
lex_prob = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1.0]),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def lexical_tables(draw):
    """Tables with NULL and token sources; probabilities include 0.0 and subnormals."""
    keys = draw(st.lists(st.tuples(st.none() | lex_token, lex_token), max_size=6,
                         unique=True))
    return {key: draw(lex_prob) for key in keys}


@settings(deadline=None)
@given(lexical_tables())
def test_lexical_table_write_read_write_is_byte_identical(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    align.write_lexical_table(path, table)
    first = path.read_bytes()
    back = align.read_lexical_table(path)
    assert back == table
    align.write_lexical_table(path, back)
    assert path.read_bytes() == first


@st.composite
def alignment_lists(draw):
    """Matrices of 0-4 x 0-4 tokens; an empty link set is an empty line."""
    mats = []
    for _ in range(draw(st.integers(0, 5))):
        slen, tlen = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        links = draw(st.frozensets(st.tuples(st.integers(0, slen - 1),
                                             st.integers(0, tlen - 1)))
                     if slen and tlen else st.just(frozenset()))
        mats.append(AlignmentMatrix(links, slen, tlen))
    return mats


@settings(deadline=None)
@given(alignment_lists())
def test_alignment_write_read_write_is_byte_identical(tmp_path_factory, mats):
    path = tmp_path_factory.mktemp("align") / "a.txt"
    align.write_alignments(path, mats)
    first = path.read_bytes()
    back = align.read_alignments(path, [(m.source_len, m.target_len) for m in mats])
    assert back == mats
    align.write_alignments(path, back)
    assert path.read_bytes() == first


def test_align_corpus_deterministic():
    corpus = toy_corpus()
    a1 = align.align_corpus(corpus, 3)
    a2 = align.align_corpus(corpus, 3)
    assert [m.links for m in a1[0]] == [m.links for m in a2[0]]
    assert a1[1] == a2[1]


def _random_corpus(rng, n_pairs):
    src_vocab = [f"s{k}" for k in range(6)]
    tgt_vocab = [f"t{k}" for k in range(5)]
    return [
        (tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, 6))),
         tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 6))))
        for _ in range(n_pairs)
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("iterations", [1, 2, 3, 4, 5])
def test_model1_matches_reference_bit_for_bit(seed, iterations):
    rng = random.Random(seed * 10 + iterations)
    corpus = _random_corpus(rng, rng.randint(1, 12))
    got = align.train_model1(corpus, iterations)
    want = oracles.reference_model1(corpus, iterations)
    assert list(got) == list(want)  # same keys, same order
    assert {k: p.hex() for k, p in got.items()} == \
        {k: p.hex() for k, p in want.items()}
