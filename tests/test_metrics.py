import random

import pytest
from hypothesis import given, settings, strategies as st

from morphsmt import metrics, morpho
from morphsmt.align import AlignmentMatrix

import oracles


def test_identity_corpus_scores_one():
    corpus = [["a", "b", "c", "d", "e"], ["f", "g", "h", "i"]]
    r = metrics.bleu(corpus, corpus)
    assert r.score == 1.0
    assert r.brevity_penalty == 1.0
    assert r.precisions == (1.0, 1.0, 1.0, 1.0)


def test_hand_counted_example():
    r = metrics.bleu([["a", "b", "c", "e"]], [["a", "b", "c", "d"]])
    assert r.precisions == (3 / 4, 2 / 3, 1 / 2, 0.0)
    assert r.score == 0.0


def test_length_mismatch_and_empty_errors():
    with pytest.raises(ValueError):
        metrics.bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError):
        metrics.bleu([], [])


def _random_corpus(rng, vocab_size=6, n_sentences=4, max_len=8):
    vocab = [f"w{i}" for i in range(vocab_size)]
    def sentence():
        return [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
    hyps = [sentence() for _ in range(n_sentences)]
    refs = [sentence() for _ in range(n_sentences)]
    # bias some hypotheses toward their refs so scores are often non-zero
    for i in range(n_sentences):
        if rng.random() < 0.6:
            hyps[i] = list(refs[i])
            if rng.random() < 0.5 and len(hyps[i]) > 1:
                hyps[i][rng.randrange(len(hyps[i]))] = rng.choice(vocab)
    return hyps, refs


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_agreement_with_reference_implementation(seed):
    rng = random.Random(seed)
    hyps, refs = _random_corpus(rng)
    assert metrics.bleu(hyps, refs).score == pytest.approx(
        oracles.reference_bleu(hyps, refs), abs=1e-9
    )


def test_permutation_equivariance():
    rng = random.Random(3)
    hyps, refs = _random_corpus(rng)
    base = metrics.bleu(hyps, refs).score
    order = list(range(len(hyps)))
    rng.shuffle(order)
    assert metrics.bleu([hyps[i] for i in order], [refs[i] for i in order]).score \
        == pytest.approx(base, abs=1e-12)


def test_brevity_penalty_never_helps():
    rng = random.Random(4)
    for _ in range(30):
        hyps, refs = _random_corpus(rng)
        r = metrics.bleu(hyps, refs)
        assert 0.0 <= r.score <= 1.0
        assert r.brevity_penalty <= 1.0
        if r.brevity_penalty > 0:
            assert r.score <= r.score / r.brevity_penalty + 1e-15


def test_m_bleu_identity_and_guard():
    s = morpho.parse_segmented_line("a/STM+ b/SUF c/STM")
    assert metrics.m_bleu([s], [s]).score == 1.0
    with pytest.raises(ValueError):
        metrics.m_bleu([], [])


def test_m_bleu_credits_partial_morpheme_matches():
    # one suffix differs: the word match fails entirely, morphemes survive
    hyp = morpho.parse_segmented_line(
        "talo/STM+ a/SUF kissa/STM talo/STM+ a/SUF kissa/STM"
    )
    ref = morpho.parse_segmented_line(
        "talo/STM+ n/SUF kissa/STM talo/STM+ a/SUF kissa/STM"
    )
    word_r = metrics.bleu([oracles.words_of(hyp)], [oracles.words_of(ref)])
    morph_r = metrics.m_bleu([hyp], [ref])
    assert morph_r.score > word_r.score


def test_lcsr_examples():
    assert metrics.lcsr("abc", "abc") == 1.0
    assert metrics.lcsr("a", "b") == 0.0
    got = metrics.lcsr("taloudellisia", "taloudellisten")
    want = oracles.recursive_lcs("taloudellisia", "taloudellisten") / 14
    assert got == pytest.approx(want)
    with pytest.raises(ValueError):
        metrics.lcsr("", "a")


@settings(max_examples=150)
@given(st.text(alphabet="abcd", min_size=1, max_size=10),
       st.text(alphabet="abcd", min_size=1, max_size=10))
def test_lcsr_properties(a, b):
    assert metrics.lcsr(a, b) == metrics.lcsr(b, a)
    assert metrics.lcsr(a, a) == 1.0
    assert metrics.lcsr(a, b) == pytest.approx(
        oracles.recursive_lcs(a, b) / max(len(a), len(b))
    )


def test_proximity_planted_counts():
    refs = [["perustuslaillinen", "rakenne", "x"],
            ["talous", "kasvu"]]
    # sentence 0: phrase over src words 0-1 -> ref words 0-1 (near match),
    #             phrase over src word 2 -> exact match
    traces = [
        [(0, 2, ("c", "s"), ("perustuslaillisempi", "rakenne")),
         (2, 3, ("x",), ("x",))],
        [(0, 2, ("e", "g"), ("zzz", "qqq"))],
    ]
    alignments = [
        AlignmentMatrix(frozenset({(0, 0), (1, 1), (2, 2)}), 3, 3),
        AlignmentMatrix(frozenset({(0, 0), (1, 1)}), 2, 2),
    ]
    report = metrics.proximity_triples(traces, refs, alignments, 0.7)
    assert report.total == 2
    assert report.exact_matches == 1
    assert report.skipped == 0


def test_proximity_threshold_boundary():
    refs = [["a" * 69 + "b" * 31], ["a" * 70 + "b" * 30]]
    traces = [
        [(0, 1, ("s",), ("a" * 69 + "c" * 31,))],  # lcsr exactly 0.69
        [(0, 1, ("s",), ("a" * 70 + "c" * 30,))],  # lcsr exactly 0.70
    ]
    alignments = [AlignmentMatrix(frozenset({(0, 0)}), 1, 1)] * 2
    report = metrics.proximity_triples(traces, refs, alignments, 0.7)
    assert report.total == 1


def test_proximity_missing_alignment_skipped():
    refs = [["a"]]
    traces = [[(0, 1, ("s",), ("a",))]]
    report = metrics.proximity_triples(traces, refs, [None])
    assert report.total == 0 and report.skipped == 1


def test_sign_test_significance_thresholds():
    assert metrics.sign_test(101, 66) < 0.01
    assert metrics.sign_test(95, 70) < 0.05
    assert metrics.sign_test(95, 70) > 0.01
    # a slightly weaker count stays above the threshold
    assert metrics.sign_test(25, 14) > 0.05


def test_sign_test_symmetry_and_ties():
    assert metrics.sign_test(5, 5) == metrics.sign_test(5, 5)
    assert metrics.sign_test(22, 22) == metrics.sign_test(22, 22)
    assert metrics.sign_test(7, 3) == metrics.sign_test(3, 7)
    assert metrics.sign_test(5, 5) > 0.5  # a tie is never significant
    with pytest.raises(ValueError):
        metrics.sign_test(0, 0)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_sign_test_matches_exact_summation(a, b):
    if a + b == 0:
        return
    want = oracles.binomial_tail_fraction(a + b, min(a, b))
    assert metrics.sign_test(a, b) == pytest.approx(float(want), abs=1e-15)
