import random

import pytest

from morphsmt import decoder, mert, metrics
from morphsmt.decoder import NBestEntry
from morphsmt.mert import mert_run

import oracles


def cand(words, feats, ref):
    return oracles.ReferenceCandidate(dict(feats), metrics.bleu_stats(tuple(words), tuple(ref)))


REF = ("a", "b", "c", "d")


def test_constant_features_return_step_zero():
    pool = [[cand(["a", "b"], {"f": 1.0}, REF), cand(["a", "c"], {"f": 1.0}, REF)]]
    step, _ = oracles.reference_line_search(pool, {"f": 1.0}, {"f": 1.0})
    assert step == 0.0


def test_crossing_candidates_step_beyond_crossing():
    good = cand(REF, {"f": 1.0}, REF)
    bad = cand(["x", "y"], {"f": 0.0}, REF)
    # scores: good = -2 + step, bad = 0; they cross at step 2
    step, bleu = oracles.reference_line_search([[good, bad]], {"f": -2.0}, {"f": 1.0})
    assert step > 2.0
    assert bleu == 1.0


def test_search_never_worse_than_step_zero():
    pools = [
        [[cand(REF, {"f": -1.0}, REF), cand(["a", "b"], {"f": 1.0}, REF)]],
        [[cand(["z"], {"f": 2.0, "g": 1.0}, REF), cand(REF, {"f": 1.0}, REF)]],
    ]
    for pool in pools:
        weights = {"f": 0.5, "g": -0.25}
        base = mert.select_bleu(pool, oracles.dots(weights, pool))
        for direction in ({"f": 1.0}, {"g": 1.0}, {"f": -1.0, "g": 2.0}):
            _, bleu = oracles.reference_line_search(pool, weights, direction)
            assert bleu >= base - 1e-12


def fake_handle(per_iteration_lists):
    """Returns candidates independent of the weights."""

    def handle(_weights):
        return per_iteration_lists

    return handle


def test_singleton_nbests_leave_weights_unchanged():
    lists = [[NBestEntry(("a/STM+", "b/SUF"), {"phi_fwd": -1.0}, -1.0)]]
    got = mert_run([("ab",)], {"phi_fwd": 0.7}, fake_handle(lists), max_iters=4)
    assert got.best_weights == {"phi_fwd": 0.7}


def test_optimizes_word_bleu_not_morpheme_bleu():
    """Word-BLEU and m-BLEU rank two candidates oppositely; word wins."""
    filler_ref_w = ("w", "x", "y", "z", "q")
    filler_tokens = ("w/STM", "x/STM", "y/STM", "z/STM", "q/STM")
    contested_ref_w = ("ab", "c", "d", "e")
    ref_morphs = ("a/STM+", "b/SUF", "c/STM", "d/STM", "e/STM")
    cand_a = ("ab/STM", "c/STM", "d/STM", "e/STM")       # perfect words, odd morphs
    cand_b = ("a/STM", "b/SUF", "c/STM", "d/STM", "e/STM")  # close morphs, bad words

    # sanity: the two metrics really do disagree
    word_a = metrics.bleu(
        [filler_ref_w, ("ab", "c", "d", "e")], [filler_ref_w, contested_ref_w]
    ).score
    word_b = metrics.bleu(
        [filler_ref_w, ("a", "b", "c", "d", "e")], [filler_ref_w, contested_ref_w]
    ).score
    morph_a = metrics.m_bleu([filler_tokens, cand_a], [filler_tokens, ref_morphs]).score
    morph_b = metrics.m_bleu([filler_tokens, cand_b], [filler_tokens, ref_morphs]).score
    assert word_a > word_b
    assert morph_a < morph_b

    lists = [
        [NBestEntry(filler_tokens, {"f": 0.0}, 0.0)],
        [NBestEntry(cand_a, {"f": 1.0}, -1.0), NBestEntry(cand_b, {"f": -1.0}, 1.0)],
    ]
    weights = mert_run(
        [filler_ref_w, contested_ref_w], {"f": -1.0}, fake_handle(lists), max_iters=5
    ).best_weights
    assert weights["f"] * 1.0 > weights["f"] * -1.0  # candidate A selected


def test_scale_invariance_of_initial_selection():
    lists = [[
        NBestEntry(("a/STM", "b/STM"), {"f": 2.0, "g": -1.0}, 0.0),
        NBestEntry(("a/STM",), {"f": 1.0, "g": 3.0}, 0.0),
    ]]
    refs = [("a", "b")]
    s1 = mert_run(refs, {"f": 1.0, "g": 0.5}, fake_handle(lists), max_iters=1)
    s2 = mert_run(refs, {"f": 2.0, "g": 1.0}, fake_handle(lists), max_iters=1)
    assert s1.history[0] == pytest.approx(s2.history[0], abs=1e-12)


def test_pool_only_grows_and_dedups():
    lists_by_iter = [
        [[NBestEntry(("a/STM",), {"f": 1.0}, 0.0)]],
        [[NBestEntry(("a/STM",), {"f": 1.0}, 0.0),
          NBestEntry(("b/STM",), {"f": 2.0}, 0.0)]],
    ]
    calls = {"n": 0}

    def handle(_weights):
        lists = lists_by_iter[min(calls["n"], 1)]
        calls["n"] += 1
        return lists

    state = mert_run([("a",)], {"f": 1.0}, handle, max_iters=2, epsilon=1e-9)
    assert len(state.pool[0]) == 2


def test_a_candidate_is_built_only_under_a_new_key(monkeypatch):
    # the same lists on every iteration; within them, two entries share words
    # and features, and one shares only the words: three distinct candidates
    lists = [
        [NBestEntry(("a/STM+", "b/SUF"), {"f": 1.0}, 0.0),
         NBestEntry(("ab/STM",), {"f": 1.0}, 0.0),
         NBestEntry(("ab/STM",), {"f": 2.0}, 0.0)],
        [NBestEntry(("c/STM",), {"f": 0.5}, 0.0)],
    ]
    calls = []
    real = mert.bleu_stats
    monkeypatch.setattr(mert, "bleu_stats", lambda *a: calls.append(1) or real(*a))
    state = mert_run([("ab",), ("c",)], {"f": 1.0}, fake_handle(lists), max_iters=3)
    assert len(state.history) >= 2
    assert [len(p) for p in state.pool] == [2, 1]
    assert len(calls) == 3


def test_empty_dev_is_error():
    with pytest.raises(ValueError):
        mert_run([], {"f": 1.0}, fake_handle([]), max_iters=1)


def test_returns_argmax_over_iterations():
    # iteration 2 adds a candidate that can only lower selected BLEU at any
    # weight; best weights should come from the best iteration
    good = NBestEntry(("a", "b"), {"f": 1.0}, 0.0)
    trap = NBestEntry(("z", "z", "z", "z", "z", "z"), {"f": 5.0}, 0.0)
    seq = [[[good]], [[good, trap]]]
    calls = {"n": 0}

    def handle(_weights):
        out = seq[min(calls["n"], 1)]
        calls["n"] += 1
        return out

    state = mert_run([("a", "b")], {"f": 1.0}, handle, max_iters=3, epsilon=1e-12)
    assert state.best_bleu == max(state.history)


def random_nbest_handle(rng, refs, names):
    """A decoder stand-in: fresh random candidates on each call, each a
    reference with a few words changed, dropped or repeated, carrying a
    random subset of the features, of either sign; a few values repeat so
    that lines share slopes and the envelope's dedup ties occur."""
    shared = [round(rng.uniform(-2.0, 2.0), 1) for _ in range(3)]

    def value():
        return rng.choice(shared) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)

    def perturb(ref):
        words = []
        for w in ref:
            r = rng.random()
            if r < 0.15:
                continue
            words.append(f"x{rng.randrange(3)}" if r < 0.3 else w)
            if r > 0.9:
                words.append(w)
        return tuple(f"{w}/STM" for w in words)

    def handle(_weights):
        return [
            [NBestEntry(perturb(ref), {n: value() for n in names if rng.random() < 0.7},
                        0.0)
             for _ in range(rng.randint(1, 8))]
            for ref in refs
        ]

    return handle


@pytest.mark.parametrize("trial", range(12))
def test_mert_run_matches_reference_bit_for_bit(trial, monkeypatch):
    from oracles import reference_mert_run

    rng = random.Random(trial)
    names = ["lm_morph", "phi_fwd", "word_penalty", "distortion", "merge_feat_1"]
    # the entries also carry a feature that the weights do not name (weight 0),
    # and the weights also name a feature that no entry carries
    entry_names = [*names, "lex_bwd"]
    refs = [tuple(f"w{rng.randrange(8)}" for _ in range(rng.randint(4, 9)))
            for _ in range(rng.randint(3, 8))]
    initial = {n: rng.uniform(-1.0, 1.0) for n in [*names, "phrase_penalty"]}
    max_iters = rng.randint(1, 3)
    n_random = rng.randint(1, 2)
    monkeypatch.setattr(mert, "N_RANDOM_DIRECTIONS", n_random)
    states = [
        mert_run(refs, initial, random_nbest_handle(random.Random(trial), refs, entry_names),
                 max_iters, 1e-12, trial),
        reference_mert_run(refs, initial,
                           random_nbest_handle(random.Random(trial), refs, entry_names),
                           max_iters, 1e-12, trial, n_random),
    ]
    got, want = ([sorted((k, v.hex()) for k, v in weights.items())
                  for weights in (st.weights, st.best_weights)]
                 + [[b.hex() for b in st.history], st.best_bleu.hex()]
                 for st in states)
    assert got == want


@pytest.mark.parametrize("max_iters", [0, -1])
def test_mert_needs_an_iteration(max_iters):
    # no iteration would leave the unset best BLEU (-1) for the log
    calls = []
    with pytest.raises(ValueError, match="^max_iters must be positive$"):
        mert_run([("a",)], {"f": 1.0}, lambda w: calls.append(w) or [[]], max_iters=max_iters)
    assert calls == []


def test_weights_files_and_mert_directions_rank_features_alike(tmp_path):
    # listed features in FEATURE_ORDER, then the rest in the weights' order
    weights = {"merge_feat_3": 0.3, "oov": 0.0, "zz": 1.0, "merge_feat_2": 0.3, "lm_word": 0.1}
    ranked = ["lm_word", "oov", "merge_feat_2", "merge_feat_3", "zz"]
    path = tmp_path / "weights.tsv"
    decoder.write_weights(path, weights)
    assert [line.split("\t")[0] for line in path.read_text().splitlines()] == ranked
    features = {"zz": 5.0, "oov": 1.0, "lm_word": 2.0, "merge_feat_3": 4.0}
    state = mert_run([REF], weights, fake_handle([[NBestEntry(("a",), features, 0.0)]]),
                     max_iters=1)
    # a pooled candidate holds its values in that order, 0.0 for an untouched
    # feature; MERT's axis directions take the same order
    assert [c.values for c in state.pool_lists()[0]] == [(2.0, 1.0, 0.0, 4.0, 5.0)]
