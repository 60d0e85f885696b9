"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The lines appear in pytest's terminal summary as
``ACCEPTANCE nn PASS|FAIL -- description``.
"""

import functools
import math
import random
import time
import pytest

from morphsmt import cli, decoder, lm, merge, mert, metrics, morpho, phrasex, synth
from morphsmt.align import AlignmentMatrix
from morphsmt.config import load_config
from morphsmt.phrasex import PhraseEntry, PhraseTable

import conftest
import oracles
from conftest import random_alignment, random_morph_sentence


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.acceptance_results.append((number, "FAIL", description))
                raise
            conftest.acceptance_results.append((number, "PASS", description))
            return result
        return wrapper
    return deco


@pytest.fixture(scope="module")
def synth_cfg():
    return load_config(synth.bundled_dir() / "synth.cfg")


@pytest.fixture(scope="module")
def synth_data(synth_cfg):
    return cli._load_data(synth_cfg)


@pytest.fixture(scope="module")
def synth_tables(synth_cfg, synth_data):
    """Morpheme boundary-aware table, word table, lexical tables, retokenized."""
    pt_m, ltm_f, ltm_b = cli._table(synth_cfg, synth_data, "morpheme", True)
    pt_w, ltw_f, ltw_b = cli._table(synth_cfg, synth_data, "word", False)
    lexicon = merge.build_lexicon(
        [s for split in synth_data["morpheme"].values() for s in split])
    pt_wm = merge.retokenize_pt(pt_w, lexicon)
    return {
        "pt_m": pt_m, "pt_w": pt_w, "pt_wm": pt_wm,
        "lex": (ltm_f, ltm_b, ltw_f, ltw_b),
    }


def _phi_sums(table):
    by_src, by_tgt = {}, {}
    for e in table:
        by_src[e.source] = by_src.get(e.source, 0.0) + e.phi_fwd
        by_tgt[e.target] = by_tgt.get(e.target, 0.0) + e.phi_bwd
    return by_src, by_tgt


@criterion(1, "classic extraction equals brute force on 1000 random pairs, <10s")
def test_criterion_1_extraction_oracle():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        sl, tl = rng.randint(1, 6), rng.randint(1, 6)
        src = [f"s{i}" for i in range(sl)]
        tgt = [f"t{j}" for j in range(tl)]
        a = random_alignment(rng, sl, tl)
        max_len = rng.randint(1, 6)
        got = phrasex.extract_phrases(src, tgt, a, max_len)
        want = oracles.brute_force_phrases(src, tgt, a.links, max_len)
        assert got == want
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "boundary-aware equals filtered brute force; no mid-word phrases")
def test_criterion_2_boundary_oracle():
    rng = random.Random(202)
    for _ in range(1000):
        src = random_morph_sentence(rng, max_words=3)
        tgt = random_morph_sentence(rng, max_words=3)
        a = random_alignment(rng, len(src), len(tgt))
        got = phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True)
        want = oracles.brute_force_boundary_phrases(
            src, tgt, oracles.word_spans_of(src), oracles.word_spans_of(tgt),
            a.links, 7,
        )
        assert got == want
    src = morpho.parse_segmented_line("un/PRE+ democratic/STM")
    full_word = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF"
    )
    spurious = full_word[:5]
    for links in (
        frozenset((i, j) for i in range(2) for j in range(6)),  # all pairs
        frozenset({(0, 0), (1, 1)}),  # prefix/stem only, suffixes unaligned
    ):
        pairs = phrasex.extract_phrases(
            src, full_word, AlignmentMatrix(links, 2, 6), 7, boundary_aware=True
        )
        assert any(tgt == full_word for _, tgt, _ in pairs)
        assert not any(tgt == spurious for _, tgt, _ in pairs)


@criterion(3, "monomorphemic degeneracy: boundary(7 words) == classic(7 tokens)")
def test_criterion_3_degeneracy():
    rng = random.Random(303)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        src = tuple(f"s{i}/STM" for i in range(n))
        tgt = tuple(f"t{j}/STM" for j in range(m))
        a = random_alignment(rng, n, m)
        assert phrasex.extract_phrases(src, tgt, a, 7, boundary_aware=True) == \
            phrasex.extract_phrases(src, tgt, a, 7)


@criterion(4, "phi normalization holds for extraction and raw-count merge, "
              "fails for add-feature merge")
def test_criterion_4_normalization(synth_tables, synth_cfg):
    for name in ("pt_m", "pt_w", "pt_wm"):
        by_src, by_tgt = _phi_sums(synth_tables[name])
        for total in list(by_src.values()) + list(by_tgt.values()):
            assert total == pytest.approx(1.0, abs=1e-9), name
    merged = merge.merge_our_method(
        synth_tables["pt_m"], synth_tables["pt_wm"], synth_tables["pt_w"],
        synth_cfg.merge_alpha, *synth_tables["lex"],
    )
    by_src, by_tgt = _phi_sums(merged)
    for total in list(by_src.values()) + list(by_tgt.values()):
        assert total == pytest.approx(1.0, abs=1e-9)
    # constructed counterexample for the add-feature strategy
    e1 = PhraseEntry(("s/STM",), ("x/STM",), 1.0, 1.0, 0.5, 0.5, math.e, 1,
                     frozenset({(0, 0)}))
    e2 = PhraseEntry(("s/STM",), ("y/STM",), 1.0, 1.0, 0.5, 0.5, math.e, 1,
                     frozenset({(0, 0)}))
    added = merge.merge_add_features(
        PhraseTable.of([e1], "morpheme"),
        PhraseTable.of([e2], "morpheme"), 1,
    )
    by_src, _ = _phi_sums(added)
    assert any(abs(total - 1.0) > 1e-6 for total in by_src.values())
    # and the real add-merged synthetic table also breaks normalization
    added_real = merge.merge_add_features(synth_tables["pt_wm"], synth_tables["pt_m"], 1)
    by_src, by_tgt = _phi_sums(added_real)
    assert any(abs(total - 1.0) > 1e-6
               for total in list(by_src.values()) + list(by_tgt.values()))


@criterion(5, "twin scorer word view matches offline word-LM scores; "
              "chunking invariant")
def test_criterion_5_twin_word_view():
    rng = random.Random(505)
    sentences = [random_morph_sentence(rng, max_words=6) for _ in range(40)]
    lm_m = lm.train_lm(sentences, 3, "witten-bell")
    lm_w = lm.train_lm([oracles.words_of(s) for s in sentences], 2, "witten-bell")

    def run(tokens, chunks):
        state = lm.initial_twin_state(lm_m, lm_w)
        m_total = w_total = 0.0
        for chunk in chunks:
            state, dm, dw = lm.twin_extend(state, chunk, lm_m, lm_w)
            m_total += dm
            w_total += dw
        fm, fw = lm.twin_finalize(state, lm_m, lm_w)
        return state, m_total + fm, w_total + fw

    probes = [random_morph_sentence(rng, max_words=6) for _ in range(200)]
    for tokens in probes:
        _, m_total, w_total = run(tokens, [tokens])
        assert w_total == pytest.approx(
            oracles.sentence_logprob(lm_w, oracles.words_of(tokens)), abs=1e-9
        )
        assert m_total == pytest.approx(
            oracles.sentence_logprob(lm_m, tokens), abs=1e-9
        )
    rechunk_probe = probes[0]
    base = run(rechunk_probe, [rechunk_probe])
    for _ in range(100):
        chunks = []
        i = 0
        while i < len(rechunk_probe):
            j = rng.randint(i + 1, len(rechunk_probe))
            chunks.append(rechunk_probe[i:j])
            i = j
        state, m_total, w_total = run(rechunk_probe, chunks)
        assert state == base[0]
        assert m_total == pytest.approx(base[1], abs=1e-9)
        assert w_total == pytest.approx(base[2], abs=1e-9)


@criterion(6, "decoder equals exhaustive search on 200 toy instances")
def test_criterion_6_decoder_oracle():
    from test_decoder import entry, exhaustive_monotone_best, table

    rng = random.Random(606)
    for _ in range(200):
        n_words = rng.randint(1, 4)
        words = [f"w{i}/STM" for i in range(n_words)]
        src = morpho.parse_segmented_line(" ".join(words))
        entries = []
        vocab = []
        for i in range(n_words):
            for o in range(rng.randint(1, 3)):
                tgt = (f"t{i}{o}/STM+", f"u{i}{o}/SUF") if rng.random() < 0.3 \
                    else (f"t{i}{o}/STM",)
                vocab.extend(tgt)
                entries.append(entry((words[i],), tgt, rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0)))
        for i in range(n_words - 1):
            if rng.random() < 0.5:
                tgt = (f"p{i}/STM",)
                vocab.extend(tgt)
                entries.append(entry(tuple(words[i:i + 2]), tgt,
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                                     rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
        tab = table(entries)
        lm_m = lm.train_lm([[v] for v in vocab], 2, "witten-bell")
        lm_w = lm.train_lm(
            [[morpho.split_token_string(v)[0]] for v in vocab], 2, "witten-bell"
        )
        weights = decoder.default_weights()
        got = decoder.decode(decoder.search(src, tab, lm_m, lm_w, weights, None, 0))
        want = exhaustive_monotone_best(
            words, decoder.build_options(src, tab), lm_m, lm_w, weights
        )
        assert got.score == pytest.approx(want, abs=1e-9)


@criterion(7, "MERT optimizes word BLEU, not morpheme BLEU; pooled dev BLEU "
              "non-decreasing over 5 iterations")
def test_criterion_7_mert(synth_cfg, synth_data):
    from morphsmt.decoder import NBestEntry

    # constructed opposite-ranking dev set
    filler_ref = ("w", "x", "y", "z", "q")
    filler_tokens = ("w/STM", "x/STM", "y/STM", "z/STM", "q/STM")
    contested_ref = ("ab", "c", "d", "e")
    ref_morphs = ("a/STM+", "b/SUF", "c/STM", "d/STM", "e/STM")
    cand_a = ("ab/STM", "c/STM", "d/STM", "e/STM")
    cand_b = ("a/STM", "b/SUF", "c/STM", "d/STM", "e/STM")
    word_a = metrics.bleu([filler_ref, morpho.words_from_tokens(cand_a)],
                          [filler_ref, contested_ref]).score
    word_b = metrics.bleu([filler_ref, morpho.words_from_tokens(cand_b)],
                          [filler_ref, contested_ref]).score
    morph_a = metrics.m_bleu([filler_tokens, cand_a], [filler_tokens, ref_morphs]).score
    morph_b = metrics.m_bleu([filler_tokens, cand_b], [filler_tokens, ref_morphs]).score
    assert word_a > word_b and morph_a < morph_b

    lists = [
        [NBestEntry(filler_tokens, {"f": 0.0}, 0.0)],
        [NBestEntry(cand_a, {"f": 1.0}, 0.0), NBestEntry(cand_b, {"f": -1.0}, 0.0)],
    ]
    weights = mert.mert_run([filler_ref, contested_ref], {"f": -1.0},
                            lambda _w: lists, max_iters=5).best_weights
    assert weights["f"] > 0.0  # selects the word-BLEU winner A

    # 5 real iterations on the synthetic bitext
    table, _, _ = cli._table(synth_cfg, synth_data, "morpheme", False)
    lm_m = lm.train_lm(synth_data["morpheme"]["train_tgt"], synth_cfg.lm_morph_order,
                       synth_cfg.lm_smoothing)
    dev_sources = synth_data["morpheme"]["dev_src"][:25]
    dev_refs = [tuple(r) for r in synth_data["word"]["dev_tgt"][:25]]
    initial = decoder.default_weights(with_word_lm=False)

    def handle(wts):
        return [
            decoder.nbest(s, table, lm_m, None, wts, synth_cfg.beam,
                          synth_cfg.distortion_limit, synth_cfg.nbest)[0]
            for s in dev_sources
        ]

    state = mert.mert_run(dev_refs, initial, handle, max_iters=5, epsilon=-1.0,
                          seed=synth_cfg.seed)
    assert len(state.history) == 5
    for prev, cur in zip(state.history, state.history[1:]):
        assert cur >= prev - 1e-12


@criterion(8, "BLEU agrees with an independent implementation to 1e-9")
def test_criterion_8_bleu_oracle():
    rng = random.Random(808)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(100):
        n = rng.randint(1, 6)
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 9))] for _ in range(n)]
        hyps = []
        for ref in refs:
            hyp = list(ref)
            if rng.random() < 0.7:
                for _ in range(rng.randint(0, 3)):
                    if hyp and rng.random() < 0.5:
                        hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
                    else:
                        hyp.insert(rng.randrange(len(hyp) + 1), rng.choice(vocab))
            hyps.append(hyp)
        assert metrics.bleu(hyps, refs).score == pytest.approx(
            oracles.reference_bleu(hyps, refs), abs=1e-9
        )
        assert metrics.bleu(refs, refs).score == 1.0
    hand = metrics.bleu([["a", "b", "c", "e"]], [["a", "b", "c", "d"]])
    assert hand.precisions == (3 / 4, 2 / 3, 1 / 2, 0.0)
    assert hand.score == 0.0


@criterion(9, "merge arithmetic: hand values exact, phi idempotent table-wide, "
              "origin features match to 10 significant digits")
def test_criterion_9_merge_arithmetic(synth_tables, synth_cfg, tmp_path):
    # hand examples
    assert 0.6 * 0.5 + 0.4 * 0.25 == pytest.approx(0.4, abs=1e-15)
    from test_merge import our_method_fixture

    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    merged = merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts)
    assert merged.get(("a/STM",), ("x/STM",)).phi_fwd == pytest.approx(0.5, abs=0)
    assert merged.get(("a/STM",), ("x/STM",)).lex_fwd == pytest.approx(0.4, abs=1e-15)
    # table-wide idempotence on the real synthetic table
    big = synth_tables["pt_m"]
    self_merged = merge.merge_our_method(
        big, big, synth_tables["pt_w"], synth_cfg.merge_alpha, *synth_tables["lex"]
    )
    assert {(e.source, e.target) for e in self_merged} == {(e.source, e.target) for e in big}
    for e in big:
        assert self_merged.get(e.source, e.target).phi_fwd == pytest.approx(e.phi_fwd, abs=1e-15)
        assert self_merged.get(e.source, e.target).phi_bwd == pytest.approx(e.phi_bwd, abs=1e-15)
    # origin features as decimal text from the written file
    for n_features, expected in (
        (1, {math.e, math.exp(2 / 3), math.exp(1 / 3)}),
        (2, {math.e, 1.0}),
    ):
        added = merge.merge_add_features(
            synth_tables["pt_wm"], synth_tables["pt_m"], n_features
        )
        path = tmp_path / f"add{n_features}.txt"
        phrasex.write_phrase_table(path, added)
        seen = set()
        for line in path.read_text(encoding="utf-8").splitlines():
            scores = line.split("|||")[2].split()
            assert len(scores) == 5 + n_features
            seen.update(float(x) for x in scores[5:])
        assert {f"{v:.10g}" for v in seen} == {f"{v:.10g}" for v in expected}
        for value in seen:
            assert any(f"{value:.10g}" == f"{ref:.10g}" for ref in expected)


@criterion(10, "sign test significance thresholds and direct summation agree")
def test_criterion_10_sign_test():
    assert metrics.sign_test(101, 66) < 0.01
    assert metrics.sign_test(95, 70) < 0.05
    for a, b in ((101, 66), (95, 70), (81, 50), (5, 5), (22, 22), (0, 7), (13, 2)):
        want = oracles.binomial_tail_fraction(a + b, min(a, b))
        assert metrics.sign_test(a, b) == pytest.approx(float(want), abs=1e-15)
        assert metrics.sign_test(a, b) == metrics.sign_test(b, a)


@criterion(11, "all eight pipeline systems run end-to-end, deterministically, "
               "in under 5 minutes")
def test_criterion_11_end_to_end(tmp_path):
    config_path = synth.bundled_dir() / "synth.cfg"
    cfg = load_config(config_path)
    start = time.monotonic()
    digests = {}
    for run_id in ("one", "two"):
        for system in cli.SYSTEMS:
            run_dir = tmp_path / run_id / system
            artifacts = cli.run_pipeline(system, cfg, run_dir)
            for name in ("pt", "weights", "nbest", "output", "report", "manifest"):
                assert artifacts[name].exists(), (system, name)
            digests[(run_id, system)] = {
                name: cli.sha256_file(p) for name, p in sorted(artifacts.items())
            }
    elapsed = time.monotonic() - start
    for system in cli.SYSTEMS:
        assert digests[("one", system)] == digests[("two", system)], system
    merged_table = phrasex.read_phrase_table(tmp_path / "one" / "merged" / "pt.txt")
    by_src, by_tgt = _phi_sums(merged_table)
    for total in list(by_src.values()) + list(by_tgt.values()):
        assert total == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 300.0, f"eight systems twice took {elapsed:.0f}s"
