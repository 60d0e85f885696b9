import math

import pytest

from morphsmt import merge, morpho
from morphsmt.phrasex import PhraseEntry, PhraseTable, write_phrase_table

E_1 = math.e
E_23 = math.exp(2 / 3)
E_13 = math.exp(1 / 3)


def entry(src, tgt, phi=1.0, lex=0.5, count=1, links=((0, 0),), phi_b=None):
    return PhraseEntry(tuple(src), tuple(tgt), phi,
                       phi if phi_b is None else phi_b, lex, lex,
                       math.e, count, frozenset(links))


def table(entries, granularity="morpheme"):
    return PhraseTable.of(entries, granularity)


# --- segmentation lexicon / retokenization -----------------------------------


def test_build_lexicon_majority_then_lexicographic():
    morphs = [
        morpho.parse_segmented_line("dog/STM+ s/SUF"),
        morpho.parse_segmented_line("dog/STM+ s/SUF"),
        morpho.parse_segmented_line("dogs/STM"),
    ]
    lex = merge.build_lexicon(morphs)
    assert lex.segment("dogs") == ("dog/STM+", "s/SUF")
    assert lex.segment("unknown") == ("unknown/STM",)


def test_retokenize_expands_alignment_as_product():
    lex = merge.build_lexicon([morpho.parse_segmented_line("dog/STM+ s/SUF koira/STM+ t/SUF")])
    pt_w = table([entry(("dogs",), ("koirat",), count=3)], "word")
    pt_wm = merge.retokenize_pt(pt_w, lex)
    got = pt_wm.get(("dog/STM+", "s/SUF"), ("koira/STM+", "t/SUF"))
    assert got is not None
    assert got.alignment == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert got.phi_fwd == 1.0 and got.count_joint == 3
    assert pt_wm.granularity == "morpheme"


def test_retokenize_monomorphemic_identity_up_to_tagging():
    lex = merge.SegmentationLexicon({})
    pt_w = table([entry(("a",), ("x",), phi=0.75)], "word")
    pt_wm = merge.retokenize_pt(pt_w, lex)
    got = pt_wm.get(("a/STM",), ("x/STM",))
    assert got is not None and got.phi_fwd == 0.75
    assert got.alignment == frozenset({(0, 0)})


def test_retokenize_rejects_two_words_with_one_segmentation():
    lex = merge.SegmentationLexicon({"dogs": ("dog/STM+", "s/SUF"),
                                     "doggs": ("dog/STM+", "s/SUF")})
    pt_w = table([entry(("dogs",), ("x",)), entry(("doggs",), ("x",))], "word")
    with pytest.raises(ValueError,
                       match=r"^repeated phrase pair 'dog/STM\+ s/SUF' \|\|\| 'x/STM'$"):
        merge.retokenize_pt(pt_w, lex)


def test_retokenize_requires_word_granularity():
    with pytest.raises(ValueError):
        merge.retokenize_pt(table([entry(("a/STM",), ("x/STM",))]), merge.SegmentationLexicon({}))


def test_induced_alignment_roundtrip():
    lex = merge.build_lexicon(
        [morpho.parse_segmented_line("a/STM+ b/SUF c/STM+ d/SUF x/STM+ y/SUF")])
    pt_w = table([entry(("ab", "cd"), ("xy",), links=((0, 0), (1, 0)))], "word")
    pt_wm = merge.retokenize_pt(pt_w, lex)
    (got,) = pt_wm
    induced = merge.induce_word_alignment(got.source, got.target, got.alignment)
    assert induced == frozenset({(0, 0), (1, 0)})


# --- add-feature merges -------------------------------------------------------


def shared_tables():
    both = entry(("s/STM",), ("x/STM",), phi=0.5)
    p_only = entry(("s/STM",), ("y/STM",), phi=0.5)
    s_only = entry(("s/STM",), ("z/STM",), phi=1.0)
    primary = table([both, p_only])
    secondary = table([entry(("s/STM",), ("x/STM",), phi=0.9), s_only])
    return primary, secondary


def test_add1_origin_features():
    primary, secondary = shared_tables()
    merged = merge.merge_add_features(primary, secondary, 1)
    assert merged.get(("s/STM",), ("x/STM",)).extras == (E_1,)
    assert merged.get(("s/STM",), ("y/STM",)).extras == (E_23,)
    assert merged.get(("s/STM",), ("z/STM",)).extras == (E_13,)
    # duplicates keep primary scores
    assert merged.get(("s/STM",), ("x/STM",)).phi_fwd == 0.5
    assert merged.n_extras == 1


def test_add2_origin_features():
    primary, secondary = shared_tables()
    merged = merge.merge_add_features(primary, secondary, 2)
    assert merged.get(("s/STM",), ("x/STM",)).extras == (E_1, E_1)
    assert merged.get(("s/STM",), ("y/STM",)).extras == (E_1, 1.0)
    assert merged.get(("s/STM",), ("z/STM",)).extras == (1.0, E_1)


def test_add1_empty_secondary_constant_column():
    primary, _ = shared_tables()
    merged = merge.merge_add_features(primary, table([]), 1)
    assert len(merged) == len(primary)
    assert all(e.extras == (E_23,) for e in merged)


def test_add_features_break_normalization():
    primary, secondary = shared_tables()
    merged = merge.merge_add_features(primary, secondary, 1)
    total = sum(e.phi_fwd for e in merged)
    assert abs(total - 1.0) > 1e-6  # 0.5 + 0.5 + 1.0


def test_add_features_granularity_mismatch():
    primary, _ = shared_tables()
    with pytest.raises(ValueError):
        merge.merge_add_features(primary, table([entry(("a",), ("x",))], "word"), 1)


# --- interpolation -------------------------------------------------------------


def test_interpolate_hand_value():
    a = table([entry(("s/STM",), ("x/STM",), phi=0.5)])
    b = table([entry(("s/STM",), ("x/STM",), phi=0.25)])
    merged = merge.merge_interpolate(a, b, 0.6)
    assert merged.get(("s/STM",), ("x/STM",)).phi_fwd == pytest.approx(0.4)


def test_interpolate_boundary_alpha():
    a = table([entry(("s/STM",), ("x/STM",), phi=0.5)])
    b = table([entry(("s/STM",), ("y/STM",), phi=0.25)])
    merged = merge.merge_interpolate(a, b, 1.0)
    assert merged.get(("s/STM",), ("x/STM",)).phi_fwd == pytest.approx(0.5)
    assert merged.get(("s/STM",), ("y/STM",)).phi_fwd == 0.0


def test_interpolate_fixed_point_and_counts():
    a = table([entry(("s/STM",), ("x/STM",), phi=0.5, count=2)])
    for alpha in (0.0, 0.3, 1.0):
        merged = merge.merge_interpolate(a, a, alpha)
        assert merged.get(("s/STM",), ("x/STM",)).phi_fwd == pytest.approx(0.5)
        assert merged.get(("s/STM",), ("x/STM",)).count_joint == 4


def test_interpolate_alpha_range():
    a = table([entry(("s/STM",), ("x/STM",))])
    with pytest.raises(ValueError):
        merge.merge_interpolate(a, a, 1.5)


# --- raw-count merge -----------------------------------------------------------


def our_method_fixture():
    # phi values are the true ML estimates of the stored counts, so the
    # idempotence property is meaningful
    pt_m = table([
        entry(("a/STM",), ("x/STM",), phi=0.5, phi_b=1.0, lex=0.5, count=2),
        entry(("a/STM",), ("y/STM",), phi=0.5, phi_b=1.0, lex=0.5, count=2),
    ])
    pt_wm = table([
        entry(("a/STM",), ("x/STM",), phi=0.5, phi_b=1.0, lex=0.25, count=2),
        entry(("a/STM",), ("z/STM",), phi=0.5, phi_b=1.0, lex=0.25, count=2),
    ])
    pt_w = table([
        entry(("a",), ("x",), phi=0.5, phi_b=1.0, lex=0.25, count=2),
        entry(("a",), ("z",), phi=0.5, phi_b=1.0, lex=0.25, count=2),
    ], "word")
    lex_m_f = {("a/STM", "x/STM"): 0.5, ("a/STM", "y/STM"): 0.3,
                            ("a/STM", "z/STM"): 0.2}
    lex_m_b = {("x/STM", "a/STM"): 0.5, ("y/STM", "a/STM"): 0.3,
                            ("z/STM", "a/STM"): 0.2}
    lex_w_f = {("a", "x"): 0.5, ("a", "y"): 0.3, ("a", "z"): 0.2}
    lex_w_b = {("x", "a"): 0.5, ("y", "a"): 0.3, ("z", "a"): 0.2}
    return pt_m, pt_wm, pt_w, (lex_m_f, lex_m_b, lex_w_f, lex_w_b)


def test_our_method_phi_and_lex_hand_values():
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    merged = merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts)
    got = merged.get(("a/STM",), ("x/STM",))
    assert got.phi_fwd == pytest.approx(4 / 8)
    # lex_m = 0.5 from pt_m, lex_w = 0.25 from pt_w: 0.6*0.5 + 0.4*0.25 = 0.4
    assert got.lex_fwd == pytest.approx(0.4)
    assert got.count_joint == 4


def test_our_method_writes_int_counts_as_ints(tmp_path):
    # (a,x) is in both tables, (a,y) in pt_m alone and (a,z) in pt_wm alone
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    write_phrase_table(tmp_path / "pt.txt", merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts))
    lines = (tmp_path / "pt.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(" ||| ")[3] for line in lines] == ["4", "2", "2"]


def test_our_method_estimates_missing_lex_side():
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    merged = merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts)
    # (a,y) only in pt_m: word side estimated from induced alignment, not zero
    gy = merged.get(("a/STM",), ("y/STM",))
    assert gy.lex_fwd == pytest.approx(0.6 * 0.5 + 0.4 * 0.3)
    assert gy.lex_fwd > 0.6 * 0.5
    # (a,z) only in pt_wm: morpheme side estimated from stored alignment
    gz = merged.get(("a/STM",), ("z/STM",))
    assert gz.lex_fwd == pytest.approx(0.6 * 0.2 + 0.4 * 0.25)


def test_our_method_normalization_both_directions():
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    merged = merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts)
    by_src, by_tgt = {}, {}
    for e in merged:
        by_src[e.source] = by_src.get(e.source, 0.0) + e.phi_fwd
        by_tgt[e.target] = by_tgt.get(e.target, 0.0) + e.phi_bwd
    for total in list(by_src.values()) + list(by_tgt.values()):
        assert total == pytest.approx(1.0, abs=1e-9)


def test_our_method_idempotent_phi():
    pt_m, _, pt_w, lts = our_method_fixture()
    merged = merge.merge_our_method(pt_m, pt_m, pt_w, 0.6, *lts)
    for e in pt_m:
        assert merged.get(e.source, e.target).phi_fwd == pytest.approx(e.phi_fwd, abs=1e-15)
        assert merged.get(e.source, e.target).phi_bwd == pytest.approx(e.phi_bwd, abs=1e-15)


def test_our_method_requires_counts():
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    bad = PhraseEntry(("b/STM",), ("w/STM",), 1.0, 1.0, 0.5, 0.5, math.e,
                      None, frozenset({(0, 0)}))
    pt_bad = PhraseTable.of([bad], "morpheme")
    with pytest.raises(ValueError):
        merge.merge_our_method(pt_bad, pt_wm, pt_w, 0.6, *lts)


@pytest.mark.parametrize("side", ["pt_m", "pt_wm"])
def test_our_method_names_the_pair_that_lacks_counts(side):
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    bad = table([*(pt_m if side == "pt_m" else pt_wm), entry(["b/STM"], ["w/STM"], count=None)])
    tables = (bad, pt_wm) if side == "pt_m" else (pt_m, bad)
    with pytest.raises(ValueError) as err:
        merge.merge_our_method(*tables, pt_w, 0.6, *lts)
    assert str(err.value) == f"{side} entry 'b/STM' ||| 'w/STM' lacks counts"


@pytest.mark.parametrize("method", ["add-1", "interpolation", "our-method"])
def test_merges_reject_a_word_table_with_a_morpheme_table(method):
    pt_m, _, pt_w, lts = our_method_fixture()
    merged = {
        "add-1": lambda a, b: merge.merge_add_features(a, b, 1),
        "interpolation": lambda a, b: merge.merge_interpolate(a, b, 0.6),
        "our-method": lambda a, b: merge.merge_our_method(a, b, pt_w, 0.6, *lts),
    }[method]
    for a, b in ((pt_m, pt_w), (pt_w, pt_m)):
        with pytest.raises(ValueError, match=f"^cannot merge a {a.granularity} table "
                                             f"with a {b.granularity} table$"):
            merged(a, b)


def test_merges_are_key_order_independent():
    pt_m, pt_wm, pt_w, lts = our_method_fixture()
    reversed_m = PhraseTable.of(reversed(list(pt_m)), "morpheme")
    a = merge.merge_our_method(pt_m, pt_wm, pt_w, 0.6, *lts)
    b = merge.merge_our_method(reversed_m, pt_wm, pt_w, 0.6, *lts)
    assert list(a) == list(b)
