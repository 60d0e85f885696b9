import random
import re

import pytest
from hypothesis import given, strategies as st

from morphsmt import morpho
from morphsmt.cli import words_as_sentence
from morphsmt.morpho import MorphParseError, MorphTag, MorphToken

from conftest import random_morph_sentence


def test_parse_multimorpheme_word():
    s = morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF")
    assert [t.surface for t in s.tokens] == ["un", "care", "ful", "ly"]
    assert [t.tag for t in s.tokens] == [MorphTag.PRE, MorphTag.STM, MorphTag.SUF, MorphTag.SUF]
    assert [t.continues for t in s.tokens] == [True, True, True, False]


def test_parse_single_word():
    s = morpho.parse_segmented_line("dog/STM")
    assert len(s) == 1
    assert s.tokens[0] == MorphToken("dog", MorphTag.STM, False)


def test_parse_dangling_continuation_is_error():
    with pytest.raises(MorphParseError):
        morpho.parse_segmented_line("a/STM+")


def test_parse_errors_carry_token_index():
    with pytest.raises(MorphParseError) as exc:
        morpho.parse_segmented_line("a/STM b/XYZ")
    assert exc.value.token_index == 1
    with pytest.raises(MorphParseError) as exc:
        morpho.parse_segmented_line("a/STM nodelim")
    assert exc.value.token_index == 1


def test_token_identity_includes_continuation():
    assert morpho.parse_token("care/STM+") != morpho.parse_token("care/STM")


def words_of(s):
    return morpho.words_from_tokens(morpho.token_strings(s))


def test_words_from_tokens_examples():
    s = morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF")
    assert words_of(s) == ["uncarefully"]
    assert words_of(morpho.MorphSentence(())) == []
    finnish = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF "
        "maa/STM+ han/SUF+ muutto/STM "
        "politiika/STM+ n/SUF"
    )
    assert words_of(finnish)[0] == "epädemokraattisen"


def test_word_spans():
    s = morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF")
    assert morpho.word_spans(morpho.token_strings(s)) == [(0, 3)]
    s2 = morpho.parse_segmented_line("a/STM b/STM")
    assert morpho.word_spans(morpho.token_strings(s2)) == [(0, 0), (1, 1)]
    finnish = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF "
        "maa/STM+ han/SUF+ muutto/STM politiika/STM+ n/SUF"
    )
    spans = morpho.word_spans(morpho.token_strings(finnish))
    assert len(spans) == 3
    assert sum(end - start + 1 for start, end in spans) == len(finnish)


# surfaces that hold "/", "+" and tag names, so a serialized token contains
# more than one "/TAG" and may end in "+" twice
tricky_surface = st.text(alphabet="ab/+STMPRE", min_size=1, max_size=8)


@st.composite
def tricky_sentences(draw):
    if draw(st.booleans()):
        return words_as_sentence(draw(st.lists(tricky_surface, max_size=6)))
    n = draw(st.integers(min_value=0, max_value=8))
    return morpho.MorphSentence(tuple(
        MorphToken(draw(tricky_surface), draw(st.sampled_from(list(MorphTag))),
                   i + 1 < n and draw(st.booleans()))
        for i in range(n)
    ))


@given(tricky_sentences())
def test_word_api_over_token_strings_matches_the_tokens(s):
    # the words and spans, from each token's own surface and flag
    spans, words, start = [], [], 0
    for i, tok in enumerate(s.tokens):
        if not tok.continues:
            spans.append((start, i))
            words.append("".join(t.surface for t in s.tokens[start : i + 1]))
            start = i + 1
    tokens = morpho.token_strings(s)
    assert morpho.word_spans(tokens) == spans
    assert morpho.words_from_tokens(tokens) == words


def test_stub_segment():
    assert [t.serialize() for t in morpho.stub_segment("dogs", ["s"])] == ["dog/STM+", "s/SUF"]
    assert [t.serialize() for t in morpho.stub_segment("dog", ["s"])] == ["dog/STM"]
    assert [t.serialize() for t in morpho.stub_segment("s", ["s"])] == ["s/STM"]


def test_stub_segment_longest_suffix_wins_deterministically():
    a = morpho.stub_segment("walking", ["ing", "g"])
    b = morpho.stub_segment("walking", ["g", "ing"])
    assert a == b
    assert [t.surface for t in a] == ["walk", "ing"]


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_random_sentences(seed):
    rng = random.Random(seed)
    s = random_morph_sentence(rng)
    assert morpho.parse_segmented_line(s.serialize()) == s
    tokens = morpho.token_strings(s)
    assert len(morpho.words_from_tokens(tokens)) == len(morpho.word_spans(tokens))
    assert "".join(morpho.words_from_tokens(tokens)) == "".join(t.surface for t in s.tokens)


@given(st.text(alphabet="abcdefg", min_size=1, max_size=12))
def test_stub_segment_properties(word):
    tokens = morpho.stub_segment(word)
    assert re.fullmatch(r"STM|STM\+ SUF", " ".join(
        t.tag.value + "+" * t.continues for t in tokens))
    assert "".join(t.surface for t in tokens) == word
    assert morpho.stub_segment(word) == tokens


def test_string_helpers_handle_plain_words():
    assert morpho.split_token_string("hello") == ("hello", True)
    assert morpho.split_token_string("care/STM+") == ("care", False)
    assert morpho.words_from_tokens(["a/STM+", "b/SUF", "plain"]) == ["ab", "plain"]
    # trailing open word is flushed
    assert morpho.words_from_tokens(["a/STM+"]) == ["a"]
    assert morpho.word_spans(["a/STM+", "b/SUF", "c/STM"]) == [(0, 1), (2, 2)]
    assert morpho.word_spans(["a/STM", "b/STM+"]) == [(0, 0), (1, 1)]


def test_file_roundtrip(tmp_path):
    sentences = [
        morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF"),
        morpho.parse_segmented_line("dog/STM"),
    ]
    path = tmp_path / "seg.txt"
    morpho.write_sentences(path, sentences)
    assert morpho.read_segmented_file(path) == sentences
