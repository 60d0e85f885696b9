import random
import re

import pytest
from hypothesis import given, strategies as st

from morphsmt import morpho

from conftest import random_morph_sentence


def test_parse_multimorpheme_word():
    toks = ("un/PRE+", "care/STM+", "ful/SUF+", "ly/SUF")
    assert morpho.parse_segmented_line(" ".join(toks)) == toks
    assert morpho.parse_segmented_line(" un/PRE+\tcare/STM+  ful/SUF+ ly/SUF\n") == toks
    assert [morpho.split_token_string(t) for t in toks] == [
        ("un", False), ("care", False), ("ful", False), ("ly", True)]


def test_parse_single_word():
    assert morpho.parse_segmented_line("dog/STM") == ("dog/STM",)
    assert morpho.parse_segmented_line("\n") == ()


def test_parse_dangling_continuation_is_error():
    with pytest.raises(ValueError) as exc:
        morpho.parse_segmented_line("a/STM+")
    assert str(exc.value) == "token 0: dangling continuation at end of sentence: 'a/STM+'"


def test_parse_errors_carry_token_index():
    with pytest.raises(ValueError) as exc:
        morpho.parse_segmented_line("a/STM b/XYZ")
    assert str(exc.value) == "token 1: not of form surface/TAG[+]: 'b/XYZ'"
    with pytest.raises(ValueError) as exc:
        morpho.parse_segmented_line("a/STM nodelim")
    assert str(exc.value) == "token 1: not of form surface/TAG[+]: 'nodelim'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.write_bytes(newline.join(["a", "b", "c", "d"]).encode("ascii"))
    assert list(morpho.read_lines(good)) == [(1, "a\n"), (2, "b\n"), (3, "c\n"), (4, "d")]
    bad.write_bytes(newline.join(["a", "b", "c\xe9", "d"]).encode("latin-1"))
    with pytest.raises(ValueError) as exc:
        list(morpho.read_lines(bad))
    assert str(exc.value) == f"{bad}:3: not UTF-8: invalid continuation byte"


def test_token_identity_includes_continuation():
    cont = morpho.parse_segmented_line("care/STM+ less/SUF")[0]
    final = morpho.parse_segmented_line("care/STM")[0]
    assert cont != final
    assert morpho.split_token_string(cont) == ("care", False)
    assert morpho.split_token_string(final) == ("care", True)


def test_words_from_tokens_examples():
    s = morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF")
    assert morpho.words_from_tokens(s) == ["uncarefully"]
    assert morpho.words_from_tokens(()) == []
    finnish = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF "
        "maa/STM+ han/SUF+ muutto/STM "
        "politiika/STM+ n/SUF"
    )
    assert morpho.words_from_tokens(finnish)[0] == "epädemokraattisen"


def test_word_spans():
    s = morpho.parse_segmented_line("un/PRE+ care/STM+ ful/SUF+ ly/SUF")
    assert morpho.word_spans(s) == [(0, 3)]
    s2 = morpho.parse_segmented_line("a/STM b/STM")
    assert morpho.word_spans(s2) == [(0, 0), (1, 1)]
    finnish = morpho.parse_segmented_line(
        "epä/PRE+ demokraat/STM+ t/SUF+ i/SUF+ s/SUF+ en/SUF "
        "maa/STM+ han/SUF+ muutto/STM politiika/STM+ n/SUF"
    )
    spans = morpho.word_spans(finnish)
    assert len(spans) == 3
    assert sum(end - start + 1 for start, end in spans) == len(finnish)


# surfaces that hold "/", "+" and tag names, so a token string contains
# more than one "/TAG" and may end in "+" twice
tricky_surface = st.text(alphabet="ab/+STMPRE", min_size=1, max_size=8)


@st.composite
def tricky_sentences(draw):
    """Token strings, and each token's (surface, word-internal flag) as it was made."""
    if draw(st.booleans()):
        words = draw(st.lists(tricky_surface, max_size=6))
        return morpho.words_as_tokens(words), [(w, False) for w in words]
    n = draw(st.integers(min_value=0, max_value=8))
    made = [(draw(tricky_surface), draw(st.sampled_from(["PRE", "STM", "SUF"])),
             i + 1 < n and draw(st.booleans()))
            for i in range(n)]
    return (tuple(f"{surface}/{tag}{'+' * cont}" for surface, tag, cont in made),
            [(surface, cont) for surface, _, cont in made])


@given(tricky_sentences())
def test_word_api_over_token_strings_matches_the_tokens(sentence):
    # the words and spans, from the surface and flag each token was made with
    tokens, made = sentence
    spans, words, start = [], [], 0
    for i, (_, cont) in enumerate(made):
        if not cont:
            spans.append((start, i))
            words.append("".join(surface for surface, _ in made[start : i + 1]))
            start = i + 1
    assert morpho.word_spans(tokens) == spans
    assert morpho.words_from_tokens(tokens) == words


def test_stub_segment():
    assert morpho.stub_segment("dogs", ["s"]) == ["dog/STM+", "s/SUF"]
    assert morpho.stub_segment("dog", ["s"]) == ["dog/STM"]
    assert morpho.stub_segment("s", ["s"]) == ["s/STM"]


def test_stub_segment_longest_suffix_wins_deterministically():
    a = morpho.stub_segment("walking", ["ing", "g"])
    b = morpho.stub_segment("walking", ["g", "ing"])
    assert a == b
    assert a == ["walk/STM+", "ing/SUF"]


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_random_sentences(seed):
    rng = random.Random(seed)
    toks = random_morph_sentence(rng)
    assert morpho.parse_segmented_line(" ".join(toks)) == toks
    assert len(morpho.words_from_tokens(toks)) == len(morpho.word_spans(toks))
    assert "".join(morpho.words_from_tokens(toks)) == "".join(
        tok.rsplit("/", 1)[0] for tok in toks)


@given(st.text(alphabet="abcdefg", min_size=1, max_size=12))
def test_stub_segment_properties(word):
    tokens = morpho.stub_segment(word)
    assert morpho.parse_segmented_line(" ".join(tokens)) == tuple(tokens)
    assert re.fullmatch(r"STM|STM\+ SUF", " ".join(t.split("/")[1] for t in tokens))
    assert "".join(t.split("/")[0] for t in tokens) == word
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
        (),
    ]
    path = tmp_path / "seg.txt"
    morpho.write_word_lines(path, sentences)
    assert morpho.read_segmented_file(path) == sentences
