"""Self-tests for the benchmark's own logic (no pipeline is run).

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (100, 90), (1000, 90), (99, 89), (40, 75), (20, 50), (10, 50), (1, 50),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = harness.tail_percentile(n)
    assert p == expected
    if p > 50:
        assert n * (100 - p) / 100 >= harness.TAIL_SAMPLES
        assert p == 90 or n * (100 - (p + 1)) / 100 < harness.TAIL_SAMPLES


def test_percentile_interpolates():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 50) == 3.0
    assert harness.percentile(values, 100) == 5.0
    assert harness.percentile(values, 90) == pytest.approx(4.6)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 6] -> b [2, 5]; root -> c [7, 9]; a second root [20, 21]
    spans = [
        (2, 1, "b", 2.0, 5.0),
        (1, 0, "a", 1.0, 6.0),
        (3, 0, "c", 7.0, 9.0),
        (0, -1, "root", 0.0, 10.0),
        (4, -1, "root", 20.0, 21.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"root": 10 - 5 - 2 + 1, "a": 5 - 3, "b": 3, "c": 2})
    assert sum(selfs.values()) == pytest.approx(10 + 1)


def test_tracer_spans_nest_and_round_trip(tmp_path):
    tracer = tracing.Tracer("run-1")

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)
    counted = tracer.count("tiny", lambda: None)

    def outer():
        counted()
        return traced_leaf(1) + traced_leaf(2)

    assert tracer.wrap("outer", outer)() == 5
    spans = tracer.spans()
    assert [s[2] for s in spans] == ["leaf", "leaf", "outer"]
    outer_id = spans[-1][0]
    assert spans[-1][1] == -1 and all(s[1] == outer_id for s in spans[:2])
    assert tracer.call_counts() == {"leaf": 2, "outer": 1, "tiny": 1}
    selfs = tracer.self_times()
    total = spans[-1][4] - spans[-1][3]
    assert sum(selfs.values()) == pytest.approx(total)

    path = tmp_path / "spans.txt"
    tracer.write(path)
    header, read_back = tracing.read_spans(path)
    assert header["run_id"] == "run-1" and header["spans"] == 3
    assert read_back == spans


def test_tracer_records_span_when_call_raises():
    tracer = tracing.Tracer("r")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [s[2] for s in tracer.spans()] == ["boom"]
    assert tracer.wrap("ok", lambda: 1)() == 1
    assert tracer.spans()[-1][1] == -1  # the stack unwound


def test_digest_mismatches():
    a = {"pt": "1", "output": "2"}
    assert harness.digest_mismatches([a, dict(a), dict(a)]) == []
    assert harness.digest_mismatches([a, {"pt": "1", "output": "3"}]) == ["output"]
    assert harness.digest_mismatches([a, {"pt": "1"}]) == ["output"]
    assert harness.digest_mismatches([]) == []


def test_digests_hash_file_bytes(tmp_path):
    (tmp_path / "x").write_bytes(b"abc")
    got = harness.digests({"x": str(tmp_path / "x")})
    assert got == {"x": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"}


def _artifacts(tmp_path, output, nbest, report):
    paths = {}
    for name, text in (("output", output), ("nbest", nbest), ("report", report)):
        paths[name] = str(tmp_path / f"{name}.txt")
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


GOOD_NBEST = ("0 ||| a/STM ||| lm_morph=-1.5 tm=-0.5 ||| -2.0\n"
              "1 ||| b/STM ||| lm_morph=-2.5 tm=-0.5 ||| -3.0\n")


def test_gate_accepts_good_outputs(tmp_path):
    arts = _artifacts(tmp_path, "a\nb\n", GOOD_NBEST, "bleu=0.5\nbleu_p1=0.7\n")
    assert harness.check_outputs(arts, 2) == (0, [])


def test_gate_counts_missing_lines_and_non_finite_scores(tmp_path):
    nbest = GOOD_NBEST.replace("lm_morph=-2.5", "lm_morph=-inf")
    arts = _artifacts(tmp_path, "a\n", nbest, "bleu=0.5\n")
    failed, problems = harness.check_outputs(arts, 3)
    assert failed == 2  # sentence 1 (non-finite) and sentence 2 (no line)
    assert len(problems) == 2

    arts = _artifacts(tmp_path, "a\nb\n", GOOD_NBEST.replace("-2.0", "nan"), "bleu=0.5\n")
    assert harness.check_outputs(arts, 2)[0] == 1


def test_gate_fails_every_sentence_on_bad_report(tmp_path):
    for report in ("bleu=None\n", "garbage\n", "m_bleu=0.1\n", "bleu=1.5\n"):
        arts = _artifacts(tmp_path, "a\nb\n", GOOD_NBEST, report)
        failed, problems = harness.check_outputs(arts, 2)
        assert failed == 2 and problems, report


def test_summarize_matches_statistics_quantiles():
    s = harness.summarize([1.0, 2.0, 3.0, 4.0])
    assert s["median"] == 2.5 and s["n"] == 4
    assert (s["q1"], s["q3"]) == (1.25, 3.75)
    assert s["mean"] == 2.5
    assert harness.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1,
                                        "mean": 7.0}
