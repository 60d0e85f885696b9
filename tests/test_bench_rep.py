"""``bench/rep.py`` run as the benchmark runs it: one traced repetition of the
paper's full system in a fresh process.  The tracer wraps package functions
by name and the stage clock times each test sentence as an ``nbest`` call
followed by a ``decode`` call, so a renamed function or a broken pair fails
here, and not only when the benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

from morphsmt import synth

REP = Path(__file__).resolve().parents[1] / "bench" / "rep.py"


def test_traced_repetition_of_the_full_system(tmp_path):
    cfg = synth.write_workspace(tmp_path / "ws", sizes=(5, 2, 2))
    result, spans = tmp_path / "result.json", tmp_path / "spans.txt"
    proc = subprocess.run(
        [sys.executable, str(REP), "m+phr+lm+tune", str(cfg), str(tmp_path / "run"),
         str(result), "--trace", str(spans)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["test_decode_s"] > 0
    assert len(out["sentence_s"]) == 2
    layers = out["layers"]
    for count in ("align.model1_calls", "phrasex.pairs", "lm.twin_extend_calls",
                  "decoder.extensions", "mert.iterations"):
        assert layers[count] > 0, count
    # one search per sentence: the two test sentences and the two dev
    # sentences of every MERT iteration
    assert layers["decoder.searches"] == 2 + 2 * layers["mert.iterations"]
    assert spans.read_text(encoding="utf-8").startswith("{")
