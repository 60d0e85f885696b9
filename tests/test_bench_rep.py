"""``bench/rep.py`` run as the benchmark runs it: one traced repetition of a
system in a fresh process.  The tracer wraps package functions by name and
the stage clock times each test sentence as an ``nbest`` call followed by a
``decode`` call, so a renamed function or a broken pair fails here, and not
only when the benchmark runs.  The paper's full system covers boundary-aware
extraction, the twin LMs and MERT; the merged system covers classic and
boundary-aware extraction, scoring, retokenization and the merge."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from morphsmt import synth

REP = Path(__file__).resolve().parents[1] / "bench" / "rep.py"

# counts each system's traced repetition must report above 0
COUNTS = {
    "m+phr+lm+tune": ("align.model1_calls", "phrasex.pairs", "lm.twin_extend_calls",
                      "decoder.extensions", "mert.iterations", "mert.line_searches"),
    "merged": ("align.model1_calls", "phrasex.pairs", "phrasex.entries",
               "merge.merged_entries", "lm.twin_extend_calls", "decoder.extensions"),
}


@pytest.mark.parametrize("system", sorted(COUNTS))
def test_traced_repetition(tmp_path, system):
    cfg = synth.write_workspace(tmp_path / "ws", sizes=(5, 2, 2))
    result, spans = tmp_path / "result.json", tmp_path / "spans.txt"
    proc = subprocess.run(
        [sys.executable, str(REP), system, str(cfg), str(tmp_path / "run"),
         str(result), "--trace", str(spans)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["test_decode_s"] > 0
    assert len(out["sentence_s"]) == 2
    layers = out["layers"]
    for count in COUNTS[system]:
        assert layers[count] > 0, count
    # one search per sentence: the two test sentences and the two dev
    # sentences of every MERT iteration
    assert layers["decoder.searches"] == 2 + 2 * layers["mert.iterations"]
    assert spans.read_text(encoding="utf-8").startswith("{")
