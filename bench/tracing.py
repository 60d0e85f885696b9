"""In-memory span tracer and the layer wrappers it installs on morphsmt.

A span is (id, parent id, name, start, end); every span of one traced
repetition shares the tracer's run id, which is written once in the span
file's header.  Spans are appended when a call returns, so children come
before their parent, and they are kept in flat arrays because a traced run
records hundreds of thousands of them.  The two hottest leaf calls,
``NGramModel.logprob`` and ``split_token_string`` (the most frequent calls), are
counted without a span: their time stays in the calling span.

The wrappers are installed from here, around the public functions of each
layer: the program itself carries no tracing code.  A name that a module
binds with ``from ... import`` is wrapped where it is looked up, and
``NGramModel.logprob`` is wrapped on the class.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

# layer -> {module: [function names looked up as that module's globals]}
LAYER_FUNCTIONS = {
    "morpho": {
        "morpho": ["read_segmented_file", "read_word_file"],
    },
    "align": {"align": ["align_corpus", "train_model1", "viterbi_align", "symmetrize"]},
    "phrasex": {
        "phrasex": ["extract_corpus", "extract_corpus_boundary_aware",
                    "score_phrase_table", "write_phrase_table"],
    },
    "merge": {
        "merge": ["build_lexicon", "retokenize_pt", "merge_our_method",
                  "merge_interpolate", "merge_add_features"],
    },
    "lm": {"lm": ["train_lm", "write_arpa", "twin_extend"], "decoder": ["twin_extend"]},
    "decoder": {
        "decoder": ["nbest", "decode", "search", "build_options", "_extend", "_finalize"],
    },
    "mert": {"mert": ["mert_run", "line_search"]},
    "metrics": {"metrics": ["bleu", "m_bleu", "proximity_triples"]},
    "cli": {"cli": ["run_pipeline"]},
}

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "morpho.read_s": ["read_segmented_file", "read_word_file"],
    "align.model1_s": ["train_model1"],
    "align.viterbi_s": ["viterbi_align"],
    "align.symmetrize_s": ["symmetrize"],
    "phrasex.extract_s": ["extract_corpus", "extract_corpus_boundary_aware"],
    "phrasex.score_s": ["score_phrase_table"],
    "phrasex.write_s": ["write_phrase_table"],
    "merge.lexicon_s": ["build_lexicon"],
    "merge.retokenize_s": ["retokenize_pt"],
    "merge.combine_s": ["merge_our_method", "merge_interpolate", "merge_add_features"],
    "merge.self_s": ["build_lexicon", "retokenize_pt", "merge_our_method",
                     "merge_interpolate", "merge_add_features"],
    "lm.train_s": ["train_lm"],
    "lm.arpa_write_s": ["write_arpa"],
    "lm.twin_extend_s": ["twin_extend"],
    "decoder.search_s": ["nbest", "decode", "search", "_extend", "_finalize"],
    "decoder.build_options_s": ["build_options"],
    "mert.line_search_s": ["line_search"],
    "metrics.bleu_s": ["bleu", "m_bleu"],
    "metrics.proximity_s": ["proximity_triples"],
    "cli.self_s": ["run_pipeline"],
}

# leaf functions counted without spans: (module, name) lookup sites
COUNTED_ONLY = {
    "split_token_string": ["morpho", "lm", "decoder"],
}

# per-layer metric -> span or counted name whose number of calls it reports
CALL_COUNT_METRICS = {
    "morpho.split_calls": "split_token_string",
    "align.model1_calls": "train_model1",
    "merge.lexicon_builds": "build_lexicon",
    "lm.logprob_calls": "logprob",
    "lm.twin_extend_calls": "twin_extend",
    "decoder.searches": "search",
    "decoder.extensions": "_extend",
    "mert.line_searches": "line_search",
}

SPAN_FILE_MAGIC = "morphsmt-spans-v1"


class Tracer:
    """Records one span per wrapped call, plus counts taken from results."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack = [-1]
        self._next_id = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records a span named ``name``.

        ``on_result(args, result)`` runs after the span closes, so the work it
        does to count things is not charged to any layer.
        """
        name_id = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        ids, parents, name_ids = self.ids, self.parents, self.name_ids
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(span_id)
                parents.append(parent)
                name_ids.append(name_id)
                starts.append(start)
                ends.append(end)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped so that each call only adds one to ``calls[name]``."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def spans(self):
        """(id, parent, name, start, end) tuples, in the order calls returned."""
        names = self.names
        return [
            (i, p, names[n], s, e)
            for i, p, n, s, e in zip(self.ids, self.parents, self.name_ids,
                                     self.starts, self.ends)
        ]

    def self_times(self) -> dict[str, float]:
        return self_times(zip(self.ids, self.parents,
                              (self.names[n] for n in self.name_ids),
                              self.starts, self.ends))

    def call_counts(self) -> Counter:
        """Calls per name: spans recorded plus calls counted without a span."""
        out = Counter(self.names[n] for n in self.name_ids)
        out.update(self.calls)
        return out

    def write(self, path) -> None:
        """Header line (JSON) then one ``id parent name start end`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": SPAN_FILE_MAGIC, "run_id": self.run_id,
                                 "spans": len(self.ids)}) + "\n")
            names = self.names
            for i, p, n, s, e in zip(self.ids, self.parents, self.name_ids,
                                     self.starts, self.ends):
                fh.write(f"{i} {p} {names[n]} {s!r} {e!r}\n")


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    ``spans`` yields (id, parent, name, start, end) with parent -1 for a root.
    A child's interval lies inside its parent's, so subtracting the children's
    durations leaves the time the parent spent in its own code.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span_id, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return out


def read_spans(path):
    """Inverse of ``Tracer.write``: (header dict, list of span tuples)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != SPAN_FILE_MAGIC:
            raise ValueError(f"{path}: not a span file")
        spans = []
        for line in fh:
            i, p, name, s, e = line.split()
            spans.append((int(i), int(p), name, float(s), float(e)))
    return header, spans


def install(tracer: Tracer, morphsmt) -> None:
    """Wrap every layer function listed above, plus ``NGramModel.logprob``.

    ``morphsmt`` is the imported package; its submodules are patched in place.
    """
    counts = tracer.counts
    expanded: set[int] = set()

    def count_ngrams(args, model):
        counts["lm.ngrams"] += sum(len(level) for level in model.logprobs)

    def count_pairs(args, pair_counts):
        counts["phrasex.pairs"] += sum(pair_counts.values())

    def count_entries(args, table):
        counts["phrasex.entries"] += len(table)

    def count_merged(args, table):
        counts["merge.merged_entries"] += len(table)

    def count_options(args, options):
        counts["decoder.options"] += len(options)

    def new_search(args, result):
        # hypotheses are alive for the whole search, so ids are unique in it
        counts["decoder.expanded"] += len(expanded)
        expanded.clear()

    def note_parent(args, hyp):
        expanded.add(id(args[0]))

    def count_mert(args, state):
        counts["mert.iterations"] += len(state.history)
        counts["mert.pool_candidates"] += sum(len(p) for p in state.pool)

    hooks = {
        "train_lm": count_ngrams,
        "extract_corpus": count_pairs,
        "extract_corpus_boundary_aware": count_pairs,
        "score_phrase_table": count_entries,
        "merge_our_method": count_merged,
        "merge_interpolate": count_merged,
        "merge_add_features": count_merged,
        "build_options": count_options,
        "search": new_search,
        "_extend": note_parent,
        "mert_run": count_mert,
    }
    for modules in LAYER_FUNCTIONS.values():
        for module_name, functions in modules.items():
            module = importlib.import_module(f"{morphsmt.__name__}.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                setattr(module, fn_name,
                        tracer.wrap(fn_name, original, hooks.get(fn_name)))
    for fn_name, module_names in COUNTED_ONLY.items():
        for module_name in module_names:
            module = importlib.import_module(f"{morphsmt.__name__}.{module_name}")
            setattr(module, fn_name, tracer.count(fn_name, getattr(module, fn_name)))
    lm_class = importlib.import_module(f"{morphsmt.__name__}.lm").NGramModel
    lm_class.logprob = tracer.count("logprob", lm_class.logprob)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s) and counts of one traced repetition."""
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    for metric, name in CALL_COUNT_METRICS.items():
        out[metric] = calls.get(name, 0)
    for key in ("lm.ngrams", "phrasex.pairs", "phrasex.entries", "merge.merged_entries",
                "decoder.options", "mert.iterations", "mert.pool_candidates"):
        out[key] = tracer.counts.get(key, 0)
    created = calls.get("_extend", 0) + calls.get("search", 0)
    out["decoder.expanded_ratio"] = (
        tracer.counts.get("decoder.expanded", 0) / created if created else 0.0
    )
    return out
