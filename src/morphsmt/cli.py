"""Command-line pipeline: ingestion, stage subcommands, end-to-end systems.

Eight named systems cover the usual grid: the two baselines, each single
enhancement (phr / lm / tune), their combinations, and the merged twin-table
system.  Artifacts land in a run directory under fixed names with a manifest
of input digests and settings, so identical configs give identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, get_args

from . import __version__
from . import align as al
from . import decoder as dec
from . import lm as lmod
from . import merge as mg
from . import mert as mt
from . import metrics as ev
from . import morpho as mo
from . import phrasex as px
from .config import CHECKS, PipelineConfig, load_config


@dataclass(frozen=True)
class SystemPlan:
    granularity: str  # "word" or "morpheme"
    boundary_aware: bool
    word_lm: bool  # a morpheme system has a morpheme LM, the word system none
    tune: bool
    merged: bool


PLANS = {
    "w-system": SystemPlan("word", False, True, False, False),
    "m-system": SystemPlan("morpheme", False, False, False, False),
    "m+phr": SystemPlan("morpheme", True, False, False, False),
    "m+lm": SystemPlan("morpheme", False, True, False, False),
    "m+tune": SystemPlan("morpheme", False, False, True, False),
    "m+phr+lm": SystemPlan("morpheme", True, True, False, False),
    "m+phr+lm+tune": SystemPlan("morpheme", True, True, True, False),
    "merged": SystemPlan("morpheme", True, True, False, True),
}
SYSTEMS = tuple(PLANS)


def _check_parallel(path_a, lines_a: list, path_b, lines_b: list) -> None:
    """ValueError naming both files if they do not have one line per sentence pair."""
    if len(lines_a) != len(lines_b):
        raise ValueError(f"parallel files differ in length: {path_a} has "
                         f"{len(lines_a)} lines, {path_b} has {len(lines_b)}")


def _read_parallel(read, path_a, path_b) -> tuple[list, list]:
    """Two parallel files, each read by ``read``, checked by ``_check_parallel``."""
    lines_a, lines_b = read(path_a), read(path_b)
    _check_parallel(path_a, lines_a, path_b, lines_b)
    return lines_a, lines_b


_TRAIN_PAIRS = "train pair with two non-empty sides"  # what a train corpus needs one of


def _check_found(found, what: str, *paths):
    """``found``, a list or dict; a ValueError naming the files it came from if it is empty."""
    if not found:
        raise ValueError(f"no {what} in {' and '.join(map(str, paths))}")
    return found


# each checked subcommand flag, by dest: the config setting whose bound it takes
_FLAG_SETTINGS = {
    "beam": "beam", "nbest": "nbest", "distortion_limit": "distortion_limit",
    "max_iters": "mert_max_iters", "epsilon": "mert_epsilon", "iterations": "align_iterations",
    "order": "lm_word_order", "max_span": "max_words", "alpha": "merge_alpha",
}


def _check_flags(args) -> None:
    """ValueError naming the first given flag outside its setting's bound."""
    for dest, setting in _FLAG_SETTINGS.items():
        value = getattr(args, dest, None)
        ok, message = CHECKS[setting]
        if value is not None and not ok(value):
            raise ValueError(message.format(name=f"--{dest.replace('_', '-')}", value=value))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


@dataclass
class CorpusData:
    words: dict[str, list[list[str]]]  # the word view of each sentence in morphs
    morphs: dict[str, list[tuple[str, ...]]]


def _load_data(cfg: PipelineConfig, tune: bool = False) -> CorpusData:
    """The six segmented corpus files, each split's two sides parallel, and
    each sentence's word view, joined from its tokens.  A split the run cannot
    use is a ValueError naming its two files: a train split with no pair of two
    non-empty sides, an empty test split, and an empty dev split if ``tune``."""
    morphs = {}
    for split in ("train", "dev", "test"):
        src, tgt = (cfg.paths[f"{split}_{side}_morphs"] for side in ("src", "tgt"))
        pair = _read_parallel(mo.read_segmented_file, src, tgt)
        if split == "train":
            _check_found(al.sentence_pairs(*pair), _TRAIN_PAIRS, src, tgt)
        elif split == "test" or tune:
            _check_found(pair[0], f"{split} sentences", src, tgt)
        morphs[f"{split}_src"], morphs[f"{split}_tgt"] = pair
    return CorpusData({key: list(map(mo.words_from_tokens, sentences))
                       for key, sentences in morphs.items()}, morphs)


def build_table(
    src: Sequence[Sequence[str]],
    tgt: Sequence[Sequence[str]],
    granularity: al.Granularity,
    boundary_aware: bool,
    max_span: int,
    iterations: int,
    heuristic: al.Heuristic,
    alignments=None,
) -> tuple[px.PhraseTable, al.LexicalTable, al.LexicalTable]:
    """A scored phrase table and its two lexical tables, from parallel
    token-string sentences.  Pairs with an empty side are dropped.  The kept
    pairs are aligned, or, given ``alignments`` (a Pharaoh file with one line
    per kept pair), Model 1 is trained in both directions for the lexical
    tables alone."""
    pairs = al.sentence_pairs(src, tgt)
    if alignments is None:
        links, lt_f, lt_b = al.align_corpus(pairs, iterations, heuristic)
    else:
        links = al.read_alignments(alignments, [(len(s), len(t)) for s, t in pairs])
        lt_f, lt_b = al.train_both(pairs, iterations)
    extract = px.extract_corpus_boundary_aware if boundary_aware else px.extract_corpus
    counts = extract([s for s, _ in pairs], [t for _, t in pairs], links, max_span)
    table = px.score_phrase_table(counts, lt_f, lt_b, granularity)
    return table, lt_f, lt_b


def _span_limit(cfg, granularity: al.Granularity, boundary_aware: bool) -> int:
    """Extraction's limit in ``cfg``, a config or ``PipelineConfig`` for the
    defaults: tokens for classic morpheme extraction, else words."""
    return cfg.max_morphemes if granularity == "morpheme" and not boundary_aware else cfg.max_words


def _word_table(cfg: PipelineConfig, data: CorpusData):
    return build_table(data.words["train_src"], data.words["train_tgt"], "word", False,
                       cfg.max_words, cfg.align_iterations, cfg.align_heuristic)


def _morph_table(cfg: PipelineConfig, data: CorpusData, boundary_aware: bool):
    return build_table(
        data.morphs["train_src"], data.morphs["train_tgt"], "morpheme", boundary_aware,
        _span_limit(cfg, "morpheme", boundary_aware), cfg.align_iterations, cfg.align_heuristic,
    )


def _segmentation_lexicon(data: CorpusData) -> mg.SegmentationLexicon:
    return mg.build_lexicon([s for sentences in data.morphs.values() for s in sentences])


def _merged_table(cfg: PipelineConfig, data: CorpusData,
                  lexicon: mg.SegmentationLexicon):
    pt_m, ltm_f, ltm_b = _morph_table(cfg, data, boundary_aware=True)
    pt_w, ltw_f, ltw_b = _word_table(cfg, data)
    pt_wm = mg.retokenize_pt(pt_w, lexicon)
    # merge.primary picks the primary table of add-1 and add-2 only
    wm_first = cfg.merge_method in ("add-1", "add-2") and cfg.merge_primary == "wm"
    a, b = (pt_wm, pt_m) if wm_first else (pt_m, pt_wm)
    return mg.merge_tables(cfg.merge_method, a, b, cfg.merge_alpha, pt_w,
                           (ltm_f, ltm_b, ltw_f, ltw_b))


def _proximity(cfg: PipelineConfig, data: CorpusData, traces):
    """Translation proximity via src-ref alignments on train+test concatenation."""
    combined = al.sentence_pairs(data.words["train_src"] + data.words["test_src"],
                                 data.words["train_tgt"] + data.words["test_tgt"])
    table = al.train_model1(combined, cfg.align_iterations)
    alignments = [al.viterbi_align(src, ref, table)
                  for src, ref in zip(data.words["test_src"], data.words["test_tgt"])]
    return ev.proximity_triples(traces, data.words["test_tgt"], alignments)


def _search_sources(granularity: al.Granularity, sentences: list) -> list:
    """Decoder input: word sentences as tokens, segmented sentences as they are."""
    return [mo.words_as_tokens(s) for s in sentences] if granularity == "word" else sentences


def decode_corpus(
    sources: Sequence[tuple[str, ...]],
    table: px.PhraseTable,
    lm_m: Optional[lmod.NGramModel],
    lm_w: Optional[lmod.NGramModel],
    weights: Mapping[str, float],
    beam: int,
    distortion_limit: int,
    n: int,
) -> tuple[list[dec.Hypothesis], list[list[dec.NBestEntry]]]:
    """The best hypothesis and the ``n``-best list of each source sentence,
    from one search per sentence.  The heap is frozen before each search, so
    the collector skips the tables and LMs, and wholly unfrozen on return: a
    freeze count cannot tell a caller's freeze from CPython 3.12's own."""
    best, lists = [], []
    try:
        for source in sources:
            gc.freeze()
            entries, complete = dec.nbest(source, table, lm_m, lm_w, weights, beam,
                                          distortion_limit, n)
            lists.append(entries)
            best.append(dec.decode(complete))
    finally:
        gc.unfreeze()
    return best, lists


def run_pipeline(system: str, cfg: PipelineConfig, run_dir) -> dict[str, Path]:
    if system not in PLANS:
        raise ValueError(f"unknown system {system!r}; expected one of {', '.join(SYSTEMS)}")
    plan = PLANS[system]
    data = _load_data(cfg, plan.tune)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    # one lexicon: the merged system retokenizes with it, evaluation segments with it
    lexicon = _segmentation_lexicon(data)

    if plan.merged:
        table = _merged_table(cfg, data, lexicon)
    elif plan.granularity == "word":
        table, _, _ = _word_table(cfg, data)
    else:
        table, _, _ = _morph_table(cfg, data, plan.boundary_aware)
    artifacts["pt"] = run_dir / "pt.txt"
    px.write_phrase_table(artifacts["pt"], table)
    view = data.words if plan.granularity == "word" else data.morphs
    dev_sources = _search_sources(plan.granularity, view["dev_src"])
    test_sources = _search_sources(plan.granularity, view["test_src"])
    # the run searches only what its sentences can look up: free the rest now
    table = dec.restrict_table(table, (dev_sources if plan.tune else []) + test_sources)

    smoothing = cfg.lm_smoothing
    lm_m = lm_w = None
    if plan.granularity == "morpheme":
        lm_m = lmod.train_lm(data.morphs["train_tgt"], cfg.lm_morph_order, smoothing)
        artifacts["lm_m"] = run_dir / "lm_m.arpa"
        lmod.write_arpa(artifacts["lm_m"], lm_m)
    if plan.word_lm:
        lm_w = lmod.train_lm(data.words["train_tgt"], cfg.lm_word_order, smoothing)
        artifacts["lm_w"] = run_dir / "lm_w.arpa"
        lmod.write_arpa(artifacts["lm_w"], lm_w)

    weights = dec.default_weights(table.n_extras, lm_m is not None, lm_w is not None)

    if plan.tune:
        state = mt.mert_run(
            [tuple(r) for r in data.words["dev_tgt"]], weights,
            lambda wts: decode_corpus(dev_sources, table, lm_m, lm_w, wts, cfg.beam,
                                      cfg.distortion_limit, cfg.nbest)[1],
            cfg.mert_max_iters, cfg.mert_epsilon, seed=cfg.seed,
        )
        weights = state.best_weights
        artifacts["mert_log"] = run_dir / "mert_log.txt"
        mt.write_mert_log(artifacts["mert_log"], state)

    artifacts["weights"] = run_dir / "weights.tsv"
    dec.write_weights(artifacts["weights"], weights)

    best, nbest_lists = decode_corpus(test_sources, table, lm_m, lm_w, weights,
                                      cfg.beam, cfg.distortion_limit, cfg.nbest)
    outputs = [dec.target_tokens(h) for h in best]
    traces = [dec.trace(h, source) for h, source in zip(best, test_sources)]

    artifacts["output"] = run_dir / "output.txt"
    mo.write_word_lines(artifacts["output"], outputs)
    artifacts["nbest"] = run_dir / "nbest.txt"
    dec.write_nbest(artifacts["nbest"], nbest_lists)
    artifacts["trace"] = run_dir / "trace.txt"
    mo.write_lines(artifacts["trace"], (
        f"{sent_id} ||| {start}-{end} ||| {' '.join(src_words)} ||| {' '.join(out_words)}"
        for sent_id, items in enumerate(traces) for start, end, src_words, out_words in items))

    hyp_words = [mo.words_from_tokens(toks) for toks in outputs]
    report = {}
    bleu_report = ev.bleu(hyp_words, data.words["test_tgt"])
    _fill_report(report, "bleu", bleu_report)
    hyp_morphs = [
        [tok for w in words for tok in lexicon.segment(w)] for words in hyp_words
    ]
    _fill_report(report, "m_bleu", ev.m_bleu(hyp_morphs, data.morphs["test_tgt"]))
    prox = _proximity(cfg, data, traces)
    report["triples"] = str(prox.total)
    report["exact_matches"] = str(prox.exact_matches)
    report["skipped"] = str(prox.skipped)

    artifacts["report"] = run_dir / "report.txt"
    _write_report(artifacts["report"], report.items())
    artifacts["manifest"] = run_dir / "manifest.txt"
    _write_manifest(artifacts["manifest"], system, cfg)
    return artifacts


def _fill_report(report: dict, prefix: str, r: ev.BleuReport) -> None:
    report[prefix] = f"{r.score:.6f}"
    for n, p in enumerate(r.precisions, start=1):
        report[f"{prefix}_p{n}"] = f"{p:.6f}"
    report[f"{prefix}_bp"] = f"{r.brevity_penalty:.6f}"
    report[f"{prefix}_hyp_len"] = str(r.hyp_length)
    report[f"{prefix}_ref_len"] = str(r.ref_length)


def _write_report(path, items: Iterable[tuple[str, object]]) -> None:
    mo.write_lines(path, (f"{key}={value}" for key, value in items))


def _write_manifest(path, system: str, cfg: PipelineConfig) -> None:
    # digests that differ between two runs may come from another Python
    _write_report(path, [("system", system), ("python", platform.python_version()),
                         ("morphsmt", __version__), *cfg.settings_items(),
                         *((f"digest.{k}", sha256_file(cfg.paths[k])) for k in sorted(cfg.paths))])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_segment_apply(args) -> int:
    suffixes = tuple(args.suffixes.split(",")) if args.suffixes else mo.DEFAULT_STUB_SUFFIXES
    mo.write_word_lines(args.output, [
        mo.segment_words(words, suffixes) for words in mo.read_word_file(args.input)
    ])
    return 0


def _cmd_align(args) -> int:
    src, tgt = _read_parallel(mo.read_word_file, args.source, args.target)
    pairs = _check_found(al.sentence_pairs(src, tgt), _TRAIN_PAIRS, args.source, args.target)
    alignments, _, _ = al.align_corpus(pairs, args.iterations, args.heuristic)
    al.write_alignments(args.output, alignments)
    if len(src) > len(pairs):
        print(f"dropped {len(src) - len(pairs)} empty-side pairs", file=sys.stderr)
    return 0


def _cmd_extract(args) -> int:
    if args.boundary_aware and args.granularity == "word":
        raise ValueError("--boundary-aware extracts morpheme tables, not --granularity word")
    # morpheme input is parsed as segmented text, so a malformed token is
    # reported with its file and line
    read = mo.read_segmented_file if args.granularity == "morpheme" else mo.read_word_file
    src, tgt = _read_parallel(read, args.source, args.target)
    _check_found(al.sentence_pairs(src, tgt), _TRAIN_PAIRS, args.source, args.target)
    max_span = args.max_span or _span_limit(PipelineConfig, args.granularity, args.boundary_aware)
    table, _, _ = build_table(src, tgt, args.granularity, args.boundary_aware, max_span,
                              args.iterations, PipelineConfig.align_heuristic, args.alignments)
    px.write_phrase_table(args.output, table)
    return 0


def _cmd_lm_train(args) -> int:
    sentences = _check_found(mo.read_word_file(args.input), "sentences", args.input)
    model = lmod.train_lm(sentences, args.order, args.smoothing)
    lmod.write_arpa(args.output, model)
    return 0


def _load_search(args, source_path):
    """What ``decode`` and ``mert`` search with: the table cut to the source
    sentences, the optional LMs, the weights (the defaults for that table and
    those LMs when no file is given) and the source sentences."""
    table = px.read_phrase_table(args.table, args.granularity)
    lm_m = lmod.read_arpa(args.lm_morph) if args.lm_morph else None
    lm_w = lmod.read_arpa(args.lm_word) if args.lm_word else None
    weights = features = dec.default_weights(table.n_extras, lm_m is not None, lm_w is not None)
    if args.weights:
        weights = _check_found(dec.read_weights(args.weights), "weights", args.weights)
        unknown = [name for name in weights if name not in features]
        if unknown:
            raise ValueError(f"{args.weights}: unknown feature {unknown[0]!r}; expected one of "
                             f"{', '.join(features)}")
    read = mo.read_word_file if args.granularity == "word" else mo.read_segmented_file
    sources = _search_sources(args.granularity, read(source_path))
    return dec.restrict_table(table, sources), lm_m, lm_w, weights, sources


def _cmd_decode(args) -> int:
    table, lm_m, lm_w, weights, sources = _load_search(args, args.input)
    best, nbest_lists = decode_corpus(sources, table, lm_m, lm_w, weights, args.beam,
                                      args.distortion_limit, args.nbest)
    mo.write_word_lines(args.output, [dec.target_tokens(h) for h in best])
    if args.nbest_output:
        dec.write_nbest(args.nbest_output, nbest_lists)
    return 0


def _cmd_mert(args) -> int:
    table, lm_m, lm_w, initial, sources = _load_search(args, args.dev_source)
    refs = [tuple(r) for r in mo.read_word_file(args.dev_refs)]
    _check_parallel(args.dev_source, sources, args.dev_refs, refs)
    _check_found(refs, "dev sentences", args.dev_source, args.dev_refs)
    state = mt.mert_run(
        refs, initial,
        lambda wts: decode_corpus(sources, table, lm_m, lm_w, wts, args.beam,
                                  args.distortion_limit, args.nbest)[1],
        args.max_iters, args.epsilon, seed=args.seed,
    )
    dec.write_weights(args.output, state.best_weights)
    if args.log:
        mt.write_mert_log(args.log, state)
    return 0


def _cmd_eval(args) -> int:
    if (args.hyp_morphs is None) != (args.ref_morphs is None):
        raise ValueError("--hyp-morphs and --ref-morphs must be given together")
    hyps, refs = _read_parallel(mo.read_word_file, args.hyp, args.ref)
    _check_found(hyps, "sentences", args.hyp, args.ref)
    report: dict[str, str] = {}
    _fill_report(report, "bleu", ev.bleu(hyps, refs))
    if args.hyp_morphs is not None:
        hyp_m, ref_m = _read_parallel(mo.read_word_file, args.hyp_morphs, args.ref_morphs)
        _fill_report(report, "m_bleu", ev.m_bleu(hyp_m, ref_m))
    if args.compare:
        other = mo.read_word_file(args.compare)
        _check_parallel(args.compare, other, args.ref, refs)
        wins_a = wins_b = 0
        for h, o, r in zip(hyps, other, refs, strict=True):
            sa = ev.bleu_from_stats(ev.bleu_stats(h, r)).score
            sb = ev.bleu_from_stats(ev.bleu_stats(o, r)).score
            wins_a += sa > sb
            wins_b += sb > sa
        report["wins_hyp"] = str(wins_a)
        report["wins_compare"] = str(wins_b)
        if wins_a + wins_b:
            report["p_value"] = repr(ev.sign_test(wins_a, wins_b))
    _write_report(args.output, report.items())
    print("\n".join(f"{k}={v}" for k, v in report.items()))
    return 0


def _cmd_merge_pt(args) -> int:
    pt_w, lexical = None, ()
    lex_paths = (args.lex_m_fwd, args.lex_m_bwd, args.lex_w_fwd, args.lex_w_bwd)
    if args.method != "our-method" and any(p is not None for p in (args.pt_w, *lex_paths)):
        raise ValueError("--pt-w and --lex-* are used only by --method our-method")
    if args.method == "our-method":
        if None in (args.pt_w, *lex_paths):
            raise ValueError("--method our-method needs --pt-w and the four --lex-* tables")
        pt_w = px.read_phrase_table(args.pt_w)
        lexical = [al.read_lexical_table(path) for path in lex_paths]
    a, b = map(px.read_phrase_table, (args.primary, args.secondary))
    merged = mg.merge_tables(args.method, a, b, args.alpha, pt_w, lexical)
    px.write_phrase_table(args.output, merged)
    return 0


def _cmd_pipeline(args) -> int:
    overrides = {}
    for kv in args.set or []:
        if "=" not in kv:
            raise ValueError(f"--set expects KEY=VALUE: {kv!r}")
        key, value = (part.strip() for part in kv.split("=", 1))  # as a config line is read
        if key in overrides:
            raise ValueError(f"--set {key}={value}: duplicate key {key}, "
                             f"first set by --set {key}={overrides[key]}")
        overrides[key] = value
    cfg = load_config(args.config, overrides)
    artifacts = run_pipeline(args.system, cfg, args.run_dir)
    for name in sorted(artifacts):
        print(f"{name}: {artifacts[name]}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The subcommands; a flag that mirrors a config setting takes its default from it."""
    parser = argparse.ArgumentParser(
        prog="morphsmt",
        description="desk-scale hybrid morpheme-word phrase-based SMT",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    granularities = get_args(al.Granularity)

    p = sub.add_parser("segment-apply", help="stub-segment plain text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--suffixes", default=None, help="comma-separated suffix list")
    p.set_defaults(func=_cmd_segment_apply)

    p = sub.add_parser("align", help="train IBM Model 1 and write Pharaoh alignments")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--iterations", type=int, default=PipelineConfig.align_iterations)
    p.add_argument("--heuristic", default=PipelineConfig.align_heuristic,
                   choices=get_args(al.Heuristic))
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("extract", help="extract and score a phrase table")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alignments", default=None,
                   help="Pharaoh file; omitted = align internally")
    p.add_argument("--output", required=True)
    p.add_argument("--granularity", default="morpheme", choices=granularities)
    p.add_argument("--boundary-aware", action="store_true")
    p.add_argument("--max-span", type=int, default=None,
                   help="tokens (classic morpheme) or words; omitted = the pipeline's limit")
    p.add_argument("--iterations", type=int, default=PipelineConfig.align_iterations)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("lm-train", help="train a backoff n-gram LM, write ARPA")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--smoothing", default=PipelineConfig.lm_smoothing,
                   choices=get_args(lmod.Smoothing))
    p.set_defaults(func=_cmd_lm_train)

    # what decode and mert search with
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--table", required=True)
    search.add_argument("--output", required=True)
    search.add_argument("--granularity", default="morpheme", choices=granularities)
    search.add_argument("--lm-morph", default=None)
    search.add_argument("--lm-word", default=None)
    search.add_argument("--weights", help="omitted = the defaults for the table and LMs")
    search.add_argument("--beam", type=int, default=PipelineConfig.beam)
    search.add_argument("--distortion-limit", type=int,
                        default=PipelineConfig.distortion_limit)
    search.add_argument("--nbest", type=int, default=PipelineConfig.nbest)

    p = sub.add_parser("decode", parents=[search],
                       help="translate a file with a phrase table")
    p.add_argument("--input", required=True)
    p.add_argument("--nbest-output", default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("mert", parents=[search],
                       help="tune weights on a dev set (word-level BLEU)")
    p.add_argument("--dev-source", required=True)
    p.add_argument("--dev-refs", required=True, help="word-token references")
    p.add_argument("--max-iters", type=int, default=PipelineConfig.mert_max_iters)
    p.add_argument("--epsilon", type=float, default=PipelineConfig.mert_epsilon)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--log", default=None)
    p.set_defaults(func=_cmd_mert)

    p = sub.add_parser("eval", help="BLEU/m-BLEU report, optional paired sign test")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp-morphs", default=None)
    p.add_argument("--ref-morphs", default=None)
    p.add_argument("--compare", default=None, help="second hypothesis file")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("merge-pt", help="combine two phrase tables")
    p.add_argument("--method", required=True, choices=get_args(mg.MergeMethod))
    p.add_argument("--primary", required=True,
                   help="primary table (pt_m for our-method)")
    p.add_argument("--secondary", required=True,
                   help="secondary table (retokenized pt_w->m for our-method)")
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, default=PipelineConfig.merge_alpha)
    p.add_argument("--pt-w", default=None)
    p.add_argument("--lex-m-fwd", default=None)
    p.add_argument("--lex-m-bwd", default=None)
    p.add_argument("--lex-w-fwd", default=None)
    p.add_argument("--lex-w-bwd", default=None)
    p.set_defaults(func=_cmd_merge_pt)

    p = sub.add_parser("pipeline", help="run a named end-to-end system")
    p.add_argument("system", choices=SYSTEMS)
    p.add_argument("--config", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
