import argparse
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from morphsmt import cli, config, decoder, lm, morpho, phrasex, synth
from morphsmt.config import ConfigError, load_config


def test_bundled_corpus_matches_generator(tmp_path):
    synth.write_workspace(tmp_path)
    bundled = synth.bundled_dir()
    for name in sorted(p.name for p in bundled.iterdir()):
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


def test_config_load_and_validation(synth_dir):
    cfg = load_config(synth_dir / "synth.cfg")
    assert cfg.max_words == 7
    assert cfg.beam == 20
    assert cfg.paths["train_src_morphs"].exists()


def test_config_overrides(synth_dir):
    cfg = load_config(synth_dir / "synth.cfg", {"decoder.beam": "5", "seed": "9"})
    assert cfg.beam == 5 and cfg.seed == 9


def test_config_rejects_bad_values(synth_dir, tmp_path):
    with pytest.raises(ConfigError):
        load_config(synth_dir / "synth.cfg", {"decoder.beam": "0"})
    with pytest.raises(ConfigError):
        load_config(synth_dir / "synth.cfg", {"merge.method": "bogus"})
    with pytest.raises(ConfigError):
        load_config(synth_dir / "synth.cfg", {"data.train_src_morphs": "missing.txt"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense without equals\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_segment_apply_roundtrip(tmp_path):
    inp = tmp_path / "words.txt"
    inp.write_text("dogs walked\ncat\n", encoding="utf-8")
    out = tmp_path / "morphs.txt"
    rc = cli.main(["segment-apply", "--input", str(inp), "--output", str(out),
                   "--suffixes", "s,ed"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dog/STM+ s/SUF walk/STM+ ed/SUF"
    assert lines[1] == "cat/STM"


def test_align_subcommand(tmp_path):
    (tmp_path / "s.txt").write_text("a b\na\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x y\nx\n", encoding="utf-8")
    out = tmp_path / "a.txt"
    rc = cli.main(["align", "--source", str(tmp_path / "s.txt"),
                   "--target", str(tmp_path / "t.txt"), "--output", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert "0-0" in lines[1]


def test_align_reports_the_pairs_it_drops(tmp_path, capsys):
    (tmp_path / "s.txt").write_text("a b\n\na\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x y\nz\nx\n", encoding="utf-8")
    out = tmp_path / "a.txt"
    rc = cli.main(["align", "--source", str(tmp_path / "s.txt"),
                   "--target", str(tmp_path / "t.txt"), "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == "dropped 1 empty-side pairs\n"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


def test_extract_subcommand(tmp_path):
    (tmp_path / "s.txt").write_text("a/STM b/STM\nb/STM\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("x/STM y/STM\ny/STM\n", encoding="utf-8")
    out = tmp_path / "pt.txt"
    rc = cli.main(["extract", "--source", str(tmp_path / "s.txt"),
                   "--target", str(tmp_path / "t.txt"), "--output", str(out),
                   "--boundary-aware", "--max-span", "7"])
    assert rc == 0
    table = phrasex.read_phrase_table(out)
    assert len(table) > 0


@pytest.mark.parametrize("system", ["w-system", "m-system", "m+phr"])
@pytest.mark.parametrize("given_alignments", [False, True])
def test_extract_writes_the_pipelines_table(tmp_path, system, given_alignments):
    cfg = load_config(synth.write_workspace(tmp_path / "ws", sizes=(5, 2, 2)))
    pt = cli.run_pipeline(system, cfg, tmp_path / "run")["pt"]
    plan = cli.PLANS[system]
    kind = "words" if plan.granularity == "word" else "morphs"
    src, tgt = (str(tmp_path / "ws" / f"train.{side}.{kind}") for side in ("src", "tgt"))
    max_span = cfg.max_morphemes if kind == "morphs" and not plan.boundary_aware \
        else cfg.max_words
    argv = ["extract", "--source", src, "--target", tgt, "--output", str(tmp_path / "pt.txt"),
            "--granularity", plan.granularity, "--max-span", str(max_span),
            "--iterations", str(cfg.align_iterations)]
    if plan.boundary_aware:
        argv.append("--boundary-aware")
    if given_alignments:
        links = str(tmp_path / "links.txt")
        assert cli.main(["align", "--source", src, "--target", tgt, "--output", links,
                         "--iterations", str(cfg.align_iterations),
                         "--heuristic", cfg.align_heuristic]) == 0
        argv += ["--alignments", links]
    assert cli.main(argv) == 0
    assert (tmp_path / "pt.txt").read_bytes() == pt.read_bytes()


@pytest.mark.parametrize("system", ["w-system", "m-system", "m+phr"])
def test_extract_defaults_write_the_pipelines_table(tmp_path, system):
    # classic morpheme extraction is limited in tokens: this corpus's m-system
    # table has a source phrase longer than the 7-word limit of the others
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=5, sizes=(60, 8, 6)))
    pt = cli.run_pipeline(system, cfg, tmp_path / "run")["pt"]
    plan = cli.PLANS[system]
    kind = "words" if plan.granularity == "word" else "morphs"
    src, tgt = (str(tmp_path / "ws" / f"train.{side}.{kind}") for side in ("src", "tgt"))
    argv = ["extract", "--source", src, "--target", tgt, "--output", str(tmp_path / "pt.txt"),
            "--granularity", plan.granularity] + ["--boundary-aware"] * plan.boundary_aware
    assert cli.main(argv) == 0
    assert (tmp_path / "pt.txt").read_bytes() == pt.read_bytes()
    if system == "m-system":
        assert max(map(len, phrasex.read_phrase_table(pt).by_source)) > cfg.max_words


@pytest.mark.parametrize("system", sorted(cli.SYSTEMS))
def test_decoding_a_runs_artifacts_gives_its_output(tmp_path, monkeypatch, system):
    tables = []  # the pipeline's in-memory table, as it is written
    write = phrasex.write_phrase_table
    monkeypatch.setattr(phrasex, "write_phrase_table",
                        lambda path, table: tables.append(table) or write(path, table))
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=7, sizes=(60, 8, 8)))
    run = cli.run_pipeline(system, cfg, tmp_path / "run")
    plan = cli.PLANS[system]
    kind = "words" if plan.granularity == "word" else "morphs"
    argv = ["decode", "--input", str(tmp_path / "ws" / f"test.src.{kind}"),
            "--table", str(run["pt"]),
            "--granularity", plan.granularity, "--weights", str(run["weights"]),
            "--beam", str(cfg.beam), "--distortion-limit", str(cfg.distortion_limit),
            "--nbest", str(cfg.nbest), "--output", str(tmp_path / "out.txt"),
            "--nbest-output", str(tmp_path / "nbest.txt")]
    for name, flag in (("lm_m", "--lm-morph"), ("lm_w", "--lm-word")):
        if name in run:
            argv += [flag, str(run[name])]
    assert cli.main(argv) == 0
    assert (tmp_path / "out.txt").read_bytes() == run["output"].read_bytes()
    assert (tmp_path / "nbest.txt").read_bytes() == run["nbest"].read_bytes()
    # the read-back table spans what the pipeline's table spans, and gives its options
    read_back = phrasex.read_phrase_table(run["pt"], plan.granularity)
    assert read_back.max_span == tables[0].max_span > 0
    assert read_back.n_extras == tables[0].n_extras
    if plan.granularity == "word":
        sources = [morpho.words_as_tokens(words) for split in ("dev", "test")
                   for words in morpho.read_word_file(tmp_path / "ws" / f"{split}.src.words")]
    else:
        sources = [source for split in ("dev", "test")
                   for source in morpho.read_segmented_file(cfg.paths[f"{split}_src_morphs"])]
    assert len(sources) == 16
    for source in sources:
        assert decoder.build_options(source, read_back) == decoder.build_options(source, tables[0])


@pytest.mark.parametrize("system", ["m+tune", "m+phr+lm+tune"])
def test_tuning_a_runs_artifacts_gives_its_weights(tmp_path, system):
    ws = tmp_path / "ws"
    cfg = load_config(synth.write_workspace(ws, seed=7, sizes=(60, 8, 8)))
    run = cli.run_pipeline(system, cfg, tmp_path / "run")
    argv = ["mert", "--table", str(run["pt"]), "--dev-source", str(ws / "dev.src.morphs"),
            "--dev-refs", str(ws / "dev.tgt.words"), "--beam", str(cfg.beam),
            "--distortion-limit", str(cfg.distortion_limit), "--nbest", str(cfg.nbest),
            "--max-iters", str(cfg.mert_max_iters), "--epsilon", repr(cfg.mert_epsilon),
            "--seed", str(cfg.seed), "--output", str(tmp_path / "weights.tsv"),
            "--log", str(tmp_path / "mert_log.txt")]
    for name, flag in (("lm_m", "--lm-morph"), ("lm_w", "--lm-word")):
        if name in run:
            argv += [flag, str(run[name])]
    assert cli.main(argv) == 0
    assert (tmp_path / "weights.tsv").read_bytes() == run["weights"].read_bytes()
    assert (tmp_path / "mert_log.txt").read_bytes() == run["mert_log"].read_bytes()


def lm_flags(run):
    """The ``decode`` and ``mert`` flags that give a run's LMs, morpheme LM first."""
    return [arg for name, flag in (("lm_m", "--lm-morph"), ("lm_w", "--lm-word"))
            if name in run for arg in (flag, str(run[name]))]


@pytest.mark.parametrize("system", sorted(cli.SYSTEMS))
def test_a_weight_that_names_no_feature_is_refused(tmp_path, capsys, system):
    ws = tmp_path / "ws"
    cfg = load_config(synth.write_workspace(ws, seed=7, sizes=(30, 4, 4)))
    run = cli.run_pipeline(system, cfg, tmp_path / "run")
    plan = cli.PLANS[system]
    kind = "words" if plan.granularity == "word" else "morphs"
    lms = lm_flags(run)
    out = tmp_path / "out.txt"
    search = ["--table", str(run["pt"]), "--granularity", plan.granularity, "--output", str(out)]
    decode = ["decode", "--input", str(ws / f"test.src.{kind}"), *search]
    mert = ["mert", "--dev-source", str(ws / f"dev.src.{kind}"),
            "--dev-refs", str(ws / "dev.tgt.words"), "--max-iters", "1", *search]
    own = run["weights"].read_text(encoding="utf-8")
    names = [line.split("\t")[0] for line in own.splitlines()]
    misspelled = names[0][:-2] + names[0][-1] + names[0][-2]  # lm_morph -> lm_morhp
    bad = tmp_path / "bad_weights.tsv"
    bad.write_text(own.replace(names[0], misspelled, 1), encoding="utf-8")
    for argv in (decode, mert):
        assert cli.main([*argv, *lms, "--weights", str(bad)]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: unknown feature {misspelled!r}; "
                                           f"expected one of {', '.join(names)}\n")
        assert not out.exists()
        assert cli.main([*argv, *lms, "--weights", str(run["weights"])]) == 0
        out.unlink()
    if "lm_w" in run:  # a weight for an LM the search is not given
        assert cli.main([*decode, *lms[:-2], "--weights", str(run["weights"])]) == 1
        assert "unknown feature 'lm_word'" in capsys.readouterr().err
        assert not out.exists()


def whole_word_spans(source):
    """Every whole-word span of a morpheme sentence, as its token strings."""
    spans = morpho.word_spans(source)
    return {source[spans[i][0] : spans[j - 1][1] + 1]
            for i in range(len(spans)) for j in range(i + 1, len(spans) + 1)}


@pytest.mark.parametrize("system", ["m-system", "m+phr+lm+tune"])
def test_pipeline_and_decode_search_only_what_their_sentences_can_look_up(
        tmp_path, monkeypatch, system):
    searched = []  # (source, table) of each search
    search = decoder.search
    monkeypatch.setattr(decoder, "search", lambda source, table, *rest: (
        searched.append((source, table)) or search(source, table, *rest)))
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=7, sizes=(60, 8, 8)))
    run = cli.run_pipeline(system, cfg, tmp_path / "run")
    whole = phrasex.read_phrase_table(run["pt"])
    n_lines = len(run["pt"].read_text(encoding="utf-8").splitlines())
    assert len(whole) == n_lines

    def check_searches(splits):
        # one table for every search, cut to the spans of the decoded sentences
        sources = [source for split in splits
                   for source in morpho.read_segmented_file(cfg.paths[f"{split}_src_morphs"])]
        assert {source for source, _ in searched} == set(sources)  # MERT decodes dev again
        (table,) = {id(table): table for _, table in searched}.values()
        assert table.by_source and set(table.by_source) <= set().union(
            *map(whole_word_spans, sources))
        assert len(table) < n_lines
        assert (table.max_span, table.n_extras) == (whole.max_span, whole.n_extras)
        searched.clear()

    check_searches(("dev", "test") if cli.PLANS[system].tune else ("test",))
    lms = lm_flags(run)
    assert cli.main(["decode", "--input", str(cfg.paths["test_src_morphs"]),
                     "--table", str(run["pt"]), "--weights", str(run["weights"]),
                     "--output", str(tmp_path / "out.txt"), *lms]) == 0
    check_searches(("test",))


def test_lm_train_subcommand(tmp_path):
    (tmp_path / "c.txt").write_text("a b\na c\n", encoding="utf-8")
    out = tmp_path / "lm.arpa"
    rc = cli.main(["lm-train", "--input", str(tmp_path / "c.txt"),
                   "--output", str(out), "--order", "2"])
    assert rc == 0
    model = lm.read_arpa(out)
    assert model.order == 2
    assert math.exp(model.logprob("b", ["a"])) == pytest.approx(0.3)


@pytest.mark.parametrize("corpus", ["bundled", "seed-7"])
def test_lm_train_rebuilds_a_runs_lms(tmp_path, synth_config, corpus):
    cfg = synth_config if corpus == "bundled" else \
        load_config(synth.write_workspace(tmp_path / "ws", seed=7, sizes=(30, 4, 4)))
    run = cli.run_pipeline("m+phr+lm", cfg, tmp_path / "run")
    morphs = cfg.paths["train_tgt_morphs"]
    for name, text, order in (("lm_m", morphs, cfg.lm_morph_order),
                              ("lm_w", morphs.with_suffix(".words"), cfg.lm_word_order)):
        out = tmp_path / f"{name}.arpa"
        assert cli.main(["lm-train", "--input", str(text),
                         "--order", str(order), "--smoothing", cfg.lm_smoothing,
                         "--output", str(out)]) == 0
        assert out.read_bytes() == run[name].read_bytes()


def test_decode_subcommand(tmp_path):
    pt = tmp_path / "pt.txt"
    e = math.e
    pt.write_text(
        f"a/STM ||| x/STM ||| 1.0 1.0 1.0 1.0 {e!r} ||| 1 ||| 0-0\n",
        encoding="utf-8",
    )
    (tmp_path / "in.txt").write_text("a/STM\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    rc = cli.main(["decode", "--input", str(tmp_path / "in.txt"),
                   "--table", str(pt), "--output", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8") == "x/STM\n"


def test_decode_writes_one_line_per_input_line(tmp_path):
    pt = tmp_path / "pt.txt"
    pt.write_text(f"a/STM ||| x/STM ||| 1.0 1.0 1.0 1.0 {math.e!r} ||| 1 ||| 0-0\n",
                  encoding="utf-8")
    (tmp_path / "in.txt").write_text("a/STM\na/STM a/STM\n\na/STM\na/STM\n",
                                     encoding="utf-8")
    out = tmp_path / "out.txt"
    nbest = tmp_path / "nbest.txt"
    rc = cli.main(["decode", "--input", str(tmp_path / "in.txt"), "--table", str(pt),
                   "--output", str(out), "--nbest-output", str(nbest)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").split("\n") == [
        "x/STM", "x/STM x/STM", "", "x/STM", "x/STM", ""]
    lists = decoder.read_nbest(nbest)
    assert len(lists) == 5 and lists[2][0].tokens == ()


def test_decode_default_weights_cover_every_extra_score(tmp_path):
    # 8 scores: the 5 standard ones and 3 merge features
    pt = tmp_path / "pt.txt"
    pt.write_text(f"a/STM ||| x/STM ||| 1.0 1.0 1.0 1.0 {math.e!r} 0.5 0.5 0.5 ||| 1 ||| 0-0\n",
                  encoding="utf-8")
    (tmp_path / "in.txt").write_text("a/STM\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    proc = run_morphsmt("decode", "--input", str(tmp_path / "in.txt"), "--table", str(pt),
                        "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == "x/STM\n"
    weights = decoder.default_weights(3)
    assert [weights[f"merge_feat_{i}"] for i in (1, 2, 3)] == [0.3, 0.3, 0.3]


DECODE_MALFORMED = {
    # case: (bad file, its appended bad line)
    "input": ("input", "a/XYZ\n"),
    "weights": ("weights", "phi_bwd 0.4\n"),
    "weights-nan": ("weights", "phi_bwd\tnan\n"),
    "table": ("table", "a/STM ||| y/STM ||| 1.0 oops\n"),
    "table-inf": ("table", f"a/STM ||| y/STM ||| inf 1.0 1.0 1.0 {math.e!r} ||| 1 ||| 0-0\n"),
    "table-empty-source": ("table", f" ||| y/STM ||| 0.5 0.5 0.5 0.5 {math.e!r} ||| 1 |||\n"),
    "table-empty-target": ("table", f"a/STM ||| ||| 0.5 0.5 0.5 0.5 {math.e!r} ||| 1 |||\n"),
    "table-extra-field": ("table", f"a/STM ||| y/STM ||| 1.0 1.0 1.0 1.0 {math.e!r} ||| 1 "
                                   "||| 0-0 ||| junk here\n"),
}


@pytest.mark.parametrize("case", sorted(DECODE_MALFORMED))
def test_decode_names_file_and_line_of_malformed_input(tmp_path, case):
    bad, bad_line = DECODE_MALFORMED[case]
    files = {
        "table": f"a/STM ||| x/STM ||| 1.0 1.0 1.0 1.0 {math.e!r} ||| 1 ||| 0-0\n",
        "input": "a/STM\n\na/STM a/STM\n",
        "weights": "phi_fwd\t0.4\n",
    }
    files[bad] += bad_line
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src_dir), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "morphsmt", "decode", "--input", str(tmp_path / "input"),
         "--table", str(tmp_path / "table"), "--weights", str(tmp_path / "weights"),
         "--output", str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True)
    line = {"input": 4, "weights": 2, "table": 2}[bad]
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"{tmp_path / bad}:{line}:" in proc.stderr


TABLE_LINE = f"a/STM ||| x/STM ||| 1.0 1.0 1.0 1.0 {math.e!r} ||| 1 ||| 0-0\n"
MERGE_OUR_METHOD = [
    "merge-pt", "--method", "our-method", "--primary", "{pt}", "--secondary", "{pt}",
    "--pt-w", "{pt}", "--lex-m-fwd", "{lex}", "--lex-m-bwd", "{lex}", "--lex-w-fwd", "{lex}",
    "--lex-w-bwd", "{lex}", "--output", "{out}"]
MALFORMED_INPUTS = {
    # name: (files, bad file, bad line, subcommand arguments)
    "arpa": (
        {"input": "a/STM\n", "table": TABLE_LINE,
         "lm": "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\tx/STM\n-0.5\n"},
        "lm", 6,
        ["decode", "--input", "{input}", "--table", "{table}", "--lm-morph", "{lm}",
         "--output", "{out}"],
    ),
    "arpa-count": (
        {"input": "a/STM\n", "table": TABLE_LINE,
         "lm": "\\data\\\nngram 1=5\n\n\\1-grams:\n-0.5\tx/STM\n-0.5\ty/STM\n\n\\end\\\n"},
        "lm", 8,
        ["decode", "--input", "{input}", "--table", "{table}", "--lm-morph", "{lm}",
         "--output", "{out}"],
    ),
    "weights-duplicate": (
        {"input": "a/STM\n", "table": TABLE_LINE, "weights": "phi_fwd\t0.1\nphi_fwd\t0.5\n"},
        "weights", 2,
        ["decode", "--input", "{input}", "--table", "{table}", "--weights", "{weights}",
         "--output", "{out}"],
    ),
    "lexical-table": (
        {"pt": TABLE_LINE, "lex": "a/STM\tx/STM\t0.5\n\tx/STM\t0.25\na/STM\tx/STM\n",
         "lex_ok": "a/STM\tx/STM\t0.5\n"},
        "lex", 3,
        ["merge-pt", "--method", "our-method", "--primary", "{pt}", "--secondary", "{pt}",
         "--pt-w", "{pt}", "--lex-m-fwd", "{lex}", "--lex-m-bwd", "{lex_ok}",
         "--lex-w-fwd", "{lex_ok}", "--lex-w-bwd", "{lex_ok}", "--output", "{out}"],
    ),
    "lexical-nonfinite": (
        {"pt": TABLE_LINE, "lex": "a/STM\tx/STM\t0.5\n\tx/STM\tnan\n",
         "lex_ok": "a/STM\tx/STM\t0.5\n"},
        "lex", 2,
        ["merge-pt", "--method", "our-method", "--primary", "{pt}", "--secondary", "{pt}",
         "--pt-w", "{pt}", "--lex-m-fwd", "{lex_ok}", "--lex-m-bwd", "{lex}",
         "--lex-w-fwd", "{lex_ok}", "--lex-w-bwd", "{lex_ok}", "--output", "{out}"],
    ),
    "lexical-empty-target": (
        {"pt": TABLE_LINE, "lex": "a/STM\tx/STM\t0.5\na/STM\t\t0.5\n",
         "lex_ok": "a/STM\tx/STM\t0.5\n"},
        "lex", 2,
        ["merge-pt", "--method", "our-method", "--primary", "{pt}", "--secondary", "{pt}",
         "--pt-w", "{pt}", "--lex-m-fwd", "{lex}", "--lex-m-bwd", "{lex_ok}",
         "--lex-w-fwd", "{lex_ok}", "--lex-w-bwd", "{lex_ok}", "--output", "{out}"],
    ),
    "lexical-duplicate": (
        {"pt": TABLE_LINE, "lex": "a/STM\tx/STM\t0.5\n\tx/STM\t0.25\na/STM\tx/STM\t0.125\n",
         "lex_ok": "a/STM\tx/STM\t0.5\n"},
        "lex", 3,
        ["merge-pt", "--method", "our-method", "--primary", "{pt}", "--secondary", "{pt}",
         "--pt-w", "{pt}", "--lex-m-fwd", "{lex_ok}", "--lex-m-bwd", "{lex_ok}",
         "--lex-w-fwd", "{lex}", "--lex-w-bwd", "{lex_ok}", "--output", "{out}"],
    ),
    "extract-classic-morpheme": (
        {"src": "a/STM b/XYZ\n", "tgt": "x/STM\n"},
        "src", 1,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--granularity", "morpheme",
         "--output", "{out}"],
    ),
    "table-link-bounds": (
        {"pt": TABLE_LINE + TABLE_LINE.replace("x/STM", "y/STM").replace("0-0", "3-0"),
         "lex": "a/STM\tx/STM\t0.5\n"},
        "pt", 2, MERGE_OUR_METHOD,
    ),
    "table-link-piece": (
        {"pt": TABLE_LINE + TABLE_LINE.replace("x/STM", "y/STM").replace("0-0", "0"),
         "lex": "a/STM\tx/STM\t0.5\n"},
        "pt", 2, MERGE_OUR_METHOD,
    ),
    "table-duplicate": (
        {"pt": TABLE_LINE + TABLE_LINE.replace(" ||| 0-0", ""), "lex": "a/STM\tx/STM\t0.5\n"},
        "pt", 2, MERGE_OUR_METHOD,
    ),
    "table-negative-count": (  # would divide by the source's summed count, 0
        {"pt": TABLE_LINE + TABLE_LINE.replace("x/STM", "y/STM").replace("||| 1 |||", "||| -1 |||"),
         "lex": "a/STM\tx/STM\t0.5\n"},
        "pt", 2, MERGE_OUR_METHOD,
    ),
    "table-zero-count": (
        {"pt": TABLE_LINE.replace("||| 1 |||", "||| 0 |||"), "lex": "a/STM\tx/STM\t0.5\n"},
        "pt", 1, MERGE_OUR_METHOD,
    ),
    "alignment-link": (
        {"src": "a b\nc\n", "tgt": "x\ny z\n", "align": "0-0 1-0\n0-x\n"},
        "align", 2,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--alignments", "{align}",
         "--granularity", "word", "--output", "{out}"],
    ),
    "alignment-bounds": (
        {"src": "a b\nc\n", "tgt": "x\ny z\n", "align": "0-0 1-0\n0-1 1-1\n"},
        "align", 2,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--alignments", "{align}",
         "--granularity", "word", "--output", "{out}"],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_readers_name_file_and_line_of_malformed_input(tmp_path, case):
    files, bad, line, argv = MALFORMED_INPUTS[case]
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src_dir), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "morphsmt", *(arg.format(**paths) for arg in argv)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"{tmp_path / bad}:{line}:" in proc.stderr


NOT_UTF8 = {
    # case: (files, bad file, its bad line, subcommand arguments); a file's
    # text is written as Latin-1, so its "\xff" is the byte 0xff
    "corpus": (
        {"src": "a/STM\n\xff/STM\n", "tgt": "x/STM\ny/STM\n"}, "src", 2,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "corpus-past-the-first-block": (  # 12,000 bytes before it: text mode decodes 8 KB blocks
        {"src": "a/STM b/STM\n" * 1000 + "\xff/STM\n", "tgt": "x/STM\n" * 1001}, "src", 1001,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "word-file": (
        {"hyp": "a b\nc \xff\n", "ref": "a b\nc d\n"}, "hyp", 2,
        ["eval", "--hyp", "{hyp}", "--ref", "{ref}", "--output", "{out}"],
    ),
    "phrase-table": (
        {"input": "a/STM\n", "table": TABLE_LINE + TABLE_LINE.replace("x/STM", "\xff/STM")},
        "table", 2, ["decode", "--input", "{input}", "--table", "{table}", "--output", "{out}"],
    ),
    "arpa": (
        {"input": "a/STM\n", "table": TABLE_LINE,
         "lm": "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t\xff/STM\n\n\\end\\\n"},
        "lm", 5,
        ["decode", "--input", "{input}", "--table", "{table}", "--lm-morph", "{lm}",
         "--output", "{out}"],
    ),
    "weights": (
        {"input": "a/STM\n", "table": TABLE_LINE, "weights": "phi_fwd\t0.4\n\xff\t0.5\n"},
        "weights", 2,
        ["decode", "--input", "{input}", "--table", "{table}", "--weights", "{weights}",
         "--output", "{out}"],
    ),
    "lexical-table": (
        {"pt": TABLE_LINE, "lex": "a/STM\tx/STM\t0.5\n\xff\tx/STM\t0.25\n"},
        "lex", 2, MERGE_OUR_METHOD,
    ),
    "alignments": (
        {"src": "a b\nc\n", "tgt": "x\ny z\n", "align": "0-0 1-0\n0-0 \xff\n"},
        "align", 2,
        ["extract", "--source", "{src}", "--target", "{tgt}", "--alignments", "{align}",
         "--granularity", "word", "--output", "{out}"],
    ),
    "config": (
        {"cfg": "# a config\nseed = \xff\n"}, "cfg", 2,
        ["pipeline", "m-system", "--config", "{cfg}", "--run-dir", "{out}"],
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(tmp_path, capsys, case):
    files, bad, line, argv = NOT_UTF8[case]
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
        paths[name] = str(tmp_path / name)
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[bad]}:{line}: not UTF-8: invalid start byte\n")
    assert not (tmp_path / "out").exists()


BOM_INPUTS = {
    # case: (files, or None for a workspace's, the file given a byte-order
    # mark, subcommand arguments)
    "weights": (  # the first weight, phi_fwd, picks x/STM over y/STM
        {"input": "a/STM\n", "weights": "phi_fwd\t1.0\nphi_bwd\t0.5\n",
         "table": TABLE_LINE + TABLE_LINE.replace("x/STM ||| 1.0 1.0", "y/STM ||| 0.5 2.0")},
        "weights",
        ["decode", "--input", "{input}", "--table", "{table}", "--weights", "{weights}",
         "--output", "{out}"],
    ),
    "word-file": (
        {"hyp": "a b c d\n", "ref": "a b c d\n"}, "hyp",
        ["eval", "--hyp", "{hyp}", "--ref", "{ref}", "--output", "{out}"],
    ),
    "corpus": (
        {"src": "a/STM b/STM\n", "tgt": "x/STM y/STM\n"}, "src",
        ["extract", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "phrase-table": (
        {"input": "a/STM\n", "table": TABLE_LINE}, "table",
        ["decode", "--input", "{input}", "--table", "{table}", "--output", "{out}"],
    ),
    "arpa": (
        {"input": "a/STM\n", "table": TABLE_LINE,
         "lm": "\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\n-0.5\t</s>\n-0.5\tx/STM\n\n"
               "\\end\\\n"},
        "lm",
        ["decode", "--input", "{input}", "--table", "{table}", "--lm-morph", "{lm}",
         "--output", "{out}"],
    ),
    "config": (
        None, "cfg", ["pipeline", "m-system", "--config", "{cfg}", "--run-dir", "{out}"],
    ),
}


@pytest.mark.parametrize("case", sorted(BOM_INPUTS))
def test_a_byte_order_mark_is_not_text(tmp_path, case):
    """A copy of an input file that starts with UTF-8's byte-order mark gives
    the same output bytes as the file itself."""
    files, marked, argv = BOM_INPUTS[case]
    if files is None:
        paths = {"cfg": str(synth.write_workspace(tmp_path, seed=3, sizes=(5, 2, 2)))}
    else:
        paths = {name: str(tmp_path / name) for name in files}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
    marked_copy = tmp_path / f"bom.{marked}"
    marked_copy.write_bytes(b"\xef\xbb\xbf" + Path(paths[marked]).read_bytes())
    outputs = []
    for given in (paths, {**paths, marked: str(marked_copy)}):
        out = tmp_path / f"out{len(outputs)}"
        assert cli.main([arg.format(out=out, **given) for arg in argv]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir()
                       else out.read_bytes())
    assert outputs[1] == outputs[0]


def test_manifest_records_versions(tmp_path, synth_config):
    import platform

    import morphsmt

    path = tmp_path / "manifest.txt"
    cli._write_manifest(path, "m-system", synth_config)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert f"python={platform.python_version()}" in lines
    assert f"morphsmt={morphsmt.__version__}" in lines


def test_mle_lm_gives_finite_nbest_scores(tmp_path):
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=5, sizes=(60, 5, 5)),
                      {"lm.smoothing": "mle"})
    artifacts = cli.run_pipeline("m+phr+lm", cfg, tmp_path / "run")
    scores = [e.score for entries in decoder.read_nbest(artifacts["nbest"])
              for e in entries]
    assert scores and all(math.isfinite(x) for x in scores)


def test_artifacts_do_not_depend_on_hash_seed(tmp_path):
    cfg = synth.write_workspace(tmp_path / "ws", seed=3, sizes=(40, 4, 4))
    src_dir = Path(cli.__file__).resolve().parents[1]
    digests = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"run{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src_dir),
                                                          os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "morphsmt", "pipeline", "m+phr+lm+tune",
                        "--config", str(cfg), "--run-dir", str(run_dir)],
                       env=env, check=True, capture_output=True)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(run_dir.iterdir())})
    assert sorted(digests[0]) == [
        "lm_m.arpa", "lm_w.arpa", "manifest.txt", "mert_log.txt", "nbest.txt",
        "output.txt", "pt.txt", "report.txt", "trace.txt", "weights.tsv"]
    assert digests[0] == digests[1]


def test_eval_identity_scores_one(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("a b c d\ne f g\n", encoding="utf-8")
    out = tmp_path / "report.txt"
    rc = cli.main(["eval", "--hyp", str(ref), "--ref", str(ref),
                   "--output", str(out)])
    assert rc == 0
    report = dict(
        line.split("=", 1) for line in out.read_text(encoding="utf-8").splitlines()
    )
    assert float(report["bleu"]) == 1.0


def test_eval_compare_sign_test(tmp_path):
    (tmp_path / "ref.txt").write_text("a b c d\nx y z w\n", encoding="utf-8")
    (tmp_path / "h1.txt").write_text("a b c d\nx y z w\n", encoding="utf-8")
    (tmp_path / "h2.txt").write_text("q q q q\nq q q q\n", encoding="utf-8")
    out = tmp_path / "report.txt"
    rc = cli.main(["eval", "--hyp", str(tmp_path / "h1.txt"),
                   "--ref", str(tmp_path / "ref.txt"),
                   "--compare", str(tmp_path / "h2.txt"), "--output", str(out)])
    assert rc == 0
    report = dict(
        line.split("=", 1) for line in out.read_text(encoding="utf-8").splitlines()
    )
    assert report["wins_hyp"] == "2" and report["wins_compare"] == "0"
    assert float(report["p_value"]) == 0.25


def test_merge_pt_add1_empty_secondary(tmp_path):
    e = math.e
    primary = tmp_path / "p.txt"
    primary.write_text(
        f"a/STM ||| x/STM ||| 0.5 1.0 0.5 0.5 {e!r} ||| 2 ||| 0-0\n"
        f"a/STM ||| y/STM ||| 0.5 1.0 0.5 0.5 {e!r} ||| 2 ||| 0-0\n",
        encoding="utf-8",
    )
    secondary = tmp_path / "s.txt"
    secondary.write_text("", encoding="utf-8")
    out = tmp_path / "m.txt"
    rc = cli.main(["merge-pt", "--method", "add-1", "--primary", str(primary),
                   "--secondary", str(secondary), "--output", str(out)])
    assert rc == 0
    merged = phrasex.read_phrase_table(out)
    assert len(merged) == 2
    for entry in merged:
        assert entry.extras == (math.exp(2 / 3),)


@pytest.mark.parametrize("omitted", ["--pt-w", "--lex-m-fwd", "--lex-w-bwd"])
def test_merge_pt_our_method_needs_the_word_and_lexical_tables(tmp_path, omitted):
    # no input exists: the missing flag is reported before any read
    missing = str(tmp_path / "missing")
    flags = ["--pt-w", "--lex-m-fwd", "--lex-m-bwd", "--lex-w-fwd", "--lex-w-bwd"]
    given = [arg for flag in flags if flag != omitted for arg in (flag, missing)]
    proc = run_morphsmt("merge-pt", "--method", "our-method", "--primary", missing,
                        "--secondary", missing, *given, "--output", str(tmp_path / "out.txt"))
    assert proc.returncode == 1
    assert proc.stderr == "error: --method our-method needs --pt-w and the four --lex-* tables\n"
    assert list(tmp_path.iterdir()) == []


def test_merge_pt_our_method_names_the_pair_that_lacks_counts(tmp_path):
    paths = {"out": str(tmp_path / "out.txt")}
    tables = {"pt": TABLE_LINE.replace("||| 1 |||", "||| |||"), "lex": "a/STM\tx/STM\t0.5\n"}
    for name, text in tables.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
    proc = run_morphsmt(*(arg.format(**paths) for arg in MERGE_OUR_METHOD))
    assert proc.returncode == 1
    assert proc.stderr == "error: pt_m entry 'a/STM' ||| 'x/STM' lacks counts\n"
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("flag", ["--pt-w", "--lex-w-bwd"])
@pytest.mark.parametrize("method", ["add-1", "add-2", "interpolation"])
def test_merge_pt_refuses_our_method_tables_under_other_methods(tmp_path, method, flag):
    # no input exists: the unused flag is reported before any read
    missing = str(tmp_path / "missing")
    proc = run_morphsmt("merge-pt", "--method", method, "--primary", missing, "--secondary",
                        missing, flag, missing, "--output", str(tmp_path / "out.txt"))
    assert proc.returncode == 1
    assert proc.stderr == "error: --pt-w and --lex-* are used only by --method our-method\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given", ["--hyp-morphs", "--ref-morphs"])
def test_eval_needs_both_morpheme_files(tmp_path, given):
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n", encoding="utf-8")
    out = tmp_path / "report.txt"
    proc = run_morphsmt("eval", "--hyp", str(ref), "--ref", str(ref), given, str(ref),
                        "--output", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: --hyp-morphs and --ref-morphs must be given together\n"
    assert not out.exists()


def test_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])


def test_unknown_system_fails(synth_dir, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["pipeline", "no-such-system",
                  "--config", str(synth_dir / "synth.cfg"),
                  "--run-dir", str(tmp_path)])


def test_words_as_tokens_wraps_words():
    # a bare word shaped like a word-internal token is still one whole word
    tokens = morpho.words_as_tokens(["hello", "x/STM+", "world"])
    assert tokens == ("hello/STM", "x/STM+/STM", "world/STM")
    assert morpho.words_from_tokens(tokens) == ["hello", "x/STM+", "world"]
    assert morpho.word_spans(tokens) == [(0, 0), (1, 1), (2, 2)]


def test_system_names_map_to_their_enhancements():
    assert set(cli.PLANS) == set(cli.SYSTEMS)
    for name, plan in cli.PLANS.items():
        if name == "w-system":
            assert plan.granularity == "word"
            continue
        assert plan.granularity == "morpheme"
        assert plan.boundary_aware == (("+phr" in name) or name == "merged")
        assert plan.word_lm == (("+lm" in name) or name == "merged")
        assert plan.tune == ("+tune" in name)
        assert plan.merged == (name == "merged")


def run_morphsmt(*argv):
    src_dir = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src_dir), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "morphsmt", *argv],
                          env=env, capture_output=True, text=True)


UNEQUAL_INPUTS = {
    # name: (files, the file paired with "src", subcommand arguments); the
    # error names "src" first
    "align": (
        {"src": "a b\na\n", "tgt": "x y\n"}, "tgt",
        ["align", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "extract": (
        {"src": "a b\nb\n", "tgt": "x y\n"}, "tgt",
        ["extract", "--source", "{src}", "--target", "{tgt}", "--granularity", "word",
         "--output", "{out}"],
    ),
    "extract-boundary-aware": (
        {"src": "a/STM\n", "tgt": "x/STM\ny/STM\n"}, "tgt",
        ["extract", "--source", "{src}", "--target", "{tgt}", "--boundary-aware",
         "--output", "{out}"],
    ),
    "mert": (
        {"src": "a/STM\na/STM\n", "refs": "x\n", "table": TABLE_LINE}, "refs",
        ["mert", "--dev-source", "{src}", "--dev-refs", "{refs}", "--table", "{table}",
         "--output", "{out}"],
    ),
    "eval": (
        {"src": "a b\nc d\n", "ref": "a b\n"}, "ref",
        ["eval", "--hyp", "{src}", "--ref", "{ref}", "--output", "{out}"],
    ),
    "eval-compare": (
        {"hyp": "a b\nc d\n", "ref": "a b\nc d\n", "src": "a b\n"}, "ref",
        ["eval", "--hyp", "{hyp}", "--ref", "{ref}", "--compare", "{src}",
         "--output", "{out}"],
    ),
}


@pytest.mark.parametrize("case", sorted(UNEQUAL_INPUTS))
def test_parallel_files_of_unequal_length_are_named(tmp_path, case):
    files, other, argv = UNEQUAL_INPUTS[case]
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    proc = run_morphsmt(*(arg.format(**paths) for arg in argv))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    n_src, n_other = files["src"].count("\n"), files[other].count("\n")
    assert f"{paths['src']} has {n_src} lines, {paths[other]} has {n_other}" in proc.stderr
    assert not (tmp_path / "out.txt").exists()


EMPTY_INPUTS = {
    # name: (files, message before the files it names, the files it names,
    # subcommand arguments)
    "extract": (
        {"src": "", "tgt": ""}, "no train pair with two non-empty sides", ("src", "tgt"),
        ["extract", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "extract-word": (
        {"src": "a b\n", "tgt": "\n"}, "no train pair with two non-empty sides", ("src", "tgt"),
        ["extract", "--source", "{src}", "--target", "{tgt}", "--granularity", "word",
         "--output", "{out}"],
    ),
    "align": (
        {"src": "a b\n", "tgt": "\n"}, "no train pair with two non-empty sides", ("src", "tgt"),
        ["align", "--source", "{src}", "--target", "{tgt}", "--output", "{out}"],
    ),
    "lm-train": (
        {"text": ""}, "no sentences", ("text",),
        ["lm-train", "--input", "{text}", "--order", "2", "--output", "{out}"],
    ),
    "eval": (
        {"hyp": "", "ref": ""}, "no sentences", ("hyp", "ref"),
        ["eval", "--hyp", "{hyp}", "--ref", "{ref}", "--output", "{out}"],
    ),
    "mert": (
        {"src": "", "refs": "", "table": TABLE_LINE}, "no dev sentences", ("src", "refs"),
        ["mert", "--dev-source", "{src}", "--dev-refs", "{refs}", "--table", "{table}",
         "--output", "{out}"],
    ),
    "decode-weights": (
        {"src": "a/STM\n", "table": TABLE_LINE, "weights": "\n"}, "no weights", ("weights",),
        ["decode", "--input", "{src}", "--table", "{table}", "--weights", "{weights}",
         "--output", "{out}"],
    ),
    "mert-weights": (
        {"src": "a/STM\n", "refs": "x\n", "table": TABLE_LINE, "weights": ""}, "no weights",
        ("weights",),
        ["mert", "--dev-source", "{src}", "--dev-refs", "{refs}", "--table", "{table}",
         "--weights", "{weights}", "--output", "{out}"],
    ),
}


@pytest.mark.parametrize("case", sorted(EMPTY_INPUTS))
def test_empty_inputs_are_named_before_any_output(tmp_path, capsys, case):
    files, message, named, argv = EMPTY_INPUTS[case]
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    names = " and ".join(paths[name] for name in named)
    assert capsys.readouterr().err == f"error: {message} in {names}\n"
    assert not (tmp_path / "out.txt").exists()


def test_pipeline_checks_parallel_files_before_training(tmp_path):
    cfg = synth.write_workspace(tmp_path / "ws", seed=3, sizes=(20, 3, 3))
    refs = tmp_path / "ws" / "test.tgt.morphs"
    refs.write_text("".join(refs.read_text(encoding="utf-8").splitlines(True)[:-1]),
                    encoding="utf-8")
    run_dir = tmp_path / "run"
    proc = run_morphsmt("pipeline", "m-system", "--config", str(cfg), "--run-dir", str(run_dir))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"{tmp_path / 'ws' / 'test.src.morphs'} has 3 lines, {refs} has 2" in proc.stderr
    assert not (run_dir / "pt.txt").exists()


def test_a_malformed_corpus_line_leaves_no_run_directory(tmp_path):
    cfg = synth.write_workspace(tmp_path / "ws", seed=3, sizes=(5, 2, 2))
    source = tmp_path / "ws" / "test.src.morphs"
    lines = source.read_text(encoding="utf-8").splitlines(True)
    source.write_text(lines[0] + "dog/XYZ\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    proc = run_morphsmt("pipeline", "m-system", "--config", str(cfg), "--run-dir", str(run_dir))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {source}:2: token 0: not of form surface/TAG[+]: "
                           "'dog/XYZ'\n")
    assert not run_dir.exists()


UNUSABLE_SPLITS = {
    # split: (system, message before the split's two files)
    "train": ("m-system", "no train pair with two non-empty sides"),
    "test": ("m-system", "no test sentences"),
    "dev": ("m+tune", "no dev sentences"),
}


@pytest.mark.parametrize("split", UNUSABLE_SPLITS)
def test_pipeline_refuses_an_unusable_split_before_the_run_directory(tmp_path, capsys, split):
    system, message = UNUSABLE_SPLITS[split]
    cfg = synth.write_workspace(tmp_path / "ws", seed=7, sizes=(30, 4, 4))
    src, tgt = (cfg.resolve().parent / f"{split}.{side}.morphs" for side in ("src", "tgt"))
    # the train split keeps its lines, but every pair loses its source side
    src.write_text("\n" * 30 if split == "train" else "", encoding="utf-8")
    if split != "train":
        tgt.write_text("", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert cli.main(["pipeline", system, "--config", str(cfg), "--run-dir", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message} in {src} and {tgt}\n"
    assert not run_dir.exists()


def test_an_untuned_pipeline_runs_without_a_dev_split(tmp_path):
    cfg = synth.write_workspace(tmp_path / "ws", seed=7, sizes=(30, 4, 4))
    for side in ("src", "tgt"):
        (tmp_path / "ws" / f"dev.{side}.morphs").write_text("", encoding="utf-8")
    artifacts = cli.run_pipeline("m-system", load_config(cfg), tmp_path / "run")
    assert len(artifacts["output"].read_text(encoding="utf-8").splitlines()) == 4


@pytest.mark.parametrize("system", ["w-system", "merged"])
def test_pipeline_runs_from_the_six_segmented_files(tmp_path, system):
    # every word view is derived from the segmented files: without the .words
    # files a run writes what it writes beside them
    runs = []
    for name in ("full", "segmented"):
        cfg = synth.write_workspace(tmp_path / name, seed=7, sizes=(30, 4, 4))
        if name == "segmented":
            for words in (tmp_path / name).glob("*.words"):
                words.unlink()
        artifacts = cli.run_pipeline(system, load_config(cfg), tmp_path / f"run_{name}")
        runs.append({key: path.read_bytes() for key, path in artifacts.items()
                     if key != "manifest"})
    assert runs[0] == runs[1]


CONFIG_ERRORS = {
    # case: (edit, --set arguments, message).  The edit is None; "-KEY" to
    # delete the line that sets KEY; "KEY = VALUE" to replace the line that
    # sets KEY, or to append if none does; or "+KEY = VALUE" to append even
    # if a line sets KEY.  {line} is the edited line, {first} the line the
    # file first set its key on
    "malformed-line": ("oops no equals", [],
                       "{cfg}:{line}: expected key = value: 'oops no equals'"),
    "unknown-key": ("decoder.bogus = 3", [], "{cfg}:{line}: unknown config key: decoder.bogus"),
    "unknown-data-key": ("data.extra = x.txt", [],
                         "{cfg}:{line}: unknown data key: data.extra"),
    "retired-words-key": ("data.test_tgt_words = test.tgt.words", [],
                          "{cfg}:{line}: unknown data key: data.test_tgt_words"),
    "duplicate-key": ("+decoder.beam = 3", [],
                      "{cfg}:{line}: duplicate key decoder.beam, first on line {first}"),
    "bad-value": ("decoder.beam = ten", [], "{cfg}:{line}: bad value for decoder.beam: 'ten'"),
    "out-of-range-value": ("decoder.beam = -4", [], "{cfg}:{line}: beam must be positive"),
    "missing-data-file": ("data.dev_src_morphs = nowhere.txt", [],
                          "{cfg}:{line}: data.dev_src_morphs: no such file: {dir}/nowhere.txt"),
    "data-path-is-a-directory": ("data.dev_src_morphs = .", [],
                                 "{cfg}:{line}: data.dev_src_morphs: no such file: {dir}"),
    "empty-set-data-path": (None, ["--set", "data.dev_src_morphs="],
                            "--set data.dev_src_morphs=: data.dev_src_morphs: no such file: {dir}"),
    "missing-data-key": ("-data.dev_src_morphs", [],
                         "{cfg}: missing data paths: dev_src_morphs"),
    "bad-set-value": (None, ["--set", "decoder.beam=ten"],
                      "--set decoder.beam=ten: bad value for decoder.beam: 'ten'"),
    "spaced-set-value": (None, ["--set", "decoder.beam = ten"],
                         "--set decoder.beam=ten: bad value for decoder.beam: 'ten'"),
    "out-of-range-set-value": (None, ["--set", "merge.alpha=1.5"],
                               "--set merge.alpha=1.5: merge_alpha must be in [0, 1]"),
    "nan-set-value": (None, ["--set", "mert.epsilon=nan"],
                      "--set mert.epsilon=nan: mert_epsilon must be positive"),
    "set-without-equals": (None, ["--set", "decoder.beam"],
                           "--set expects KEY=VALUE: 'decoder.beam'"),
    "duplicate-set-key": (None, ["--set", "decoder.beam=0", "--set", "decoder.beam = 5"],
                          "--set decoder.beam=5: duplicate key decoder.beam, "
                          "first set by --set decoder.beam=0"),
    "unknown-heuristic": (None, ["--set", "align.heuristic=grow-diag"],
                          "--set align.heuristic=grow-diag: unknown heuristic: grow-diag"),
    "max-words": ("granularity.max_words = 0", [], "{cfg}:{line}: max_words must be positive"),
    "max-morphemes": ("granularity.max_morphemes = 0", [],
                      "{cfg}:{line}: max_morphemes must be positive"),
    "lm-word-order": ("lm.word_order = 0", [], "{cfg}:{line}: lm_word_order must be positive"),
    "lm-morph-order": ("lm.morph_order = -2", [],
                       "{cfg}:{line}: lm_morph_order must be positive"),
    "unknown-smoothing": ("lm.smoothing = laplace", [], "{cfg}:{line}: unknown smoothing: laplace"),
    "align-iterations": ("align.iterations = 0", [],
                         "{cfg}:{line}: align_iterations must be positive"),
    "nbest": (None, ["--set", "decoder.nbest=0"], "--set decoder.nbest=0: nbest must be positive"),
    "distortion-limit": ("decoder.distortion_limit = -1", [],
                         "{cfg}:{line}: distortion_limit must be >= 0"),
    "mert-max-iters": ("mert.max_iters = 0", [], "{cfg}:{line}: mert_max_iters must be positive"),
    "unknown-merge-method": ("merge.method = add-3", [],
                             "{cfg}:{line}: unknown merge method: add-3"),
    "merge-primary": (None, ["--set", "merge.primary=x"],
                      "--set merge.primary=x: merge.primary must be wm or m: x"),
    "seed": ("seed = 0", [], "{cfg}:{line}: seed must be positive"),
}


def test_settings_items_list_data_paths_then_each_setting_in_order():
    # the manifest's settings: the six data keys, then every setting key with
    # its default, in the order the manifest has always written them
    paths = {key: Path(key) for key in config.DATA_KEYS}
    assert config.PipelineConfig(paths=paths).settings_items() == [
        *((f"data.{split}_{side}_morphs", f"{split}_{side}_morphs")
          for split in ("train", "dev", "test") for side in ("src", "tgt")),
        ("granularity.max_words", "7"), ("granularity.max_morphemes", "10"),
        ("lm.word_order", "4"), ("lm.morph_order", "5"), ("lm.smoothing", "witten-bell"),
        ("align.iterations", "5"), ("align.heuristic", "grow-diag-final-and"),
        ("decoder.beam", "100"), ("decoder.distortion_limit", "6"), ("decoder.nbest", "100"),
        ("mert.max_iters", "10"), ("mert.epsilon", "0.0001"), ("merge.method", "our-method"),
        ("merge.alpha", "0.6"), ("merge.primary", "wm"), ("seed", "42"),
    ]


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_pipeline_config_errors_say_where(tmp_path, case):
    edit, overrides, message = CONFIG_ERRORS[case]
    cfg = synth.write_workspace(tmp_path / "ws", seed=3, sizes=(5, 2, 2))
    lines = cfg.read_text(encoding="utf-8").splitlines(True)
    key = edit.lstrip("+-").partition("=")[0].strip() if edit else None
    first = next((i for i, line in enumerate(lines)
                  if line.partition("=")[0].strip() == key), None)
    where = {"cfg": cfg, "line": len(lines) + 1, "dir": cfg.resolve().parent}
    if first is not None:
        where["first"] = first + 1
    if edit is not None and edit.startswith("-"):
        del lines[first]
    elif edit is not None and first is not None and not edit.startswith("+"):
        lines[first] = edit + "\n"
        where["line"] = first + 1
    elif edit is not None:
        lines.append(edit.lstrip("+") + "\n")
    cfg.write_text("".join(lines), encoding="utf-8")
    run_dir = tmp_path / "run"
    proc = run_morphsmt("pipeline", "m-system", "--config", str(cfg), "--run-dir", str(run_dir),
                        *overrides)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message.format(**where)}\n"
    assert not run_dir.exists()


SEARCH_OPTIONS = {
    # case: (subcommand, option, bad value, message)
    "decode-beam": ("decode", "--beam", "0", "--beam must be positive"),
    "decode-nbest": ("decode", "--nbest", "0", "--nbest must be positive"),
    "decode-distortion-limit": ("decode", "--distortion-limit", "-1",
                                "--distortion-limit must be >= 0"),
    "mert-beam": ("mert", "--beam", "-3", "--beam must be positive"),
    "mert-nbest": ("mert", "--nbest", "0", "--nbest must be positive"),
    "mert-distortion-limit": ("mert", "--distortion-limit", "-2",
                              "--distortion-limit must be >= 0"),
    "mert-max-iters": ("mert", "--max-iters", "0", "--max-iters must be positive"),
    "mert-epsilon": ("mert", "--epsilon", "0", "--epsilon must be positive"),
    "extract-max-span": ("extract", "--max-span", "0", "--max-span must be positive"),
    "align-iterations": ("align", "--iterations", "0", "--iterations must be positive"),
    "lm-train-order": ("lm-train", "--order", "0", "--order must be positive"),
    "merge-pt-alpha": ("merge-pt", "--alpha", "1.5", "--alpha must be in [0, 1]"),
    "mert-nan-epsilon": ("mert", "--epsilon", "nan", "--epsilon must be positive"),
    "extract-boundary-aware-word": ("extract", "--boundary-aware", "--granularity=word",
                                    "--boundary-aware extracts morpheme tables, "
                                    "not --granularity word"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_OPTIONS))
def test_search_options_are_checked_before_loading(tmp_path, case):
    # no input exists: a checked option is reported before any read
    command, option, value, message = SEARCH_OPTIONS[case]
    missing = str(tmp_path / "missing")
    inputs = {
        "decode": ["--input", missing, "--table", missing, "--nbest-output",
                   str(tmp_path / "nbest.txt")],
        "mert": ["--dev-source", missing, "--dev-refs", missing, "--table", missing,
                 "--log", str(tmp_path / "log.txt")],
        "extract": ["--source", missing, "--target", missing],
        "align": ["--source", missing, "--target", missing],
        "lm-train": ["--input", missing],
        "merge-pt": ["--method", "add-1", "--primary", missing, "--secondary", missing],
    }[command]
    proc = run_morphsmt(command, *inputs, "--output", str(tmp_path / "out.txt"), option, value)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_subcommand_prints_its_help(capsys):
    parser = cli.build_parser()
    names = next(action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert {"decode", "mert", "extract", "pipeline"} <= set(names)
    for name in names:
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: morphsmt {name} ")


@pytest.mark.parametrize("system,n_built", [("m+phr+lm+tune", 3), ("merged", 4)])
def test_a_finished_pipeline_holds_no_model_or_table(tmp_path, monkeypatch, system, n_built):
    # once run_pipeline returns, nothing keeps the LMs and tables it built alive
    built = []

    def keep_weakrefs(build):
        def wrapped(*args, **kwargs):
            result = build(*args, **kwargs)
            built.append(weakref.ref(result[0] if isinstance(result, tuple) else result))
            return result
        return wrapped

    monkeypatch.setattr(lm, "train_lm", keep_weakrefs(lm.train_lm))
    monkeypatch.setattr(cli, "build_table", keep_weakrefs(cli.build_table))
    cfg = load_config(synth.write_workspace(tmp_path / "ws", seed=7, sizes=(30, 4, 4)))
    cli.run_pipeline(system, cfg, tmp_path / "run")
    gc.collect()
    assert len(built) == n_built
    assert [type(ref()).__name__ for ref in built if ref() is not None] == []


@pytest.mark.parametrize("disabled", [False, True])
@pytest.mark.parametrize("caller_froze", [False, True])
@pytest.mark.parametrize("fail", [False, True])
def test_decode_corpus_freezes_each_search_and_unfreezes_all(
        tmp_path, monkeypatch, disabled, caller_froze, fail):
    # CPython 3.12 keeps some objects of its own frozen, so the count at entry
    # need not be 0 even when nothing called gc.freeze()
    (tmp_path / "pt.txt").write_text(TABLE_LINE, encoding="utf-8")
    table = phrasex.read_phrase_table(tmp_path / "pt.txt")
    sources = [("a/STM",), ("a/STM", "a/STM"), ("a/STM",)]
    weights = decoder.default_weights(table.n_extras, False, False)
    frozen_during = []
    nbest = decoder.nbest

    def counted_nbest(*args):
        frozen_during.append(gc.get_freeze_count())
        if fail and len(frozen_during) == 2:
            raise RuntimeError("second sentence")
        return nbest(*args)

    monkeypatch.setattr(decoder, "nbest", counted_nbest)
    try:
        if disabled:
            gc.disable()
        if caller_froze:
            gc.freeze()
        enabled, at_entry = gc.isenabled(), gc.get_freeze_count()
        if fail:
            with pytest.raises(RuntimeError):
                cli.decode_corpus(sources, table, None, None, weights, 10, 6, 5)
        else:
            best, lists = cli.decode_corpus(sources, table, None, None, weights, 10, 6, 5)
            assert len(best) == len(lists) == 3
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() < min(frozen_during)
        assert len(frozen_during) == (2 if fail else 3)
        assert all(count > at_entry for count in frozen_during)
    finally:
        gc.unfreeze()
        gc.enable()
