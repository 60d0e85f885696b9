"""morphsmt benchmark: whole pipeline systems on seeded synthetic corpora.

    python3 bench/run.py --workload tune-twin --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7      # every workload, both modes

Each workload is one ``pipeline`` system run by the unmodified
``cli.run_pipeline`` on corpora that ``synth.write_workspace`` makes from the
seed.  Repetitions run one after another, each in a fresh single-threaded
process (closed loop, one client), alternating ``PYTHONHASHSEED`` between 1
and 2.  ``--trace 0`` times only the stage boundaries and prints the
end-to-end metrics; ``--trace 1`` pairs an untraced repetition with a traced
one and prints the per-layer metrics.  Every repetition passes the
correctness gate, and every artifact digest must agree across repetitions of
one corpus (traced or not), or the run fails.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (test sentences) and ``metrics``.  The exit code
is 0 only when ``correct`` is true.  README.md in this directory describes
the metrics and the workloads and says why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import harness  # noqa: E402  (the benchmark's own module, next to this file)


@dataclass(frozen=True)
class Workload:
    system: str
    sizes: tuple[int, int, int]  # train, dev, test sentences per corpus
    corpora: int                 # corpora per run, all made from the seed


# One run decodes a few hundred sentences.  Search cost per sentence grows
# quickly with its length, so one corpus of that size gives totals that swing
# by 10-20% from seed to seed; several smaller corpora per run average that out.
# README.md says why each workload is here.
WORKLOADS = {
    # the paper's full system: MERT plus twin-LM search
    "tune-twin": Workload("m+phr+lm+tune", (200, 10, 20), 8),
    # training-heavy: five Model 1 runs, both extractions, merge, two LMs
    "merged-train": Workload("merged", (300, 10, 20), 8),
    # classic options and a morpheme LM only; its work varies most between
    # seeds, so it gets the most corpora
    "classic-morph": Workload("m-system", (200, 10, 25), 12),
}

REP_TIMEOUT_S = 150    # one repetition; the whole run must end within 180 s
HASH_SEEDS = ("1", "2")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Corpus:
    seed: int
    cfg: Path
    n_test: int
    test_words: int


def corpus_seeds(seed: int, count: int) -> list[int]:
    """The run's seed itself, then ``seed * 1000 + k`` for the other corpora."""
    return [seed] + [seed * 1000 + k for k in range(1, count)]


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def setup(workload: Workload, seed: int, out: Path,
          probe: harness.HostProbe) -> tuple[list[Corpus], list[float]]:
    """Make each corpus and load its config; returns the corpora and the times."""
    corpora, samples = [], []
    for index, corpus_seed in enumerate(corpus_seeds(seed, workload.corpora)):
        ws = out / f"ws{index}"
        samples.append(time_setup(workload, corpus_seed, ws, probe))
        lines = (ws / "test.src.words").read_text(encoding="utf-8").splitlines()
        corpora.append(Corpus(corpus_seed, ws / "synth.cfg", len(lines),
                              sum(len(line.split()) for line in lines)))
    return corpora, samples


def time_setup(workload: Workload, corpus_seed: int, ws: Path,
               probe: harness.HostProbe) -> float:
    """Host-normalized seconds to write one corpus with its config and load it.

    Set-up takes milliseconds, so the probe taken just before it gives the
    host's speed for the whole of it.
    """
    from morphsmt import config, synth

    factor = probe.speed_factor()
    start = time.perf_counter()
    config.load_config(synth.write_workspace(ws, corpus_seed, workload.sizes))
    return (time.perf_counter() - start) * factor


def run_rep(system: str, corpus: Corpus, out: Path, index: int, traced: bool,
            run_id: str) -> dict:
    """One repetition in a fresh process; returns its result dict."""
    run_dir = out / f"rep{index}"
    result_path = out / f"rep{index}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), system, str(corpus.cfg),
           str(run_dir), str(result_path), "--run-id", run_id]
    if traced:
        cmd += ["--trace", str(out / "spans.txt")]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[index % 2])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"repetition {index} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(index=index, traced=traced, corpus=corpus, run_dir=run_dir)
    return result


def gate(result: dict) -> tuple[int, list[str]]:
    """Correctness gate and digests for one repetition, then drop its run dir."""
    failed, problems = harness.check_outputs(result["artifacts"], result["corpus"].n_test)
    result["digests"] = harness.digests(result["artifacts"])
    if not problems:
        result["bleu"] = harness.parse_report(result["artifacts"]["report"])["bleu"]
    shutil.rmtree(result["run_dir"])
    return failed, problems


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """{name: unit} for the end-to-end and the per-layer metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def measure(name: str, seed: int, seconds: float, trace: bool,
            reported: dict[str, str]) -> dict:
    """One benchmark run: set up, repeat, gate, and reduce to the metrics in
    ``reported``; numbers computed but not reported go to ``unreported``."""
    workload = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    machine = machine_record()
    probe = harness.HostProbe()
    corpora, setup_samples = setup(workload, seed, out, probe)

    # Untraced: corpus 0 twice (one per hash seed), then every other corpus
    # once.  Traced: corpus 0 untraced, then traced.  Whole sets repeat while
    # another one fits in the time left.
    if trace:
        schedule = [(corpora[0], False), (corpora[0], True)]
    else:
        schedule = [(corpora[0], False)] + [(c, False) for c in corpora]
    reps: list[dict] = []
    problems: list[str] = []
    failed = 0
    start = time.perf_counter()
    while True:
        set_start = time.perf_counter()
        for corpus, traced in schedule:
            index = len(reps)
            result = run_rep(workload.system, corpus, out, index, traced,
                             f"{name}-seed{seed}-rep{index}")
            rep_failed, rep_problems = gate(result)
            failed += rep_failed
            problems += [f"rep{index}: {p}" for p in rep_problems]
            reps.append(result)
            # set-up takes milliseconds; sampling it between repetitions
            # spreads its samples over the host's slow and fast spells
            setup_samples.append(time_setup(workload, corpus.seed, out / "ws-again", probe))
            shutil.rmtree(out / "ws-again")
        now = time.perf_counter()
        if (now - start) + (now - set_start) > seconds:
            break
    machine["loadavg_after"] = _loadavg()

    for corpus in corpora:
        mismatched = harness.digest_mismatches(
            [r["digests"] for r in reps if r["corpus"] is corpus])
        problems += [f"corpus seed {corpus.seed}: artifact {a} differs between "
                     "repetitions" for a in mismatched]
    if trace:
        counts = {tuple(sorted((k, v) for k, v in r["layers"].items()
                               if not k.endswith("_s")))
                  for r in reps if r["traced"]}
        if len(counts) != 1:
            problems.append("traced repetitions report different counts")

    untraced = [r for r in reps if not r["traced"]]
    summary = {
        "workload": name, "system": workload.system, "sizes": workload.sizes,
        "seed": seed, "corpus_seeds": [c.seed for c in corpora],
        "machine": machine, "reps": len(reps),
        "calibration_ms": [r["calibration_s"] * 1e3 for r in reps],
        "probe_ms": [r["probe_s"] * 1e3 for r in reps],
        "setup_samples_s": setup_samples,
        "problems": problems,
        "attempted": sum(r["corpus"].n_test for r in reps), "failed": failed,
        "correct": not problems and failed == 0,
        "stages": {
            key: harness.summarize(r[key] for r in untraced)
            for key in ("pipeline_s", "train_s", "tune_s", "search_s",
                        "test_decode_s", "eval_s")
        },
    }
    if trace:
        values = layer_metrics(reps)
    else:
        summary["tail_percentile"] = harness.tail_percentile(
            sum(c.n_test for c, _ in schedule))
        values = end_to_end_metrics(
            untraced, statistics.median(setup_samples), summary["tail_percentile"])
    summary["metrics"] = {k: values[k] for k in reported}
    summary["unreported"] = {k: v for k, v in values.items() if k not in reported}
    return summary


def speed_factor(rep: dict) -> float:
    """Multiplier that turns a repetition's wall times into host-normalized ones."""
    return harness.HostProbe.REFERENCE_S / rep["probe_s"]


def end_to_end_metrics(reps: list[dict], setup_s: float, tail: int) -> dict[str, float]:
    """Whole-run aggregates of host-normalized times over the untraced repetitions.

    Times are averaged per corpus (corpus 0 runs twice, for the hash-seed
    check), then over the corpora, so that every corpus counts once.  The
    median sentence latency is taken per repetition (at least 20 sentences
    each) and averaged; the tail percentile is taken over the pooled sentences.
    """
    by_corpus: dict[int, list[dict]] = {}
    for r in reps:
        by_corpus.setdefault(r["corpus"].seed, []).append(r)

    def mean(key):
        return statistics.fmean(
            statistics.fmean(r[key] * speed_factor(r) for r in group)
            for group in by_corpus.values())

    pooled_ms = [s * speed_factor(r) * 1e3 for r in reps for s in r["sentence_s"]]
    return {
        "setup_s": setup_s,
        "pipeline_s": mean("pipeline_s"),
        "train_s": mean("train_s"),
        "decode_words_per_s": (sum(g[0]["corpus"].test_words for g in by_corpus.values())
                               / (mean("test_decode_s") * len(by_corpus))),
        "decode_sent_p50_ms": statistics.fmean(
            harness.percentile(r["sentence_s"], 50) * speed_factor(r) * 1e3 for r in reps),
        "decode_sent_tail_ms": harness.percentile(pooled_ms, tail),
        "eval_s": mean("eval_s"),
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in reps),
    }


def layer_metrics(reps: list[dict]) -> dict[str, float]:
    """Per-layer numbers from the traced repetitions, rates from untraced ones.

    Traced hot-path times are inflated by the wrappers, so each micro-rate is
    an exact traced count over the matching untraced time: the seconds spent
    inside decoder calls.  Every time is host-normalized.
    """
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]

    def med(group, key):
        return statistics.median(r[key] * speed_factor(r) for r in group)

    # counts repeat exactly (measure() checks that); times take the median
    layers = {key: statistics.median(r["layers"][key] * speed_factor(r) for r in traced)
              if key.endswith("_s") else value
              for key, value in traced[0]["layers"].items()}
    search_s = med(untraced, "search_s")
    layers["lm.logprob_per_s"] = layers["lm.logprob_calls"] / search_s
    layers["lm.twin_extend_per_s"] = layers["lm.twin_extend_calls"] / search_s
    layers["decoder.extensions_per_s"] = layers["decoder.extensions"] / search_s
    layers["metrics.bleu"] = untraced[0].get("bleu", 0.0)  # absent if the gate failed
    layers["mert.tune_s"] = med(untraced, "tune_s")
    layers["trace.overhead_s"] = med(traced, "pipeline_s") - med(untraced, "pipeline_s")
    layers["host.calibration_ms"] = statistics.median(
        r["calibration_s"] * 1e3 for r in reps)
    return layers


def print_summary(summary: dict, units: dict[str, str]) -> None:
    name = summary["workload"]
    print(f"# {name}: {summary['system']} sizes={summary['sizes']} "
          f"corpus seeds={summary['corpus_seeds']} reps={summary['reps']}")
    print(f"# machine: {json.dumps(summary['machine'])}")
    print("# host probe ms per repetition, before / during: "
          + " ".join(f"{c:.3f}/{p:.3f}" for c, p in zip(summary["calibration_ms"],
                                                         summary["probe_ms"])))
    if "tail_percentile" in summary:
        print(f"# decode_sent_tail_ms is p{summary['tail_percentile']}")
    for key, stats in summary["stages"].items():
        print(f"# wall-clock stage {key}: median {stats['median']:.4f} s "
              f"[q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}] n={stats['n']}")
    for key, value in summary["unreported"].items():
        print(f"# {key} = {value:.6g} (not in BENCHMARK.json)")
    for key, value in summary["metrics"].items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    for problem in summary["problems"]:
        print(f"# FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # repetition in flight
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "morphsmt" / "__init__.py").is_file():
        print(f"error: no morphsmt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]

    end_to_end_units, per_layer_units = load_metric_units()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in runs:
        units = per_layer_units if trace else end_to_end_units
        try:
            summary = measure(name, args.seed, args.seconds, trace, units)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(summary, units)
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = f"{name}/" if len(runs) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in summary["metrics"].items()})
        (OUT / f"{name}-seed{args.seed}-trace{int(trace)}" / "summary.json").write_text(
            json.dumps(summary, indent=1, default=str), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
