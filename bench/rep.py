"""One repetition: run ``cli.run_pipeline`` once in this fresh process.

    python3 bench/rep.py SYSTEM CONFIG RUN_DIR RESULT_JSON [--trace SPANS]

Untraced, only the stage boundaries that ``run_pipeline`` crosses are timed:
its entry and return, ``mert.mert_run``, and each ``decoder.nbest`` and
``decoder.decode`` call.  With ``--trace``, every layer is wrapped as well
(see ``tracing.py``) and the spans are written to SPANS.  The host probe
(``harness.HostProbe``) is timed before the pipeline and every 50 ms during
it.  The result file holds the wall-clock timings, the probe's times, the
artifact paths and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402  (the benchmark's own modules, next to this file)
import tracing  # noqa: E402

PROBE_INTERVAL_S = 0.05
CALIBRATION_SAMPLES = 20


class ProbeSampler:
    """Runs the host probe every PROBE_INTERVAL_S of wall time, from SIGALRM.

    The handler runs between bytecodes of the pipeline, on the same CPU and in
    the same host spell, and touches no program state.  Each sample takes
    about 0.3 ms, under 1% of the interval.
    """

    def __init__(self, probe: harness.HostProbe):
        self.probe = probe
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.probe.sample())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class StageClock:
    """Times the stage boundaries ``run_pipeline`` crosses, and nothing inside."""

    def __init__(self):
        self.decoder_calls: list[tuple[str, bool, float, float]] = []
        self.mert: tuple[float, float] | None = None
        self._in_mert = False

    def install(self, dec, mt) -> None:
        for name in ("nbest", "decode"):
            setattr(dec, name, self._time_decoder(name, getattr(dec, name)))
        original_mert = mt.mert_run

        def mert_run(*args, **kwargs):
            self._in_mert = True
            start = time.perf_counter()
            try:
                return original_mert(*args, **kwargs)
            finally:
                self.mert = (start, time.perf_counter())
                self._in_mert = False

        mt.mert_run = mert_run

    def _time_decoder(self, name, fn):
        calls = self.decoder_calls

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((name, self._in_mert, start, time.perf_counter()))
            return result

        return timed

    def summary(self, start: float, end: float) -> dict:
        test = [c for c in self.decoder_calls if not c[1]]
        if len(test) % 2 or any(c[0] != ("nbest", "decode")[i % 2]
                                for i, c in enumerate(test)):
            raise RuntimeError("test-set decoder calls are not nbest/decode pairs")
        sentence_s = [
            (test[i][3] - test[i][2]) + (test[i + 1][3] - test[i + 1][2])
            for i in range(0, len(test), 2)
        ]
        first = self.decoder_calls[0][2] if self.decoder_calls else end
        last = test[-1][3] if test else end
        return {
            "pipeline_s": end - start,
            "train_s": first - start,
            "tune_s": (self.mert[1] - self.mert[0]) if self.mert else 0.0,
            "search_s": sum(c[3] - c[2] for c in self.decoder_calls),
            "test_decode_s": sum(sentence_s),
            "sentence_s": sentence_s,
            "eval_s": end - last,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("system")
    parser.add_argument("config")
    parser.add_argument("run_dir")
    parser.add_argument("result")
    parser.add_argument("--trace", default=None, metavar="SPANS",
                        help="wrap every layer and write the spans here")
    parser.add_argument("--run-id", default="untraced")
    args = parser.parse_args(argv)

    probe = harness.HostProbe()
    calibration_s = statistics.median(probe.sample() for _ in range(CALIBRATION_SAMPLES))

    import morphsmt
    from morphsmt import cli, config
    from morphsmt import decoder as dec
    from morphsmt import mert as mt

    cfg = config.load_config(args.config)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer, morphsmt)
    clock = StageClock()
    clock.install(dec, mt)

    with ProbeSampler(probe) as sampler:
        start = time.perf_counter()
        artifacts = cli.run_pipeline(args.system, cfg, args.run_dir)
        end = time.perf_counter()

    result = clock.summary(start, end)
    result["calibration_s"] = calibration_s
    result["probe_s"] = statistics.fmean(sampler.samples or [calibration_s])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["artifacts"] = {name: str(path) for name, path in sorted(artifacts.items())}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
