"""The harness's own logic: percentiles, the correctness gate, digests and the
host-speed probe.

Kept apart from ``run.py`` so that ``test_harness.py`` can check it without
running a pipeline.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from pathlib import Path

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer samples it says nothing about the tail.
TAIL_SAMPLES = 10


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile, at most 90, with >= TAIL_SAMPLES samples beyond.

    Returns 50 (the median) when even the median has fewer samples beyond it.
    """
    for p in range(90, 50, -1):
        if n_samples * (100 - p) / 100 >= TAIL_SAMPLES:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, quartiles, mean and sample count of a list of numbers."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "mean": statistics.fmean(values)}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: sha256_file(path) for name, path in sorted(artifacts.items())}


def digest_mismatches(runs: list[dict[str, str]]) -> list[str]:
    """Artifact names whose digest is not the same in every run (or is missing)."""
    if not runs:
        return []
    names = set().union(*runs)
    return sorted(n for n in names if len({r.get(n) for r in runs}) != 1)


def check_outputs(artifacts: dict[str, str], n_test: int) -> tuple[int, list[str]]:
    """The per-repetition correctness gate.

    Returns (failed test sentences, messages).  A sentence fails when it has no
    line in ``output.txt`` or a non-finite score anywhere in its n-best list;
    an unparsable ``report.txt`` fails every sentence of the repetition.
    """
    problems: list[str] = []
    bad: set[int] = set()

    lines = Path(artifacts["output"]).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n_test:
        problems.append(f"output.txt has {len(lines)} lines for {n_test} test sentences")
        bad.update(range(min(len(lines), n_test), n_test))

    with open(artifacts["nbest"], encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = [f.strip() for f in line.split("|||")]
            try:
                sent_id = int(fields[0])
                scores = [float(fields[-1])]
                scores += [float(kv.split("=", 1)[1]) for kv in fields[2].split()]
            except (ValueError, IndexError):
                problems.append(f"nbest.txt line {lineno}: unparsable")
                bad.add(-1)
                continue
            if not all(math.isfinite(s) for s in scores):
                problems.append(f"nbest.txt line {lineno}: non-finite score")
                bad.add(sent_id)

    try:
        report = parse_report(artifacts["report"])
        if not 0.0 <= report["bleu"] <= 1.0:
            raise ValueError(f"bleu={report['bleu']} outside [0, 1]")
    except (ValueError, KeyError) as exc:
        problems.append(f"report.txt: {exc}")
        bad.update(range(n_test))

    if -1 in bad:  # a line that names no sentence fails the whole repetition
        bad = set(range(n_test))
    return len({b for b in bad if 0 <= b < n_test}), problems


def parse_report(path) -> dict[str, float]:
    """``key=value`` lines of numbers; raises ValueError on anything else."""
    report: dict[str, float] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        key, sep, value = line.partition("=")
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected key=value")
        report[key] = float(value)
    if "bleu" not in report:
        raise ValueError("no bleu line")
    return report


class HostProbe:
    """A fixed pure-Python workload that measures how fast the host runs now.

    The CPUs of a shared host switch between fast and slow spells (other
    tenants' work on the same cores), and the pipeline's time moves with them.
    The probe does what the pipeline mostly does, tuple-keyed dict lookups
    over a working set of a few MB, so its time moves the same way; dividing a
    repetition's times by the probe's mean time during that repetition removes
    most of the host's swing.  ``REFERENCE_S`` sets the scale: a normalized
    time is what the wall time would have been had the probe taken exactly
    that long.
    """

    REFERENCE_S = 0.0003   # about the probe's time on the baseline's machine
    KEYS = 8000
    LOOKUPS = 600

    def __init__(self):
        self._table = {(f"w{i}", f"c{i * 7 % 1000}", f"x{i % 97}"): float(i)
                       for i in range(self.KEYS)}
        self._keys = list(self._table)
        self._next = 0

    def sample(self) -> float:
        """Seconds for one fixed batch of lookups."""
        start = time.perf_counter()
        keys, table, n = self._keys, self._table, len(self._keys)
        k = self._next
        total = 0.0
        for _ in range(self.LOOKUPS):
            k = (k * 1103515245 + 12345) % n
            key = keys[k]
            total += table.get((key[0], key[1], key[2]), 0.0)
        self._next = k
        return time.perf_counter() - start

    def speed_factor(self) -> float:
        """REFERENCE_S over the median of five samples taken now."""
        return self.REFERENCE_S / statistics.median(self.sample() for _ in range(5))
